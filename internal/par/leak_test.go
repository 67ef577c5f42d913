package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"linkclust/internal/testkit"
)

func TestRunPanicNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	err := func() (err error) {
		defer RecoverPanicError(&err)
		Run(6, func(tid int, aborted func() bool) {
			if tid == 3 {
				panic("worker 3 exploded")
			}
			// Siblings spin until the abort flag tells them to stop.
			for !aborted() {
				runtime.Gosched()
			}
		})
		return nil
	}()
	var wpe *WorkerPanicError
	if !errors.As(err, &wpe) {
		t.Fatalf("err = %v, want *WorkerPanicError", err)
	}
	if wpe.Worker != 3 {
		t.Fatalf("panic attributed to worker %d, want 3", wpe.Worker)
	}
	testkit.WaitGoroutines(t, base)
}

func TestDoPanicNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	err := func() (err error) {
		defer RecoverPanicError(&err)
		Do(1<<16, 8, func(tid, lo, hi int) {
			if tid == 5 {
				panic("range worker exploded")
			}
			for i := lo; i < hi; i++ {
				_ = i * i
			}
		})
		return nil
	}()
	var wpe *WorkerPanicError
	if !errors.As(err, &wpe) {
		t.Fatalf("err = %v, want *WorkerPanicError", err)
	}
	testkit.WaitGoroutines(t, base)
}

func TestSortFuncCtxCancelNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	s := make([]int, 200_000)
	for i := range s {
		s[i] = (i * 2654435761) % len(s)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := SortFuncCtx(ctx, s, 4, func(a, b int) int { return a - b })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	testkit.WaitGoroutines(t, base)
}

func TestSortFuncCtxPanicNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	s := make([]int, 100_000)
	for i := range s {
		s[i] = (i * 40503) % len(s)
	}
	var calls atomic.Int64
	err := SortFuncCtx(context.Background(), s, 4, func(a, b int) int {
		if calls.Add(1) == 5_000 {
			panic("comparator exploded")
		}
		return a - b
	})
	var wpe *WorkerPanicError
	if !errors.As(err, &wpe) {
		t.Fatalf("err = %v, want *WorkerPanicError", err)
	}
	testkit.WaitGoroutines(t, base)
}
