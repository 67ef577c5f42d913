// Package testkit holds the helpers the test suites of several packages
// share: a context that cancels at an exact poll, a check of a canceled
// call's return, a wait for leaked goroutines, and an empty-directory check. It imports only the standard
// library, so any package's tests can use it without an import cycle.
package testkit

import (
	"context"
	"errors"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// CountdownCtx is a deterministic cancellation source: its Err is nil for
// the first k calls and context.Canceled from call k+1 on (Done closes at
// the same moment). Because the engines poll Err at their scheduling points —
// window cuts, row-block claims, bucket boundaries, spill blocks — a
// countdown pins cancellation to the k-th such point without any reliance on
// timing, which is what makes cancellation tests exact under -race.
type CountdownCtx struct {
	remaining atomic.Int64
	done      chan struct{}
	once      sync.Once
}

// NewCountdownCtx returns a context whose Err reports context.Canceled from
// its (k+1)-th call on.
func NewCountdownCtx(k int64) *CountdownCtx {
	c := &CountdownCtx{done: make(chan struct{})}
	c.remaining.Store(k)
	return c
}

func (c *CountdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *CountdownCtx) Done() <-chan struct{}       { return c.done }
func (c *CountdownCtx) Value(any) any               { return nil }
func (c *CountdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		c.once.Do(func() { close(c.done) })
		return context.Canceled
	}
	return nil
}

// RequireCanceled fails t unless a call returned context.Canceled and no
// result alongside it: never a partial result, never another error.
func RequireCanceled[T any](t testing.TB, label string, res *T, err error) {
	t.Helper()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("%s: err = %v, want context.Canceled", label, err)
	}
	if res != nil {
		t.Fatalf("%s: returned a result alongside the error", label)
	}
}

// WaitGoroutines polls until the goroutine count falls back to base, the
// count taken before the scenario ran, and fails t if it has not within five
// seconds: a worker, producer or watcher blocked forever shows up as a count
// that never recovers.
func WaitGoroutines(t testing.TB, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// RequireEmptyDir fails t unless dir exists and holds nothing: what a spill
// or a cleanup path must leave behind on every exit.
func RequireEmptyDir(t testing.TB, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	if len(entries) != 0 {
		t.Fatalf("%s not empty: %d entries left, first %q", dir, len(entries), entries[0].Name())
	}
}
