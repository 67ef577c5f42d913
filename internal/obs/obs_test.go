package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func findPhase(t *testing.T, rep *RunReport, path string) PhaseReport {
	t.Helper()
	for _, p := range rep.Phases {
		if p.Path == path {
			return p
		}
	}
	t.Fatalf("no phase %q in %+v", path, rep.Phases)
	return PhaseReport{}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	end := r.Phase("anything")
	end()
	r.Add("counter", 5)
	r.SetMeta("k", "v")
	if got := r.Counter("counter"); got != 0 {
		t.Fatalf("nil recorder counter = %d, want 0", got)
	}
	if rep := r.Report(); rep != nil {
		t.Fatalf("nil recorder report = %+v, want nil", rep)
	}
}

func TestPhasesNestAndAggregate(t *testing.T) {
	r := New()
	endOuter := r.Phase("outer")
	for i := 0; i < 3; i++ {
		end := r.Phase("inner")
		time.Sleep(time.Millisecond)
		end()
	}
	endOuter()

	rep := r.Report()
	outer := findPhase(t, rep, "outer")
	inner := findPhase(t, rep, "outer/inner")
	if outer.Depth != 0 || outer.Count != 1 {
		t.Fatalf("outer = %+v, want depth 0 count 1", outer)
	}
	if inner.Depth != 1 || inner.Count != 3 {
		t.Fatalf("inner = %+v, want depth 1 count 3", inner)
	}
	if inner.WallNS < (3 * time.Millisecond).Nanoseconds() {
		t.Fatalf("inner wall %d ns, want >= 3ms", inner.WallNS)
	}
	if outer.WallNS < inner.WallNS {
		t.Fatalf("outer wall %d < inner wall %d", outer.WallNS, inner.WallNS)
	}
}

// TestAddPhase records time worked in pieces under a sibling of the open
// phase: it aggregates with a timed phase of the same path and leaves the
// stack as it was.
func TestAddPhase(t *testing.T) {
	r := New()
	endOuter := r.Phase("outer")
	endSort := r.Phase("sort")
	endSort()
	endRun := r.Phase("run")
	endRun()
	r.AddPhase("sort", 5*time.Millisecond)
	endInner := r.Phase("inner")
	endInner()
	endOuter()
	r.AddPhase("top", time.Millisecond)

	rep := r.Report()
	sort := findPhase(t, rep, "outer/sort")
	if sort.Depth != 1 || sort.Count != 2 || sort.WallNS < (5*time.Millisecond).Nanoseconds() {
		t.Fatalf("outer/sort = %+v, want depth 1, count 2, at least 5ms", sort)
	}
	if p := findPhase(t, rep, "outer/inner"); p.Depth != 1 {
		t.Fatalf("outer/inner = %+v: AddPhase disturbed the stack", p)
	}
	if p := findPhase(t, rep, "top"); p.Depth != 0 || p.Count != 1 || p.WallNS != time.Millisecond.Nanoseconds() {
		t.Fatalf("top = %+v, want depth 0, count 1, 1ms", p)
	}
	var nilRec *Recorder
	nilRec.AddPhase("x", time.Second)
}

func TestOutOfOrderEndIsTolerated(t *testing.T) {
	r := New()
	endA := r.Phase("a")
	endB := r.Phase("b")
	endA() // closes a, discarding b's open frame
	endB() // must not panic or corrupt the stack
	end := r.Phase("c")
	end()

	rep := r.Report()
	findPhase(t, rep, "a")
	if c := findPhase(t, rep, "c"); c.Depth != 0 {
		t.Fatalf("phase after unwind = %+v, want depth 0", c)
	}
}

func TestCountersAndMeta(t *testing.T) {
	r := New()
	r.Add("x", 2)
	r.Add("x", 3)
	r.Add("y", -1)
	r.SetMeta("algo", "sweep")
	if got := r.Counter("x"); got != 5 {
		t.Fatalf("counter x = %d, want 5", got)
	}
	rep := r.Report()
	if rep.Counters["x"] != 5 || rep.Counters["y"] != -1 {
		t.Fatalf("counters = %v", rep.Counters)
	}
	if rep.Meta["algo"] != "sweep" {
		t.Fatalf("meta = %v", rep.Meta)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	r := New()
	end := r.Phase("phase")
	r.Add("pairs", 42)
	end()
	_ = make([]byte, 1<<16) // ensure some allocation happened during the run

	var buf bytes.Buffer
	if err := r.Report().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v\n%s", err, buf.String())
	}
	if back.Schema != SchemaV1 {
		t.Fatalf("schema = %q, want %q", back.Schema, SchemaV1)
	}
	if back.Counters["pairs"] != 42 {
		t.Fatalf("counters after round trip = %v", back.Counters)
	}
	if len(back.Phases) != 1 || back.Phases[0].Path != "phase" {
		t.Fatalf("phases after round trip = %+v", back.Phases)
	}
	if back.WallNS <= 0 {
		t.Fatalf("wall = %d, want > 0", back.WallNS)
	}
	if back.Mem.TotalAllocDeltaBytes == 0 {
		t.Fatalf("total alloc delta = 0, want > 0")
	}
}

func TestFprintRendersPhasesAndCounters(t *testing.T) {
	r := New()
	endOuter := r.Phase("cluster")
	end := r.Phase("sweep")
	end()
	endOuter()
	r.Add("sweep.chain_rewrites", 7)

	var buf bytes.Buffer
	if err := r.Report().Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"cluster", "sweep", "sweep.chain_rewrites", "total wall:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fprint output missing %q:\n%s", want, out)
		}
	}
}

// TestConcurrentCounters exercises Add/Counter/SetMeta from many goroutines;
// run with -race to verify the Recorder's synchronization.
func TestConcurrentCounters(t *testing.T) {
	r := New()
	end := r.Phase("parallel")
	var wg sync.WaitGroup
	const workers, perWorker = 16, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Add("ops", 1)
				_ = r.Counter("ops")
			}
			r.SetMeta("worker", "done")
		}(w)
	}
	wg.Wait()
	end()
	if got := r.Counter("ops"); got != workers*perWorker {
		t.Fatalf("ops = %d, want %d", got, workers*perWorker)
	}
}
