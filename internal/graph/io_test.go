package graph

import (
	"bytes"
	"errors"
	"io"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"linkclust/internal/rng"
)

func TestWriteReadRoundTrip(t *testing.T) {
	g := ErdosRenyi(30, 0.2, rng.New(1))
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumVertices() != g.NumVertices() || h.NumEdges() != g.NumEdges() {
		t.Fatalf("shape changed: %d/%d vs %d/%d",
			h.NumVertices(), h.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for i := 0; i < g.NumEdges(); i++ {
		if g.Edge(i) != h.Edge(i) {
			t.Fatalf("edge %d: %+v vs %+v", i, g.Edge(i), h.Edge(i))
		}
	}
}

func TestRoundTripLabels(t *testing.T) {
	b := NewLabeledBuilder([]string{"alpha", "beta gamma", "delta"})
	b.MustAddEdge(0, 1, 0.5)
	b.MustAddEdge(1, 2, 1.25)
	g := b.Build(nil)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Labeled() {
		t.Fatal("labels lost in round trip")
	}
	for v := 0; v < 3; v++ {
		if g.Label(v) != h.Label(v) {
			t.Fatalf("label %d: %q vs %q", v, g.Label(v), h.Label(v))
		}
	}
}

func TestReadCommentsAndBlanks(t *testing.T) {
	in := `
# a comment
vertices 3

edge 0 1 1.5
# another
edge 1 2 2
`
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("%d edges, want 2", g.NumEdges())
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",                                    // no vertices
		"edge 0 1 1",                          // edge before vertices
		"vertices x",                          // bad count
		"vertices -1",                         // negative count
		"vertices 2\nvertices 2",              // duplicate directive
		"vertices 2\nedge 0 1",                // short edge line
		"vertices 2\nedge 0 1 zero",           // bad weight
		"vertices 2\nedge 0 0 1",              // self-loop
		"vertices 2\nedge 0 5 1",              // out of range
		"vertices 2\nedge 0 1 -1",             // non-positive weight
		"vertices 2\nlabel 5 x\nedge 0 1 1",   // label out of range
		"vertices 2\nbogus 1 2\nedge 0 1 1.0", // unknown directive
		"label 0 x",                           // label before vertices
	}
	for _, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("Read(%q) succeeded, want error", in)
		}
	}
}

func TestReadPartialLabelsFillDefaults(t *testing.T) {
	in := "vertices 3\nlabel 1 middle\nedge 0 1 1\nedge 1 2 1\n"
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.Label(0) != "0" || g.Label(1) != "middle" || g.Label(2) != "2" {
		t.Fatalf("labels = %q %q %q", g.Label(0), g.Label(1), g.Label(2))
	}
}

// TestReadTypedErrors pins the hostile-input contract: each rejection class
// surfaces as a *ParseError with the offending 1-based line number, wrapping
// the matching sentinel.
func TestReadTypedErrors(t *testing.T) {
	cases := []struct {
		name     string
		in       string
		line     int
		sentinel error
	}{
		{"nan weight", "vertices 2\nedge 0 1 NaN\n", 2, ErrBadWeight},
		{"negative weight", "vertices 2\nedge 0 1 -3\n", 2, ErrBadWeight},
		{"zero weight", "vertices 2\n# pad\nedge 0 1 0\n", 3, ErrBadWeight},
		{"infinite weight", "vertices 2\nedge 0 1 +Inf\n", 2, ErrBadWeight},
		{"self loop", "vertices 2\nedge 1 1 1\n", 2, ErrSelfLoop},
		{"duplicate pair", "vertices 3\nedge 0 1 1\nedge 1 0 2\n", 3, ErrDuplicateEdge},
		{"endpoint out of range", "vertices 2\nedge 0 9 1\n", 2, ErrVertexRange},
		{"label out of range", "vertices 2\nlabel 7 x\n", 2, ErrVertexRange},
		{"count overflows int32 ids", "vertices 2147483648\n", 1, ErrVertexRange},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("Read(%q) succeeded, want error", tc.in)
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v (%T), want *ParseError", err, err)
			}
			if pe.Line != tc.line {
				t.Errorf("line = %d, want %d (err: %v)", pe.Line, tc.line, err)
			}
			if !errors.Is(err, tc.sentinel) {
				t.Errorf("err = %v, want errors.Is(err, %v)", err, tc.sentinel)
			}
		})
	}
}

// TestBuilderKeepsLastWriteWins documents that duplicate rejection is a
// Read-level policy: the programmatic Builder still overwrites.
func TestBuilderKeepsLastWriteWins(t *testing.T) {
	b := NewBuilder(2)
	b.MustAddEdge(0, 1, 1)
	b.MustAddEdge(1, 0, 7)
	g := b.Build(nil)
	if g.NumEdges() != 1 || g.Edge(0).Weight != 7 {
		t.Fatalf("edges = %d weight = %v, want 1 edge of weight 7", g.NumEdges(), g.Edge(0).Weight)
	}
}

// TestReadLineCap pins the 16 MiB line cap at its boundary, with and without
// a trailing newline and with a CR that pushes a line over, against the
// oracle; a parse error or a repeat on an earlier line still comes first.
func TestReadLineCap(t *testing.T) {
	const head = "vertices 2\nedge 0 1 1\n"
	at := "#" + strings.Repeat("x", maxLineBytes-1) // a line of exactly maxLineBytes
	over := at + "x"
	cases := []struct {
		name, in string
		ok       bool
	}{
		{"at cap, newline", head + at + "\n", true},
		{"at cap, last line", head + at, true},
		{"over cap, newline", head + over + "\n", false},
		{"over cap, last line", head + over, false},
		{"CR pushes over", head + at + "\r\n", false},
		{"earlier parse error", "vertices 2\nbogus\n" + over, false},
		{"earlier repeat", head + "edge 1 0 1\n" + over, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := Read(strings.NewReader(tc.in))
			want, wantErr := oracleRead(strings.NewReader(tc.in))
			if (err == nil) != tc.ok {
				t.Fatalf("err = %v, want ok = %v", err, tc.ok)
			}
			if err != nil {
				sameError(t, tc.name, err, wantErr)
				return
			}
			sameGraph(t, tc.name, g, want)
		})
	}
}

// TestReadReportsReaderErrorFirst pins the one way Read differs from a
// line-at-a-time reader: it reads its input whole, so an error from the
// reader wins over a parse error earlier in the text.
func TestReadReportsReaderErrorFirst(t *testing.T) {
	boom := errors.New("boom")
	r := io.MultiReader(strings.NewReader("vertices 2\nbogus\n"), iotest.ErrReader(boom))
	_, err := Read(r)
	if !errors.Is(err, boom) || err.Error() != "graph: read: boom" {
		t.Fatalf("err = %v, want graph: read: boom", err)
	}
}

// benchGraph is a graph the size of the daemon-mixed benchmark's pool graph
// at fraction 0.1: 400 vertices and about 11.4k edges, each weight printing
// 17 significant digits. Shuffled, its edge ids are a random permutation;
// otherwise they follow the (u, v) order of canonical text, the order of
// the daemon's submits.
func benchGraph(shuffled bool) *Graph {
	src := rng.New(1)
	er := ErdosRenyi(400, 0.143, src)
	b := NewBuilder(er.NumVertices())
	for _, e := range er.Edges() {
		// 'e' prints d.ddde±xx: 17 significant digits put the 'e' at 18.
		w := src.Float64()
		for strings.IndexByte(strconv.FormatFloat(w, 'e', -1, 64), 'e') != 18 {
			w = src.Float64()
		}
		b.MustAddEdge(int(e.U), int(e.V), w)
	}
	if !shuffled {
		return b.Build(nil)
	}
	return b.Build(src.Perm(er.NumEdges()))
}

func BenchmarkReadGraph(b *testing.B) {
	for _, shuffled := range []bool{true, false} {
		name := "id-ordered"
		if shuffled {
			name = "random-order"
		}
		b.Run(name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := Write(&buf, benchGraph(shuffled)); err != nil {
				b.Fatal(err)
			}
			text := buf.Bytes()
			b.ReportAllocs()
			b.SetBytes(int64(len(text)))
			for b.Loop() {
				if _, err := Read(bytes.NewReader(text)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWriteGraph(b *testing.B) {
	g := benchGraph(true)
	b.ReportAllocs()
	for b.Loop() {
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			b.Fatal(err)
		}
	}
}
