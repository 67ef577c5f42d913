package graph

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// fuzzVertexCap bounds the vertex counts the fuzzer is willing to build:
// Read legitimately accepts any count in the int32 id space, but Build
// reserves O(n) adjacency headers, so a hostile "vertices 2000000000" would
// be an allocation bomb for the fuzz process rather than a parser bug.
const fuzzVertexCap = 1 << 20

// declaresHugeGraph reports whether input contains a vertices directive the
// fuzzer should not materialize.
func declaresHugeGraph(input string) bool {
	for _, line := range strings.Split(input, "\n") {
		fields := strings.Fields(strings.TrimSpace(line))
		if len(fields) == 2 && fields[0] == "vertices" {
			if n, err := strconv.Atoi(fields[1]); err == nil && n > fuzzVertexCap {
				return true
			}
		}
	}
	return false
}

// FuzzReadGraph asserts the parser's robustness contract on hostile input:
// arbitrary bytes never panic, rejection is always a clean error, and
// anything accepted survives a Write/Read round trip unchanged.
func FuzzReadGraph(f *testing.F) {
	f.Add("vertices 3\nedge 0 1 1.5\nedge 1 2 2\n")
	f.Add("vertices 2\nlabel 0 hello\nedge 0 1 0.25\n")
	f.Add("# comment only\n")
	f.Add("vertices 0\n")
	f.Add("vertices 1\nedge 0 0 1\n")
	f.Add("vertices -3\n")
	f.Add("edge 1 2 3\nvertices 4\n")
	// Hostile classes: non-finite and non-positive weights, duplicate pairs,
	// id-space overflow, junk numerals.
	f.Add("vertices 2\nedge 0 1 NaN\n")
	f.Add("vertices 2\nedge 0 1 +Inf\n")
	f.Add("vertices 2\nedge 0 1 -Inf\n")
	f.Add("vertices 2\nedge 0 1 -0.5\n")
	f.Add("vertices 2\nedge 0 1 0\n")
	f.Add("vertices 3\nedge 0 1 1\nedge 1 0 2\n")
	f.Add("vertices 2147483647\n")
	f.Add("vertices 9223372036854775807\n")
	f.Add("vertices 2\nedge 0 1 1e400\n")
	f.Add("vertices 2\nedge 00 01 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		if declaresHugeGraph(input) {
			t.Skip("vertex count above the fuzz materialization cap")
		}
		g, err := Read(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("Write of accepted graph failed: %v", err)
		}
		h, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v\noriginal input: %q", err, input)
		}
		if h.NumVertices() != g.NumVertices() || h.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape: %d/%d -> %d/%d",
				g.NumVertices(), g.NumEdges(), h.NumVertices(), h.NumEdges())
		}
		for i := 0; i < g.NumEdges(); i++ {
			if g.Edge(i) != h.Edge(i) {
				t.Fatalf("round trip changed edge %d", i)
			}
		}
	})
}

// FuzzReadWriteOracle checks Read and Write against the reader and writer
// they replaced (oracleRead, oracleWrite): every text parses to the same
// graph — edge ids, adjacency, labels — and serializes to the same bytes
// under both, or fails with the same error string, line and sentinel. Read
// also sees the text through a reader with no Len, which takes readAll's
// growing path.
func FuzzReadWriteOracle(f *testing.F) {
	for _, s := range []string{
		"vertices 3\nedge 0 1 1.5\nedge 1 2 2\n",
		"vertices 2\nlabel 0 hello\nedge 0 1 0.25\n",
		"vertices 3\r\nlabel 1 a b\r\nedge 0 1 1\r\nedge 1 2 2\r\n",
		"vertices 3\n\tedge\t0 1\t1\v\nedge  1\f2 3 \n\t# tabbed comment\n",
		"vertices 3\nedge 0\u00851 1\nedge 1\u00a02 2\n",
		"vertices 3\nedge 0 1 1\u0085\nedge\u00a01 2 2\n",
		"vertices 3\nlabel 0 café\nlabel 1 日本 語\nlabel 2 x\u00a0y\n",
		"vertices 3\nlabel 0 \xff\xfe\nedge 0 1 1\n",
		"vertices 3\nedge 00 +1 1\nedge 01 2 +2\n",
		"vertices 3\nedge 0 1 0x1p-2\nedge 1 2 1e400\n",
		"vertices 3\nedge 0 1 0.12345678901234568\nedge 2 1 1e-300\n",
		"vertices 3\nedge 0 1 1\nedge 1 2 2\nedge 1 0 3\nedge 0 2 oops\n",
		"vertices 3\nedge 0 1 1\nedge 1 0 -1\n",
		"vertices 3\nedge 0 1 1\nedge 1 0 NaN\nedge 0 1 2\n",
		"vertices 4\nedge 2 3 1\nedge 0 1 1\nedge 1 0 1\nedge 3 2 1\n",
		"vertices 3\nedge 0 1 1\nedge 1 0 1\nedge 2 2 1\n",
		"vertices 3\nedge 0 1 1\nedge 0 1 1\nvertices 3\n",
		"vertices 2\nlabel 1 a\nlabel 1 b\nedge 0 1 1",
		"vertices 2\nedge 0 1 1\r",
		"\r\n\r\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if declaresHugeGraph(input) {
			t.Skip("vertex count above the fuzz materialization cap")
		}
		want, wantErr := oracleRead(strings.NewReader(input))
		for _, r := range []io.Reader{strings.NewReader(input), struct{ io.Reader }{strings.NewReader(input)}} {
			got, err := Read(r)
			if wantErr != nil || err != nil {
				sameError(t, input, err, wantErr)
				continue
			}
			sameGraph(t, input, got, want)
			var gotText, wantText bytes.Buffer
			if err := Write(&gotText, got); err != nil {
				t.Fatal(err)
			}
			if err := oracleWrite(&wantText, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotText.Bytes(), wantText.Bytes()) {
				t.Fatalf("Write differs from the oracle on %q:\n got %q\nwant %q", input, gotText.Bytes(), wantText.Bytes())
			}
		}
	})
}

// sameError fails t unless err and want are both non-nil with the same
// text, the same *ParseError line (or neither a *ParseError) and the same
// sentinel classes.
func sameError(t *testing.T, input string, err, want error) {
	t.Helper()
	if err == nil || want == nil {
		t.Fatalf("Read(%q): err = %v, oracle err = %v", input, err, want)
	}
	if err.Error() != want.Error() {
		t.Fatalf("Read(%q): err = %q, oracle err = %q", input, err, want)
	}
	var pe, wpe *ParseError
	if errors.As(err, &pe) != errors.As(want, &wpe) || (pe != nil && pe.Line != wpe.Line) {
		t.Fatalf("Read(%q): ParseError %+v, oracle %+v", input, pe, wpe)
	}
	for _, s := range []error{ErrVertexRange, ErrSelfLoop, ErrBadWeight, ErrDuplicateEdge, bufio.ErrTooLong} {
		if errors.Is(err, s) != errors.Is(want, s) {
			t.Fatalf("Read(%q): errors.Is(err, %v) = %v, oracle %v", input, s, errors.Is(err, s), errors.Is(want, s))
		}
	}
}

// sameGraph fails t unless g and want have the same vertices, labels, edge
// list and adjacency.
func sameGraph(t *testing.T, input string, g, want *Graph) {
	t.Helper()
	if g.NumVertices() != want.NumVertices() || g.Labeled() != want.Labeled() ||
		!slices.Equal(g.Edges(), want.Edges()) {
		t.Fatalf("Read(%q): graph differs from the oracle's", input)
	}
	for v := range g.NumVertices() {
		if g.Label(v) != want.Label(v) || !slices.Equal(g.Neighbors(v), want.Neighbors(v)) {
			t.Fatalf("Read(%q): vertex %d differs from the oracle's", input, v)
		}
	}
}
