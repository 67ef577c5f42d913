package graph

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// Text serialization. The format is line oriented:
//
//	# comment
//	vertices <n>
//	label <v> <text>          (optional, any number)
//	edge <u> <v> <weight>
//
// Edge ids are assigned in file order, so a round trip preserves them.

// maxEdgeLine bounds the length of one edge line Write makes: int32 ids and
// a shortest-form float64 of at most 24 bytes.
const maxEdgeLine = len("edge -2147483648 -2147483648 -1.2345678901234567e-308\n")

// Write serializes g to w in the text format. Each edge line is appended
// into the free tail of one bufio.Writer's buffer, flushed before it could
// run out, so writing allocates nothing per edge.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	buf := strconv.AppendInt(append(bw.AvailableBuffer(), "vertices "...), int64(g.NumVertices()), 10)
	bw.Write(append(buf, '\n'))
	for v, l := range g.labels {
		buf = strconv.AppendInt(append(bw.AvailableBuffer(), "label "...), int64(v), 10)
		bw.Write(append(buf, ' '))
		bw.WriteString(l)
		bw.WriteByte('\n')
	}
	for _, e := range g.edges {
		if bw.Available() < maxEdgeLine {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		buf = strconv.AppendInt(append(bw.AvailableBuffer(), "edge "...), int64(e.U), 10)
		buf = strconv.AppendInt(append(buf, ' '), int64(e.V), 10)
		buf = strconv.AppendFloat(append(buf, ' '), e.Weight, 'g', -1, 64)
		bw.Write(append(buf, '\n'))
	}
	// A bufio.Writer keeps its first error and returns it from every later
	// call, so Flush reports any write above.
	return bw.Flush()
}

// maxReadVertices caps the vertex count Read accepts: vertex and edge ids
// are int32 internally, so counts past the int32 id space are structurally
// unrepresentable and would silently truncate. (Counts below the cap can
// still be large allocations — Build reserves O(n) adjacency headers — so
// callers reading untrusted input from quota-bound contexts should impose
// their own size policy before Read.)
const maxReadVertices = 1 << 31

// maxLineBytes caps one line of Read's input, counting a trailing '\r' but
// not the '\n': a line and its newline fit in 16 MiB. A longer line fails
// with bufio.ErrTooLong, the error callers already match for it.
const maxLineBytes = 16<<20 - 1

// Read parses a graph in the text format produced by Write. Input is treated
// as untrusted: malformed directives, vertex ids outside the declared range
// or the int32 id space, self-loops, duplicate endpoint pairs, and weights
// that are not positive finite numbers (zero, negative, NaN, ±Inf) are all
// rejected with a *ParseError carrying the 1-based line number and wrapping
// the matching sentinel class (ErrVertexRange, ErrSelfLoop,
// ErrDuplicateEdge, ErrBadWeight). A duplicate is reported at the first line
// that repeats an earlier pair.
//
// Read reads r whole before it parses, so an error from r is reported even
// when the text before it already holds a parse error. A line of more than
// 16 MiB − 1 bytes (counting a trailing '\r') is an error. Lines are split
// into fields where strings.Fields splits them: at ASCII spaces, and on a
// line holding any byte ≥ 0x80 at Unicode spaces too (U+0085, U+00A0, …);
// UTF-8 labels keep their bytes.
func Read(r io.Reader) (*Graph, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph: read: %w", err)
	}
	var (
		b      *Builder
		labels map[int]string
		edges  []edgeLine
		fields [][]byte
	)
	// fail returns err, the error of the line being read, unless an earlier
	// line (or this one, when it is an edge whose only fault is its weight)
	// repeats a pair: line by line, that duplicate comes first.
	fail := func(err error) (*Graph, error) {
		if dup := repeatErr(edges); dup != nil {
			return nil, dup
		}
		return nil, err
	}
	lineNo := 0
	for rest := data; len(rest) > 0; {
		lineNo++
		line := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = nil
		}
		if len(line) > maxLineBytes {
			return fail(fmt.Errorf("graph: read: %w", bufio.ErrTooLong))
		}
		fields = splitFields(fields[:0], line)
		if len(fields) == 0 || fields[0][0] == '#' {
			continue
		}
		switch string(fields[0]) {
		case "vertices":
			if b != nil {
				return fail(parseErrf(lineNo, "duplicate vertices directive"))
			}
			if len(fields) != 2 {
				return fail(parseErrf(lineNo, "want 'vertices <n>'"))
			}
			n, err := strconv.Atoi(string(fields[1]))
			if err != nil || n < 0 {
				return fail(parseErrf(lineNo, "bad vertex count %q", fields[1]))
			}
			if n >= maxReadVertices {
				return fail(parseErrf(lineNo, "vertex count %d exceeds the int32 id space: %w", n, ErrVertexRange))
			}
			// Size the edge arrays once. Every edge is a line of its own, of
			// at least len("edge 0 1 1\n") bytes but the last, so a text of
			// blank lines cannot make them many times its own size.
			m := min(bytes.Count(rest, []byte{'\n'}), len(rest)/len("edge 0 1 1\n")) + 1
			b = &Builder{n: n, us: make([]int32, 0, m), vs: make([]int32, 0, m), ws: make([]float64, 0, m)}
			edges = make([]edgeLine, 0, m)
			labels = make(map[int]string)
		case "label":
			if b == nil {
				return fail(parseErrf(lineNo, "label before vertices"))
			}
			if len(fields) < 3 {
				return fail(parseErrf(lineNo, "want 'label <v> <text>'"))
			}
			v, err := atoi(fields[1])
			if err != nil || v < 0 || v >= b.n {
				return fail(parseErrf(lineNo, "label vertex %q outside [0,%d): %w", fields[1], b.n, ErrVertexRange))
			}
			labels[v] = string(bytes.Join(fields[2:], []byte{' '}))
		case "edge":
			if b == nil {
				return fail(parseErrf(lineNo, "edge before vertices"))
			}
			if len(fields) != 4 {
				return fail(parseErrf(lineNo, "want 'edge <u> <v> <w>'"))
			}
			u, err1 := atoi(fields[1])
			v, err2 := atoi(fields[2])
			w, err3 := strconv.ParseFloat(string(fields[3]), 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return fail(parseErrf(lineNo, "malformed edge %q", bytes.TrimSpace(line)))
			}
			// Builder.AddEdge's checks, with the duplicate check (made by
			// fail) between the pair's checks and the weight's.
			err := checkEdge(b.n, u, v, w)
			if err == nil || errors.Is(err, ErrBadWeight) {
				edges = append(edges, edgeLine{int32(u), int32(v), lineNo})
			}
			if err != nil {
				return fail(&ParseError{Line: lineNo, Err: err})
			}
			b.us = append(b.us, int32(min(u, v)))
			b.vs = append(b.vs, int32(max(u, v)))
			b.ws = append(b.ws, w)
		default:
			return fail(parseErrf(lineNo, "unknown directive %q", fields[0]))
		}
	}
	if b == nil {
		return nil, fmt.Errorf("graph: input has no vertices directive")
	}
	if len(labels) > 0 {
		ls := make([]string, b.n)
		for v := range ls {
			if l, ok := labels[v]; ok {
				ls[v] = l
			} else {
				ls[v] = strconv.Itoa(v)
			}
		}
		b.labels = ls
	}
	// Build places every adjacency list in neighbor order, so a repeated
	// pair shows as two equal neighbors side by side: checking costs one
	// pass, and only a text that has a repeat pays repeatErr's sort to find
	// the first.
	g := b.Build(nil)
	for _, hs := range g.adj {
		for i := 1; i < len(hs); i++ {
			if hs[i].To == hs[i-1].To {
				return nil, repeatErr(edges)
			}
		}
	}
	return g, nil
}

// readAll is io.ReadAll with the buffer sized once when r knows its length
// (bytes.Reader, strings.Reader, bytes.Buffer).
func readAll(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	if lr, ok := r.(interface{ Len() int }); ok {
		// ReadFrom wants MinRead bytes free before each read, EOF's included.
		buf.Grow(lr.Len() + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// edgeLine is one edge line whose pair passed its checks: the endpoints as
// written and the line number.
type edgeLine struct {
	u, v int32
	line int
}

// pair packs the canonical endpoint pair, so equal pairs compare equal
// whichever way round they were written.
func (e edgeLine) pair() uint64 {
	return uint64(min(e.u, e.v))<<32 | uint64(max(e.u, e.v))
}

// repeatErr reports the first line, in file order, whose pair an earlier
// line already holds, or returns nil. It sorts edges by (pair, line) in
// place: within a run of equal pairs the second line is that pair's first
// repeat.
func repeatErr(edges []edgeLine) error {
	slices.SortFunc(edges, func(a, b edgeLine) int {
		return cmp.Or(cmp.Compare(a.pair(), b.pair()), cmp.Compare(a.line, b.line))
	})
	var dup *edgeLine
	for i := 1; i < len(edges); i++ {
		if edges[i].pair() == edges[i-1].pair() && (dup == nil || edges[i].line < dup.line) {
			dup = &edges[i]
		}
	}
	if dup == nil {
		return nil
	}
	return parseErrf(dup.line, "edge (%d,%d) repeats an earlier pair: %w", dup.u, dup.v, ErrDuplicateEdge)
}

// splitFields appends line's fields to fields, split where strings.Fields
// would split them: without allocating on an ASCII line, and by bytes.Fields
// (at Unicode spaces) on a line holding any byte ≥ 0x80.
func splitFields(fields [][]byte, line []byte) [][]byte {
	start := -1
	for i, c := range line {
		switch {
		case c >= 0x80:
			return append(fields[:0], bytes.Fields(line)...)
		case !asciiSpace[c]:
			if start < 0 {
				start = i
			}
		case start >= 0:
			fields = append(fields, line[start:i])
			start = -1
		}
	}
	if start >= 0 {
		fields = append(fields, line[start:])
	}
	return fields
}

// asciiSpace marks the ASCII bytes strings.Fields treats as spaces.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// atoi is strconv.Atoi with a digit loop for the plain decimal ids a graph
// text holds; anything else (a sign, past 18 digits, junk) goes to Atoi.
func atoi(f []byte) (int, error) {
	if len(f) == 0 || len(f) > 18 {
		return strconv.Atoi(string(f))
	}
	n := 0
	for _, c := range f {
		d := c - '0'
		if d > 9 {
			return strconv.Atoi(string(f))
		}
		n = n*10 + int(d)
	}
	return n, nil
}
