package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The reader and writer Read and Write replaced, kept verbatim (bar their
// names and hasEdge) as the differential oracle for FuzzReadWriteOracle:
// every text either parses to the same graph and serializes to the same
// bytes under both, or fails with the same error.

// oracleWrite serializes g to w in the text format.
func oracleWrite(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "vertices %d\n", g.NumVertices())
	if g.Labeled() {
		for v := 0; v < g.NumVertices(); v++ {
			fmt.Fprintf(bw, "label %d %s\n", v, g.Label(v))
		}
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "edge %d %d %s\n", e.U, e.V, strconv.FormatFloat(e.Weight, 'g', -1, 64))
	}
	return bw.Flush()
}

// hasEdge reports whether the pair {u, v} has already been added to b.
// Out-of-range endpoints simply report false.
func hasEdge(b *Builder, u, v int) bool {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return false
	}
	if u > v {
		u, v = v, u
	}
	_, ok := b.seen[[2]int32{int32(u), int32(v)}]
	return ok
}

// oracleRead parses a graph in the text format produced by Write.
func oracleRead(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var b *Builder
	var labels map[int]string
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "vertices":
			if b != nil {
				return nil, parseErrf(lineNo, "duplicate vertices directive")
			}
			if len(fields) != 2 {
				return nil, parseErrf(lineNo, "want 'vertices <n>'")
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, parseErrf(lineNo, "bad vertex count %q", fields[1])
			}
			if n >= maxReadVertices {
				return nil, parseErrf(lineNo, "vertex count %d exceeds the int32 id space: %w", n, ErrVertexRange)
			}
			b = NewBuilder(n)
			labels = make(map[int]string)
		case "label":
			if b == nil {
				return nil, parseErrf(lineNo, "label before vertices")
			}
			if len(fields) < 3 {
				return nil, parseErrf(lineNo, "want 'label <v> <text>'")
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 0 || v >= b.NumVertices() {
				return nil, parseErrf(lineNo, "label vertex %q outside [0,%d): %w", fields[1], b.NumVertices(), ErrVertexRange)
			}
			labels[v] = strings.Join(fields[2:], " ")
		case "edge":
			if b == nil {
				return nil, parseErrf(lineNo, "edge before vertices")
			}
			if len(fields) != 4 {
				return nil, parseErrf(lineNo, "want 'edge <u> <v> <w>'")
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			w, err3 := strconv.ParseFloat(fields[3], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, parseErrf(lineNo, "malformed edge %q", line)
			}
			if hasEdge(b, u, v) {
				return nil, parseErrf(lineNo, "edge (%d,%d) repeats an earlier pair: %w", u, v, ErrDuplicateEdge)
			}
			if err := b.AddEdge(u, v, w); err != nil {
				return nil, &ParseError{Line: lineNo, Err: err}
			}
		default:
			return nil, parseErrf(lineNo, "unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read: %w", err)
	}
	if b == nil {
		return nil, fmt.Errorf("graph: input has no vertices directive")
	}
	if len(labels) > 0 {
		ls := make([]string, b.NumVertices())
		for v := range ls {
			if l, ok := labels[v]; ok {
				ls[v] = l
			} else {
				ls[v] = strconv.Itoa(v)
			}
		}
		b.labels = ls
	}
	return b.Build(nil), nil
}
