package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// BenchSchemaV1 identifies the machine-readable microbenchmark format the
// harness emits (BENCH_*.json files). It is distinct from the run-report
// schema (linkclust/run-report/v1): a run report captures one pipeline's
// phases, a bench file captures a head-to-head comparison.
const BenchSchemaV1 = "linkclust/bench/v1"

// writeBenchJSON writes one linkclust/bench/v1 document (any experiment's
// report struct) as indented JSON.
func writeBenchJSON(path string, report any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// benchDoc is the schema-bearing envelope every BENCH_*.json document shares;
// experiment-specific result fields stay opaque here.
type benchDoc struct {
	Schema    string            `json:"schema"`
	Name      string            `json:"name"`
	CreatedAt string            `json:"created_at"`
	Meta      map[string]string `json:"meta"`
	Results   []json.RawMessage `json:"results"`
}

// ValidateBenchFile checks that path holds a well-formed linkclust/bench/v1
// document: the schema marker, a non-empty experiment name, a parseable
// creation timestamp, string-valued metadata, and at least one result row,
// each row a JSON object. When the metadata records the machine's cpus, no
// worker count — meta.workers (one count or a list) or any row's workers —
// may exceed it: such a row measures the scheduler, not the code. Other
// experiment-specific row fields are not checked; they differ per experiment
// by design.
func ValidateBenchFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var doc benchDoc
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != BenchSchemaV1 {
		return fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, BenchSchemaV1)
	}
	if doc.Name == "" {
		return fmt.Errorf("%s: missing experiment name", path)
	}
	if _, err := time.Parse(time.RFC3339, doc.CreatedAt); err != nil {
		return fmt.Errorf("%s: created_at %q is not RFC 3339: %w", path, doc.CreatedAt, err)
	}
	if len(doc.Results) == 0 {
		return fmt.Errorf("%s: no results", path)
	}
	cpus, err := metaCPUs(doc.Meta)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for i, raw := range doc.Results {
		var row map[string]json.RawMessage
		if err := json.Unmarshal(raw, &row); err != nil {
			return fmt.Errorf("%s: results[%d] is not an object: %w", path, i, err)
		}
		if len(row) == 0 {
			return fmt.Errorf("%s: results[%d] is empty", path, i)
		}
		if w, ok := row["workers"]; ok && cpus > 0 {
			var n int
			if err := json.Unmarshal(w, &n); err != nil {
				return fmt.Errorf("%s: results[%d].workers %s is not an integer", path, i, w)
			}
			if n > cpus {
				return fmt.Errorf("%s: results[%d].workers %d exceeds meta.cpus %d", path, i, n, cpus)
			}
		}
	}
	return nil
}

// metaCPUs returns meta.cpus, or 0 when the document does not record it,
// after checking every count in meta.workers ("8" or "[1 2 4]") against it.
func metaCPUs(meta map[string]string) (int, error) {
	s, ok := meta["cpus"]
	if !ok {
		return 0, nil
	}
	cpus, err := strconv.Atoi(s)
	if err != nil || cpus < 1 {
		return 0, fmt.Errorf("meta.cpus %q is not a positive integer", s)
	}
	ws := strings.Fields(strings.Trim(meta["workers"], "[]"))
	for _, f := range ws {
		n, err := strconv.Atoi(f)
		if err != nil {
			return 0, fmt.Errorf("meta.workers %q is not a worker count or list", meta["workers"])
		}
		if n > cpus {
			return 0, fmt.Errorf("meta.workers %d exceeds meta.cpus %d", n, cpus)
		}
	}
	return cpus, nil
}
