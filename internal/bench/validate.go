package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
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
// each row a JSON object. It validates the envelope, not experiment-specific
// row fields — those differ per experiment by design.
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
	for i, raw := range doc.Results {
		var row map[string]json.RawMessage
		if err := json.Unmarshal(raw, &row); err != nil {
			return fmt.Errorf("%s: results[%d] is not an object: %w", path, i, err)
		}
		if len(row) == 0 {
			return fmt.Errorf("%s: results[%d] is empty", path, i)
		}
	}
	return nil
}
