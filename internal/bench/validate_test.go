package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeDoc(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestValidateBenchFileAccepts(t *testing.T) {
	path := writeDoc(t, `{
		"schema": "linkclust/bench/v1",
		"name": "outofcore",
		"created_at": "2026-08-06T00:00:00Z",
		"meta": {"threads": "[1 2 4 8]"},
		"results": [{"alpha": 0.001, "threads": [{"workers": 1}]}]
	}`)
	if err := ValidateBenchFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestValidateBenchFileRejects(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"wrong schema",
			`{"schema":"linkclust/bench/v2","name":"x","created_at":"2026-08-06T00:00:00Z","results":[{"a":1}]}`,
			"schema"},
		{"missing name",
			`{"schema":"linkclust/bench/v1","created_at":"2026-08-06T00:00:00Z","results":[{"a":1}]}`,
			"name"},
		{"bad timestamp",
			`{"schema":"linkclust/bench/v1","name":"x","created_at":"yesterday","results":[{"a":1}]}`,
			"RFC 3339"},
		{"no results",
			`{"schema":"linkclust/bench/v1","name":"x","created_at":"2026-08-06T00:00:00Z","results":[]}`,
			"no results"},
		{"non-object result",
			`{"schema":"linkclust/bench/v1","name":"x","created_at":"2026-08-06T00:00:00Z","results":[42]}`,
			"not an object"},
		{"unknown field",
			`{"schema":"linkclust/bench/v1","name":"x","created_at":"2026-08-06T00:00:00Z","results":[{"a":1}],"extra":true}`,
			"unknown field"},
		{"not JSON", `schema: bench`, ""},
	}
	for _, tc := range cases {
		err := ValidateBenchFile(writeDoc(t, tc.body))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestCheckedInBenchFilesValidate keeps the repository's committed BENCH_*
// artifacts honest against the schema the validator enforces.
func TestCheckedInBenchFilesValidate(t *testing.T) {
	matches, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Skip("no checked-in BENCH_*.json files")
	}
	for _, path := range matches {
		if err := ValidateBenchFile(path); err != nil {
			t.Errorf("%s", err)
		}
	}
}
