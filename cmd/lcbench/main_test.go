package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestListExperiments(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig2-1", "fig4-2", "fig6-2", "theory"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("list missing %q:\n%s", want, out.String())
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "fig99"}, &out); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestUnknownSize(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-size", "galactic"}, &out); err == nil {
		t.Fatal("unknown size accepted")
	}
}

func TestRunTheoryExperiment(t *testing.T) {
	// theory is corpus-independent and quick; it exercises the full
	// main-path wiring.
	var out bytes.Buffer
	if err := run([]string{"-experiment", "theory", "-repeats", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Theorem 2 scaling", "8-regular", "complete", "total wall time"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestValidateRejectsBadInput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-validate"}, &out); err == nil {
		t.Fatal("-validate with no paths accepted")
	}
	bad := t.TempDir() + "/bad.json"
	if err := os.WriteFile(bad, []byte(`{"schema":"wrong/v0"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-validate", bad}, &out); err == nil {
		t.Fatal("bad schema accepted")
	}
}
