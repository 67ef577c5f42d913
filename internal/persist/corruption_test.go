package persist

import (
	"encoding/json"
	"errors"
	"os"
	"testing"
)

// TestEntryCorruptionExhaustive flips every byte and truncates to every
// length of one finalized entry and asserts the reader never returns data:
// either the mutation is detected (ErrCorrupt) or — for a truncation to zero
// that deletes content but keeps the file — still detected. There is no
// mutation of this file that ReadEntry accepts, because the payload CRC
// covers every payload byte and the header fields cross-check each other.
func TestEntryCorruptionExhaustive(t *testing.T) {
	d := openDir(t)
	payload := []byte("link clustering pair list bytes, 42 of them!")
	if err := d.WriteEntry(EntryPairs, "victim", payload); err != nil {
		t.Fatal(err)
	}
	path := d.EntryPath(EntryPairs, "victim")
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	restore := func() {
		if err := os.WriteFile(path, clean, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := range clean {
		mutated := append([]byte(nil), clean...)
		mutated[i] ^= 0xFF
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		got, rerr := d.ReadEntry(EntryPairs, "victim")
		if rerr == nil {
			t.Fatalf("byte flip at %d went undetected (got %q)", i, got)
		}
		if !errors.Is(rerr, ErrCorrupt) {
			t.Fatalf("byte flip at %d: error %v is not ErrCorrupt", i, rerr)
		}
	}
	for n := 0; n < len(clean); n++ {
		if err := os.WriteFile(path, clean[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		got, rerr := d.ReadEntry(EntryPairs, "victim")
		if rerr == nil {
			t.Fatalf("truncation to %d went undetected (got %q)", n, got)
		}
		if !errors.Is(rerr, ErrCorrupt) {
			t.Fatalf("truncation to %d: error %v is not ErrCorrupt", n, rerr)
		}
	}
	// Appended garbage is a length mismatch.
	if err := os.WriteFile(path, append(append([]byte(nil), clean...), 0xAB), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, rerr := d.ReadEntry(EntryPairs, "victim"); !errors.Is(rerr, ErrCorrupt) {
		t.Fatalf("appended byte: %v", rerr)
	}
	restore()
	if got, rerr := d.ReadEntry(EntryPairs, "victim"); rerr != nil || string(got) != string(payload) {
		t.Fatalf("restored entry unreadable: %q, %v", got, rerr)
	}
}

// TestJournalCorruptionExhaustive mutates a journal of three records at every
// byte and every truncation length and asserts replay always returns a valid
// prefix of the original records — never a mutated record, never an error
// that would block startup. A mutation in record K's frame yields at most the
// first K records.
func TestJournalCorruptionExhaustive(t *testing.T) {
	d := openDir(t)
	j, _, _, err := d.OpenJournal()
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Op: OpSubmit, ID: "j1-aaaa", GraphSHA: "deadbeef", Options: json.RawMessage(`{"algo":"sweep"}`)},
		{Op: OpStart, ID: "j1-aaaa"},
		{Op: OpDone, ID: "j1-aaaa", RKey: "rk1"},
	}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	path := d.Root() + "/" + journalFile
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// isPrefix checks got is a prefix of want, field-identical.
	isPrefix := func(got []Record) bool {
		if len(got) > len(want) {
			return false
		}
		for i, g := range got {
			w := want[i]
			if g.Op != w.Op || g.ID != w.ID || g.GraphSHA != w.GraphSHA ||
				g.RKey != w.RKey || string(g.Options) != string(w.Options) {
				return false
			}
		}
		return true
	}

	check := func(mutation string, data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j2, got, _, err := d.OpenJournal()
		if err != nil {
			t.Fatalf("%s: OpenJournal errored: %v", mutation, err)
		}
		// After open, the file was truncated to the valid prefix: appends must
		// work and a further replay must agree.
		if err := j2.Append(Record{Op: OpCancel, ID: "probe"}); err != nil {
			t.Fatalf("%s: append after recovery: %v", mutation, err)
		}
		j2.Close()
		if !isPrefix(got) {
			t.Fatalf("%s: replay returned non-prefix %+v", mutation, got)
		}
		_, again, _, err := d.OpenJournal()
		if err != nil {
			t.Fatalf("%s: second replay: %v", mutation, err)
		}
		if len(again) != len(got)+1 || again[len(again)-1].ID != "probe" {
			t.Fatalf("%s: second replay got %d records, want %d", mutation, len(again), len(got)+1)
		}
	}

	for i := range clean {
		mutated := append([]byte(nil), clean...)
		mutated[i] ^= 0xFF
		check("flip@"+itoa(i), mutated)
	}
	for n := range clean {
		check("trunc@"+itoa(n), append([]byte(nil), clean[:n]...))
	}
	// Garbage appended after the last record: either rejected as a frame
	// (undersized header) or rejected by CRC — prefix is everything.
	check("garbage-tail", append(append([]byte(nil), clean...), 0xDE, 0xAD, 0xBE, 0xEF))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
