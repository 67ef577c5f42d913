package persist

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"linkclust/internal/fault"
)

func openDir(t *testing.T) *Dir {
	t.Helper()
	d, err := Open(filepath.Join(t.TempDir(), "state"))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func resetFaults(t *testing.T) {
	t.Helper()
	fault.Reset()
	t.Cleanup(fault.Reset)
}

func TestOpenLocking(t *testing.T) {
	root := filepath.Join(t.TempDir(), "state")
	d, err := Open(root)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Same pid re-opening is allowed (the daemon restarts in-process in
	// tests); a foreign live pid is not, and pid 1 is reliably alive.
	if _, err := Open(root); err != nil {
		t.Fatalf("re-open by same pid: %v", err)
	}
	if err := os.WriteFile(filepath.Join(root, lockFile), []byte("1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(root); !errors.Is(err, ErrLocked) {
		t.Fatalf("open with live foreign lock: got %v, want ErrLocked", err)
	}
	// A stale lock (dead pid) is taken over. Pid numbers near the max are
	// effectively never alive on a test machine.
	if err := os.WriteFile(filepath.Join(root, lockFile), []byte("4194200\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(root)
	if err != nil {
		t.Fatalf("open with stale lock: %v", err)
	}
	raw, err := os.ReadFile(filepath.Join(root, lockFile))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := strconv.Atoi(string(raw[:len(raw)-1])); got != os.Getpid() {
		t.Fatalf("lockfile pid = %d, want %d", got, os.Getpid())
	}
	d2.Close()
	if _, err := os.Stat(filepath.Join(root, lockFile)); !os.IsNotExist(err) {
		t.Fatalf("lockfile survives Close: %v", err)
	}
	d.Close()
}

func TestJanitor(t *testing.T) {
	d := openDir(t)
	// Plant what a crash leaves behind: temp entry files and a spill run
	// dir; and what an older build left: its checkpoint subtree, finalized
	// checkpoint and temp file alike.
	tmp1 := filepath.Join(d.Root(), cacheDir, "deadbeef-12345"+tmpSuffix)
	if err := os.WriteFile(tmp1, make([]byte, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(d.Root(), legacyCkptDir)
	if err := os.MkdirAll(ckpt, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ckpt, "j1-abc-7"+tmpSuffix), make([]byte, 50), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ckpt, "j1-abc.lcpe"), make([]byte, 30), 0o644); err != nil {
		t.Fatal(err)
	}
	spillRun := filepath.Join(d.SpillDir(), "run-123")
	if err := os.MkdirAll(spillRun, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(spillRun, "bucket-0.lcsb"), make([]byte, 200), 0o644); err != nil {
		t.Fatal(err)
	}
	// Plant what must survive: a finalized entry and the journal.
	if err := d.WriteEntry(EntryPairs, "keepme", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	j, _, _, err := d.OpenJournal()
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	reclaimed, err := d.Janitor()
	if err != nil {
		t.Fatalf("Janitor: %v", err)
	}
	if reclaimed != 380 {
		t.Fatalf("reclaimed %d bytes, want 380", reclaimed)
	}
	for _, gone := range []string{tmp1, ckpt, spillRun} {
		if _, err := os.Stat(gone); !os.IsNotExist(err) {
			t.Errorf("janitor left %s behind (%v)", gone, err)
		}
	}
	if _, err := d.ReadEntry(EntryPairs, "keepme"); err != nil {
		t.Errorf("janitor damaged finalized entry: %v", err)
	}
	if _, err := os.Stat(filepath.Join(d.Root(), journalFile)); err != nil {
		t.Errorf("janitor damaged journal: %v", err)
	}
}

func TestEntryRoundTrip(t *testing.T) {
	d := openDir(t)
	payload := []byte("the quick brown fox")
	for _, k := range []Kind{EntryPairs, EntryResult, EntryGraph} {
		if err := d.WriteEntry(k, "e1", payload); err != nil {
			t.Fatalf("WriteEntry kind %d: %v", k, err)
		}
		got, err := d.ReadEntry(k, "e1")
		if err != nil {
			t.Fatalf("ReadEntry kind %d: %v", k, err)
		}
		if string(got) != string(payload) {
			t.Fatalf("kind %d round-trip: %q", k, got)
		}
	}
	// Kind confusion: the pairs entry read back as a result entry is corrupt,
	// not data. (EntryPairs and EntryResult share cache/, so the name must
	// differ for the files to collide meaningfully.)
	if err := d.WriteEntry(EntryPairs, "kindmix", payload); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadEntry(EntryResult, "kindmix"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("cross-kind read: got %v, want ErrCorrupt", err)
	}
	// Missing entries are plain misses.
	if _, err := d.ReadEntry(EntryPairs, "nope"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing entry: got %v, want ErrNotExist", err)
	}
	// Overwrite is atomic replacement.
	if err := d.WriteEntry(EntryPairs, "e1", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := d.ReadEntry(EntryPairs, "e1"); string(got) != "v2" {
		t.Fatalf("overwrite: %q", got)
	}
	d.RemoveEntry(EntryPairs, "e1")
	if _, err := d.ReadEntry(EntryPairs, "e1"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("after RemoveEntry: %v", err)
	}
	// No temp files linger after any of the above.
	ents, _ := os.ReadDir(filepath.Join(d.Root(), cacheDir))
	for _, e := range ents {
		if filepath.Ext(e.Name()) == tmpSuffix {
			t.Errorf("stray temp file %s", e.Name())
		}
	}
}

func TestEntryWriteFault(t *testing.T) {
	resetFaults(t)
	d := openDir(t)
	if err := d.WriteEntry(EntryPairs, "pre", []byte("old")); err != nil {
		t.Fatal(err)
	}
	fault.Arm(fault.CacheStoreWrite, 1, nil)
	err := d.WriteEntry(EntryPairs, "pre", []byte("new"))
	if !errors.Is(err, ErrWriteFault) {
		t.Fatalf("armed write: got %v, want ErrWriteFault", err)
	}
	// The failed write neither clobbered the old entry nor left a temp file.
	if got, rerr := d.ReadEntry(EntryPairs, "pre"); rerr != nil || string(got) != "old" {
		t.Fatalf("old entry after faulted overwrite: %q, %v", got, rerr)
	}
	if err := d.WriteEntry(EntryPairs, "pre", []byte("new")); err != nil {
		t.Fatalf("write after fault disarmed: %v", err)
	}
}

func TestEntryLoadFault(t *testing.T) {
	resetFaults(t)
	d := openDir(t)
	if err := d.WriteEntry(EntryResult, "r", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	fault.Arm(fault.CacheStoreLoad, 1, nil)
	if _, err := d.ReadEntry(EntryResult, "r"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("armed load: got %v, want ErrCorrupt", err)
	}
	if got, err := d.ReadEntry(EntryResult, "r"); err != nil || string(got) != "ok" {
		t.Fatalf("load after fault fired: %q, %v", got, err)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	d := openDir(t)
	j, recs, stats, err := d.OpenJournal()
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	if len(recs) != 0 || stats.Records != 0 || stats.TruncatedBytes != 0 {
		t.Fatalf("fresh journal: recs=%d stats=%+v", len(recs), stats)
	}
	// The third record is a sweep checkpoint as older builds journaled it,
	// with a field this build does not have. It is framed into the file by
	// hand and must still decode.
	want := []Record{
		{Op: OpSubmit, ID: "j1-aaaa", Seq: 1, GraphSHA: "aa", Options: json.RawMessage(`{"workers":4}`), IdemKey: "k1"},
		{Op: OpStart, ID: "j1-aaaa"},
		{Op: "ckpt", ID: "j1-aaaa"},
		{Op: OpDone, ID: "j1-aaaa", RKey: "rk", Result: json.RawMessage(`{"levels":3}`)},
		{Op: OpFail, ID: "j2-bbbb", Err: "boom"},
	}
	for i, r := range want {
		if i == 2 {
			j.Close()
			legacy := []byte(`{"op":"ckpt","id":"j1-aaaa","pos":512}`)
			frame := binary.LittleEndian.AppendUint32(nil, uint32(len(legacy)))
			frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(legacy, entryCRC))
			f, err := os.OpenFile(filepath.Join(d.Root(), journalFile), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(append(frame, legacy...)); err != nil {
				t.Fatal(err)
			}
			f.Close()
			if j, _, _, err = d.OpenJournal(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := j.Append(r); err != nil {
			t.Fatalf("Append %s: %v", r.Op, err)
		}
	}
	j.Close()
	if err := j.Append(Record{Op: OpStart, ID: "x"}); err == nil {
		t.Fatal("append after Close succeeded")
	}

	j2, got, stats, err := d.OpenJournal()
	if err != nil {
		t.Fatalf("re-open: %v", err)
	}
	defer j2.Close()
	if stats.TruncatedBytes != 0 {
		t.Fatalf("clean journal truncated %d bytes", stats.TruncatedBytes)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Op != w.Op || g.ID != w.ID || g.Seq != w.Seq || g.GraphSHA != w.GraphSHA ||
			g.IdemKey != w.IdemKey || g.RKey != w.RKey || g.Err != w.Err ||
			string(g.Options) != string(w.Options) || string(g.Result) != string(w.Result) {
			t.Errorf("record %d: got %+v, want %+v", i, g, w)
		}
	}
	// Appending through the re-opened handle extends, not clobbers.
	if err := j2.Append(Record{Op: OpCancel, ID: "j2-bbbb"}); err != nil {
		t.Fatal(err)
	}
	_, got3, _, err := d.OpenJournal()
	if err != nil {
		t.Fatal(err)
	}
	if len(got3) != len(want)+1 || got3[len(got3)-1].Op != OpCancel {
		t.Fatalf("after append-on-reopen: %d records, last %+v", len(got3), got3[len(got3)-1])
	}
}

func TestJournalAppendFault(t *testing.T) {
	resetFaults(t)
	d := openDir(t)
	j, _, _, err := d.OpenJournal()
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(Record{Op: OpSubmit, ID: "j1"}); err != nil {
		t.Fatal(err)
	}
	fault.Arm(fault.JournalAppend, 1, nil)
	if err := j.Append(Record{Op: OpStart, ID: "j1"}); !errors.Is(err, ErrWriteFault) {
		t.Fatalf("armed append: got %v, want ErrWriteFault", err)
	}
	// The failure sticks even after the point disarms: one degrade decision.
	if err := j.Append(Record{Op: OpDone, ID: "j1"}); !errors.Is(err, ErrWriteFault) {
		t.Fatalf("append after fault: got %v, want sticky ErrWriteFault", err)
	}
	// The file holds exactly the pre-fault record.
	_, recs, _, err := d.OpenJournal()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Op != OpSubmit {
		t.Fatalf("journal after faulted appends: %+v", recs)
	}
}
