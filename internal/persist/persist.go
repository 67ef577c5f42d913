// Package persist is the crash-safe persistence layer behind linkclustd: a
// checksummed append-only job journal (WAL), an atomic enveloped entry store
// for the durable cache tiers and graph blobs, a pid lockfile, and the
// startup janitor that reclaims what a crashed predecessor left behind. An
// entry that exists and validates is the entry; there is no index of entries
// to keep in step with the files.
//
// Design rules, in order of importance:
//
//  1. Corruption is detected, never served. Every artifact on disk — journal
//     record, cache entry, graph blob — carries magic, version, length, and
//     CRC32; a reader that cannot validate all four treats the artifact as
//     absent (cache miss, replay stop), never as data.
//  2. Writes are atomic. Entries are written to a temp file in the same
//     directory, fsynced, and renamed into place; the journal appends whole
//     framed records and fsyncs before reporting success, so a crash leaves
//     at worst a truncated tail that replay detects and discards.
//  3. Persistence failures degrade, they do not fail jobs. A full disk (or
//     the fault.JournalAppend / fault.CacheStoreWrite points) turns the
//     daemon memory-only; results are still computed and served.
//
// The package is deliberately ignorant of HTTP and job scheduling: it stores
// and replays bytes and typed records. internal/jobs owns the semantics.
// See DESIGN.md §11 for the formats and the replay rules.
package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Typed failure classes, matchable with errors.Is through context wrapping.
var (
	// ErrCorrupt marks an artifact that failed magic/version/length/CRC
	// validation (or whose read was failed by the fault.CacheStoreLoad
	// point). Callers must treat it as a miss.
	ErrCorrupt = errors.New("persist: corrupt entry")
	// ErrWriteFault is the write-side failure class: a temp-file, fsync,
	// rename, or journal append error (or the fault.CacheStoreWrite /
	// fault.JournalAppend points). Callers degrade to memory-only.
	ErrWriteFault = errors.New("persist: write failed")
	// ErrLocked means another live process holds the state directory.
	ErrLocked = errors.New("persist: state directory locked")
)

// Subdirectories of a state dir. Everything a run writes lives under one of
// these; the janitor only ever touches paths below them (plus the lockfile).
const (
	graphsDir = "graphs" // canonical graph text blobs, content-addressed
	cacheDir  = "cache"  // durable pair-list / result entries
	// legacyCkptDir held the sweep checkpoints of older builds. Nothing
	// writes it any more; Janitor removes what an older build left there.
	legacyCkptDir = "ckpt"
	// SpillSubdir is the parent handed to the out-of-core sweep when a
	// state dir is configured, so the spill file a crashed process left
	// behind (one linkclust-spill-* file per spilled run) is inside janitor
	// reach.
	SpillSubdir = "spill"

	lockFile    = "LOCK"
	journalFile = "journal.wal"
	tmpSuffix   = ".tmp"
)

// Dir is an opened, lock-held state directory.
type Dir struct {
	root string
	lock *os.File
}

// Open creates (if needed) and locks the state directory at root. A live
// holder of the lockfile fails the open with ErrLocked; a stale lockfile —
// its pid dead or unparseable — is taken over, and the caller should run
// Janitor before trusting temp-file-free invariants.
func Open(root string) (*Dir, error) {
	for _, sub := range []string{"", graphsDir, cacheDir, SpillSubdir} {
		if err := os.MkdirAll(filepath.Join(root, sub), 0o755); err != nil {
			return nil, fmt.Errorf("persist: creating state dir: %w", err)
		}
	}
	lockPath := filepath.Join(root, lockFile)
	if raw, err := os.ReadFile(lockPath); err == nil {
		if pid, perr := strconv.Atoi(strings.TrimSpace(string(raw))); perr == nil && pidAlive(pid) && pid != os.Getpid() {
			return nil, fmt.Errorf("%w: held by live pid %d", ErrLocked, pid)
		}
		// Stale: the writer is gone. Fall through and take the lock over.
	}
	f, err := os.OpenFile(lockPath, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: lockfile: %w", err)
	}
	if _, err := f.WriteString(strconv.Itoa(os.Getpid()) + "\n"); err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: lockfile: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: lockfile: %w", err)
	}
	return &Dir{root: root, lock: f}, nil
}

// Root returns the state directory path.
func (d *Dir) Root() string { return d.root }

// SpillDir returns the spill parent inside the state dir (created by Open).
func (d *Dir) SpillDir() string { return filepath.Join(d.root, SpillSubdir) }

// Close releases the lockfile. It does not remove any state — that is the
// whole point of the package.
func (d *Dir) Close() error {
	if d.lock == nil {
		return nil
	}
	err := d.lock.Close()
	d.lock = nil
	os.Remove(filepath.Join(d.root, lockFile))
	return err
}

// Janitor removes what a crashed predecessor can leave behind — temp entry
// files that never reached their rename, spill files whose owning process
// died mid-sweep, and the ckpt/ subtree of sweep checkpoints an older build
// wrote — and reports the bytes reclaimed. It never touches a finalized
// entry of a current kind or the journal: those are replay and cache state,
// not garbage. Call it after Open (the lock guarantees no
// sibling process is mid-write) and before journal replay.
func (d *Dir) Janitor() (reclaimed int64, err error) {
	var firstErr error
	for _, sub := range []string{graphsDir, cacheDir} {
		entries, rerr := os.ReadDir(filepath.Join(d.root, sub))
		if rerr != nil {
			if firstErr == nil {
				firstErr = rerr
			}
			continue
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), tmpSuffix) {
				continue
			}
			path := filepath.Join(d.root, sub, e.Name())
			if info, serr := e.Info(); serr == nil {
				reclaimed += info.Size()
			}
			if rerr := os.Remove(path); rerr != nil && firstErr == nil {
				firstErr = rerr
			}
		}
	}
	// Orphaned spill runs: every entry under spill/ (a run's spill file) belongs
	// to a dead run — a live run in this process cannot exist yet (Janitor
	// runs before the job layer starts), and the lockfile rules out a live
	// sibling.
	spillRoot := d.SpillDir()
	if entries, rerr := os.ReadDir(spillRoot); rerr == nil {
		for _, e := range entries {
			path := filepath.Join(spillRoot, e.Name())
			reclaimed += treeSize(path)
			if rerr := os.RemoveAll(path); rerr != nil && firstErr == nil {
				firstErr = rerr
			}
		}
	} else if firstErr == nil {
		firstErr = rerr
	}
	legacy := filepath.Join(d.root, legacyCkptDir)
	reclaimed += treeSize(legacy)
	if rerr := os.RemoveAll(legacy); rerr != nil && firstErr == nil {
		firstErr = rerr
	}
	return reclaimed, firstErr
}

// treeSize sums the file sizes under path, a file or a directory
// (best-effort; errors count as 0).
func treeSize(path string) int64 {
	var total int64
	filepath.WalkDir(path, func(_ string, e os.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if info, ierr := e.Info(); ierr == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

// pidAlive reports whether pid names a live process. On unixes FindProcess
// always succeeds, so liveness is probed with signal 0; on platforms without
// that probe the conservative answer is "alive" only if FindProcess says so.
func pidAlive(pid int) bool {
	if pid <= 0 {
		return false
	}
	p, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	return signalZero(p)
}
