package persist

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"linkclust/internal/fault"
)

// Job journal: an append-only write-ahead log of job lifecycle events. The
// file starts with an 8-byte header (magic "LCJL", format version), followed
// by framed records:
//
//	offset  size  field
//	0       4     payload byte length (little-endian)
//	4       4     CRC32 (IEEE) of the payload
//	8       ...   payload (one JSON-encoded Record)
//
// Append writes one whole frame and fsyncs before reporting success, so the
// journal on disk is always a valid prefix of frames followed by at most one
// torn tail — the write the crash interrupted. Replay validates every frame
// and stops at the first invalid one; the opener then truncates the tail so
// subsequent appends extend a valid file. A frame's payload is hostile input
// on the way back in: lengths are bounded before allocation and the CRC is
// checked before the JSON decoder sees a byte.
const (
	journalMagic   = "LCJL"
	journalVersion = 1
	frameHeader    = 8
	// maxRecordBytes bounds one record's payload so a corrupt length field
	// cannot trigger an enormous allocation. Records are small JSON (no
	// graph bytes — those live in the entry store), so 1 MiB is generous.
	maxRecordBytes = 1 << 20
)

// Op is a journal record's event type.
type Op string

const (
	// OpSubmit records an accepted job: id, graph hash, options, and the
	// client idempotency key. Written before the job is visible to workers.
	OpSubmit Op = "submit"
	// OpStart records a worker picking the job up. Older builds also
	// journaled "ckpt" records (with a "pos" field); they still decode, and
	// replay ignores them like OpStart.
	OpStart Op = "start"
	// OpDone records a finished job with its result summary and the entry
	// name its merge stream is cached under.
	OpDone Op = "done"
	// OpFail and OpCancel record terminal failures; a job that reached
	// neither a terminal op nor OpDone is interrupted and will be re-run.
	OpFail   Op = "fail"
	OpCancel Op = "cancel"
)

// Record is one journal event. Options and Result travel as raw JSON so this
// package stays ignorant of the job layer's types (which import it).
type Record struct {
	Op       Op              `json:"op"`
	ID       string          `json:"id"`
	Seq      int64           `json:"seq,omitempty"`
	GraphSHA string          `json:"graph,omitempty"`
	Options  json.RawMessage `json:"opts,omitempty"`
	IdemKey  string          `json:"idem,omitempty"`
	RKey     string          `json:"rkey,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	Err      string          `json:"err,omitempty"`
	AtUnixMS int64           `json:"at,omitempty"`
}

// Journal is the open write handle. Appends are serialized internally; the
// first write error sticks and turns every later Append into the same typed
// failure, which the job layer uses to degrade to memory-only durability.
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	broken error
}

// ReplayStats summarizes what OpenJournal found.
type ReplayStats struct {
	// Records is the number of valid records replayed.
	Records int
	// TruncatedBytes is the size of the discarded invalid tail (0 for a
	// clean file).
	TruncatedBytes int64
}

// OpenJournal opens the state dir's journal, replays every valid record, and
// truncates any torn or corrupt tail so the returned handle appends to a
// valid file. A missing journal is created empty. The replayed records are
// returned in append order.
func (d *Dir) OpenJournal() (*Journal, []Record, ReplayStats, error) {
	path := filepath.Join(d.root, journalFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, ReplayStats{}, fmt.Errorf("persist: opening journal: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, ReplayStats{}, fmt.Errorf("persist: reading journal: %w", err)
	}
	records, validOff := replayFrames(data)
	var stats ReplayStats
	stats.Records = len(records)
	stats.TruncatedBytes = int64(len(data)) - validOff
	if validOff == 0 {
		// Empty or headerless file: (re)write the header. A journal whose
		// very header is corrupt loses its history — that is detection, not
		// silent service, and the entry store still holds every cached
		// result for content-addressed resubmission.
		if err := f.Truncate(0); err == nil {
			var hdr [8]byte
			copy(hdr[0:], journalMagic)
			binary.LittleEndian.PutUint32(hdr[4:], journalVersion)
			_, err = f.WriteAt(hdr[:], 0)
			validOff = 8
		}
		if err != nil {
			f.Close()
			return nil, nil, stats, fmt.Errorf("persist: initializing journal: %w", err)
		}
	} else if stats.TruncatedBytes > 0 {
		if err := f.Truncate(validOff); err != nil {
			f.Close()
			return nil, nil, stats, fmt.Errorf("persist: truncating journal tail: %w", err)
		}
	}
	if _, err := f.Seek(validOff, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, stats, fmt.Errorf("persist: seeking journal: %w", err)
	}
	return &Journal{f: f}, records, stats, nil
}

// replayFrames walks data and returns every valid record plus the byte
// offset up to which the file is valid. It returns validOff 0 when even the
// file header fails validation.
func replayFrames(data []byte) (records []Record, validOff int64) {
	if len(data) < 8 || string(data[0:4]) != journalMagic ||
		binary.LittleEndian.Uint32(data[4:]) != journalVersion {
		return nil, 0
	}
	off := 8
	for {
		if len(data)-off < frameHeader {
			break // torn frame header (or clean EOF)
		}
		plen := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if plen <= 0 || plen > maxRecordBytes || len(data)-off-frameHeader < plen {
			break // implausible length or torn payload
		}
		payload := data[off+frameHeader : off+frameHeader+plen]
		if crc32.Checksum(payload, entryCRC) != crc {
			break // corrupt payload
		}
		var rec Record
		if json.Unmarshal(payload, &rec) != nil || rec.Op == "" || rec.ID == "" {
			break // valid frame, nonsense record: stop, do not guess
		}
		records = append(records, rec)
		off += frameHeader + plen
	}
	return records, int64(off)
}

// Append journals one record: frame, write, fsync. A firing
// fault.JournalAppend hit (or any disk error) fails with ErrWriteFault; the
// failure sticks, so the caller can make one degrade decision and stop
// paying for doomed appends.
func (j *Journal) Append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.broken != nil {
		return j.broken
	}
	if fault.Hit(fault.JournalAppend) {
		j.broken = fmt.Errorf("journal append %s %s: injected fault: %w", rec.Op, rec.ID, ErrWriteFault)
		return j.broken
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("persist: encoding journal record: %w", err)
	}
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("persist: journal record %s %s is %d bytes (max %d)", rec.Op, rec.ID, len(payload), maxRecordBytes)
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, entryCRC))
	copy(frame[frameHeader:], payload)
	if _, err := j.f.Write(frame); err != nil {
		j.broken = fmt.Errorf("journal append %s %s: %v: %w", rec.Op, rec.ID, err, ErrWriteFault)
		return j.broken
	}
	if err := j.f.Sync(); err != nil {
		j.broken = fmt.Errorf("journal sync %s %s: %v: %w", rec.Op, rec.ID, err, ErrWriteFault)
		return j.broken
	}
	return nil
}

// Close closes the journal file. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.broken == nil {
		j.broken = fmt.Errorf("persist: journal closed")
	}
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
