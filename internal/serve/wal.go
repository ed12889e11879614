package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"dagsched/internal/telemetry"
)

// The write-ahead log turns the serving daemon's replay convenience into a
// durability guarantee: every record the daemon acknowledges is framed with a
// checksum and (under the default fsync policy) flushed to stable storage
// before the shard's lock lets the HTTP response out, so an acknowledged
// admission survives SIGKILL. The on-disk layout is one directory holding
//
//	wal.log          framed records since the last checkpoint
//	checkpoint.json  one framed Checkpoint record (atomically replaced)
//
// Each wal.log line is "crc32c-hex8 <json payload>\n"; the CRC covers the
// payload bytes. On open, the tail of the log is scanned and the first
// incomplete or corrupt record — a torn write from the crash — truncates the
// file there. A checkpoint folds the whole record history into
// checkpoint.json (streamed from the previous checkpoint and this log into a
// temp file, fsynced, renamed, directory fsynced; see checkpoint.go) and then
// resets wal.log to just its header, so recovery cost is bounded by the
// checkpoint plus the log written since it.

// FsyncPolicy selects when the WAL is flushed to stable storage.
type FsyncPolicy string

const (
	// FsyncAlways flushes every submission's records, before any of them
	// is acknowledged: an acked admission survives SIGKILL. The default.
	FsyncAlways FsyncPolicy = "always"
	// FsyncInterval flushes at most every Config.FsyncInterval (the engine
	// clock's timer is armed to the deadline): a crash can lose the last
	// interval's records, never a torn prefix of them.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncOff never flushes explicitly; the OS page cache decides. A crash
	// of the process alone loses nothing (the kernel holds the writes); a
	// machine crash can lose any unflushed suffix.
	FsyncOff FsyncPolicy = "off"
)

// ParseFsyncPolicy parses the -fsync flag value.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case FsyncAlways, FsyncInterval, FsyncOff:
		return FsyncPolicy(s), nil
	case "":
		return FsyncAlways, nil
	}
	return "", fmt.Errorf("serve: unknown fsync policy %q (want always, interval, or off)", s)
}

const (
	walFileName        = "wal.log"
	checkpointFileName = "checkpoint.json"
)

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// frameRecord wraps a JSON payload in the WAL line format.
func frameRecord(payload []byte) []byte {
	out := make([]byte, 0, len(payload)+10)
	out = fmt.Appendf(out, "%08x ", crc32.Checksum(payload, walCRC))
	out = append(out, payload...)
	out = append(out, '\n')
	return out
}

// parseFrame validates one framed line (without its trailing newline) and
// returns the payload.
func parseFrame(line []byte) ([]byte, error) {
	if len(line) < 10 {
		return nil, fmt.Errorf("short or unframed record")
	}
	want, err := frameSum(line[:9])
	if err != nil {
		return nil, err
	}
	payload := line[9:]
	if got := crc32.Checksum(payload, walCRC); got != want {
		return nil, fmt.Errorf("checksum mismatch: record says %08x, payload hashes to %08x", want, got)
	}
	return payload, nil
}

// frameSum parses a frame's nine-byte "crc32c-hex8 " prefix.
func frameSum(prefix []byte) (uint32, error) {
	if len(prefix) < 9 || prefix[8] != ' ' {
		return 0, fmt.Errorf("short or unframed record")
	}
	var sum uint32
	for _, h := range prefix[:8] {
		switch {
		case '0' <= h && h <= '9':
			h -= '0'
		case 'a' <= h && h <= 'f':
			h -= 'a' - 10
		case 'A' <= h && h <= 'F':
			h -= 'A' - 10
		default:
			return 0, fmt.Errorf("bad checksum field %q", prefix[:8])
		}
		sum = sum<<4 | uint32(h)
	}
	return sum, nil
}

// scanWAL reads every intact framed record from path and truncates the file
// at the first torn or corrupt one (a crash mid-append leaves at most one).
// It returns the payloads in order, as views into one buffer holding the
// whole file, and how many tail bytes were cut. A missing file is zero
// records, not an error.
func scanWAL(path string) (payloads [][]byte, torn int64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	validEnd := int64(0)
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // no newline: torn tail
		}
		payload, perr := parseFrame(data[off : off+nl])
		if perr != nil {
			break
		}
		payloads = append(payloads, payload)
		off += nl + 1
		validEnd = int64(off)
	}
	torn = int64(len(data)) - validEnd
	if torn > 0 {
		if err := f.Truncate(validEnd); err != nil {
			return nil, 0, fmt.Errorf("truncating torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			return nil, 0, err
		}
	}
	return payloads, torn, nil
}

// wal is the append side of the log. All methods run under the shard's lock
// (or before the server opens).
type wal struct {
	dir      string
	f        *os.File
	policy   FsyncPolicy
	interval time.Duration
	dirty    bool
	lastSync time.Time
	records  int64 // records appended by this process

	// scratch and wbuf are reuse buffers, under the shard's lock: scratch
	// holds one record's payload while it is encoded, wbuf accumulates the
	// framed lines of one group until commit writes them with one syscall.
	scratch []byte
	wbuf    []byte

	// obs, when non-nil, receives fsync latency samples
	// (serve.wal_fsync_us). Under the same lock as the wal;
	// nil disables the timing entirely (the zero-cost-when-nil idiom).
	obs *telemetry.Registry
}

// openWAL opens (creating if needed) dir/wal.log for appending.
func openWAL(dir string, policy FsyncPolicy, interval time.Duration) (*wal, error) {
	f, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &wal{dir: dir, f: f, policy: policy, interval: interval, lastSync: time.Now()}, nil
}

// append marshals v, frames it and buffers it; nothing reaches the file
// before commit. Every submission is a group (shard.handleBatch), so its
// records are appended and then committed together.
func (w *wal) append(v any) error {
	var payload []byte
	var err error
	if wj, isJob := v.(WALJob); isJob {
		// Accepted submissions are the hot path: rendered without
		// encoding/json when the record allows it (byte-identical output,
		// pinned by TestAppendWALJobMatchesMarshal).
		payload, err = encodeWALJob(w.scratch[:0], &wj)
		w.scratch = payload
	} else {
		payload, err = json.Marshal(v)
	}
	if err != nil {
		return err
	}
	w.wbuf = appendFrame(w.wbuf, payload)
	w.records++
	return nil
}

// commit writes the buffered group with one syscall and, under FsyncAlways,
// makes it durable with one fsync. The interval and off policies keep their
// own flush cadence. The caller must not acknowledge any record of the group
// before commit succeeds.
func (w *wal) commit() error {
	if len(w.wbuf) == 0 {
		return nil
	}
	_, err := w.f.Write(w.wbuf)
	w.wbuf = w.wbuf[:0]
	if err != nil {
		return err
	}
	w.dirty = true
	if w.policy != FsyncAlways {
		return nil
	}
	return w.sync()
}

// syncDeadline is the wall instant maybeSync would next flush — meaningful
// only under the interval policy with unflushed records. The shard's engine
// clock arms its timer with it.
func (w *wal) syncDeadline() (time.Time, bool) {
	if w.policy != FsyncInterval || !w.dirty {
		return time.Time{}, false
	}
	return w.lastSync.Add(w.interval), true
}

// sync flushes outstanding writes to stable storage (a no-op when clean or
// under FsyncOff).
func (w *wal) sync() error {
	if !w.dirty || w.policy == FsyncOff {
		w.dirty = false
		return nil
	}
	var t0 time.Time
	if w.obs != nil {
		t0 = time.Now()
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	if w.obs != nil {
		w.obs.Observe("serve.wal_fsync_us", float64(time.Since(t0).Microseconds()))
	}
	w.dirty = false
	w.lastSync = time.Now()
	return nil
}

// maybeSync flushes when the interval policy's deadline has passed; called
// when the engine clock's timer fires.
func (w *wal) maybeSync(now time.Time) error {
	if w.policy != FsyncInterval || !w.dirty || now.Sub(w.lastSync) < w.interval {
		return nil
	}
	return w.sync()
}

// reset truncates the log and rewrites its header — the step after a
// checkpoint has folded the old records into checkpoint.json. Records are
// identified by job ID and idempotency key, so a crash between the
// checkpoint rename and this truncation only leaves records the next
// recovery recognizes as already covered.
func (w *wal) reset(header ReplayHeader) error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, 0); err != nil {
		return err
	}
	payload, err := json.Marshal(header)
	if err != nil {
		return err
	}
	if _, err := w.f.Write(frameRecord(payload)); err != nil {
		return err
	}
	w.dirty = true
	if w.policy != FsyncInterval {
		return w.sync()
	}
	return nil
}

func (w *wal) close() error {
	if err := w.sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// writeFileAtomic replaces dir/name with what write writes into a new file,
// crash-safely: temp file, write, fsync, rename, directory fsync. A crash
// or an error leaves either the old file or the new one, never a torn mix,
// and an error removes the temp file.
func writeFileAtomic(dir, name string, write func(f *os.File) error) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
