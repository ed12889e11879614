package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// A durable shard keeps its accepted job records on disk and nowhere else:
// the history is the body of checkpoint.json's "jobs" array followed by the
// job records its WAL holds behind the header, and that concatenation,
// comma-joined, is the next checkpoint's jobs array. So checkpointNow
// streams it: it copies the jobs span of the current checkpoint.json, then
// the WAL's job payloads, through fixed-size buffers into the new file,
// verifying every source frame's checksum as it reads it, and encodes only
// the head and tail around them. A source that does not verify fails the
// checkpoint — and degrades the shard — rather than re-frame bytes nothing
// vouches for. What the copy writes is frameRecord(json.Marshal(cp)) with
// cp.Jobs the decoded history, because every record on disk is the WAL
// encoder's output: the serving path writes nothing else, and recovery
// normalizes a directory where that does not hold (see openDurable). A
// compacting checkpoint would filter finished records out here.

// ckptFile locates the history in a checkpoint.json: the file's size,
// trailing newline included, and the byte range [start, end) of its jobs
// array body — the records between '[' and ']' — which holds n records.
type ckptFile struct {
	size       int64
	start, end int64
	n          int
}

// jobPrefix opens every job record the WAL writes, and no other record.
var jobPrefix = []byte(`{"type":"job",`)

// ckptBufSize is the size of each of a shard's two streaming buffers.
const ckptBufSize = 32 << 10

// ckptStream writes one checkpoint.json: the frame's checksum accumulates
// as the payload streams out, and the jobs written are counted. Its read
// and write buffers are fixed-size and kept across checkpoints, so a
// checkpoint allocates the same whatever the history's length. Engine
// goroutine only.
type ckptStream struct {
	r       *bufio.Reader
	w       *bufio.Writer
	scratch []byte // head, tail and one encoded record at a time
	crc     uint32 // over the payload written so far
	off     int64  // file offset of the next byte written
	jobs    int    // records written into the jobs array
}

// write replaces dir/checkpoint.json, crash-safely, with cp framed as
// frameRecord(json.Marshal(cp)) frames it, its jobs array the n records
// body writes (cp.Jobs is not read). It returns where the new file holds
// them.
func (c *ckptStream) write(dir string, cp *Checkpoint, n int, body func(*ckptStream) error) (ckptFile, error) {
	if c.w == nil {
		c.r = bufio.NewReaderSize(nil, ckptBufSize)
		c.w = bufio.NewWriterSize(nil, ckptBufSize)
	}
	var out ckptFile
	err := writeFileAtomic(dir, checkpointFileName, func(f *os.File) error {
		var prefix [9]byte // the checksum goes here once the payload is out
		c.w.Reset(f)
		c.w.Write(prefix[:])
		c.crc, c.off, c.jobs = 0, int64(len(prefix)), 0
		var err error
		if c.scratch, err = appendCheckpointHead(c.scratch[:0], cp, n > 0); err != nil {
			return err
		}
		c.emit(c.scratch)
		out.start = c.off
		if err := body(c); err != nil {
			return err
		}
		out.end, out.n = c.off, c.jobs
		if c.jobs != n {
			return fmt.Errorf("checkpoint: streamed %d job records, the shard holds %d", c.jobs, n)
		}
		if c.scratch, err = appendCheckpointTail(c.scratch[:0], cp, n > 0); err != nil {
			return err
		}
		c.emit(c.scratch)
		c.w.WriteByte('\n')
		out.size = c.off + 1
		if err := c.w.Flush(); err != nil {
			return err
		}
		for k := 0; k < 8; k++ {
			prefix[k] = hexDigits[(c.crc>>(28-4*k))&0xf]
		}
		prefix[8] = ' '
		_, err = f.WriteAt(prefix[:], 0)
		return err
	})
	c.w.Reset(nil) // hold no file between checkpoints
	c.r.Reset(nil)
	return out, err
}

// emit writes p into the payload. A write error is kept by the
// bufio.Writer and returned by its Flush.
func (c *ckptStream) emit(p []byte) {
	c.w.Write(p)
	c.crc = crc32.Update(c.crc, walCRC, p)
	c.off += int64(len(p))
}

// record writes the separator before the next n records of the jobs
// array, whose bytes follow, and counts them.
func (c *ckptStream) record(n int) {
	if c.jobs > 0 {
		c.emit(comma)
	}
	c.jobs += n
}

var comma = []byte{','}

// encodeJobs writes recs as the jobs array: each record's adopted bytes
// (WALJob.raw), or the WAL encoder's output for it. It is the start-up
// normalization of a recovered directory the copy cannot take verbatim.
func (c *ckptStream) encodeJobs(recs []WALJob) error {
	var enc []byte
	for k := range recs {
		b := recs[k].raw
		if b == nil {
			var err error
			if enc, err = encodeWALJob(enc[:0], &recs[k]); err != nil {
				return err
			}
			b = enc
		}
		c.record(1)
		c.emit(b)
	}
	return nil
}

// copyCheckpointJobs copies the jobs array body of the checkpoint at path,
// which src locates, reading the whole file to verify its frame checksum.
func (c *ckptStream) copyCheckpointJobs(path string, src ckptFile) error {
	if src.n == 0 {
		return nil
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	c.r.Reset(f)
	want, err := c.framePrefix()
	if err != nil {
		return fmt.Errorf("%s: %w", checkpointFileName, noEOF(err))
	}
	c.record(src.n) // the span holds their commas
	var crc uint32
	pos := int64(9)
	for _, seg := range [...]struct {
		end  int64
		copy bool
	}{{src.start, false}, {src.end, true}, {src.size - 1, false}} {
		for pos < seg.end {
			k := int(min(seg.end-pos, ckptBufSize))
			p, err := c.r.Peek(k)
			if len(p) < k {
				return fmt.Errorf("%s: %d bytes, want %d: %w", checkpointFileName, pos+int64(len(p)), src.size, noEOF(err))
			}
			crc = crc32.Update(crc, walCRC, p)
			if seg.copy {
				c.emit(p)
			}
			c.r.Discard(k)
			pos += int64(k)
		}
	}
	if b, err := c.r.ReadByte(); err != nil || b != '\n' {
		return fmt.Errorf("%s: no newline at byte %d", checkpointFileName, src.size-1)
	}
	if _, err := c.r.ReadByte(); err != io.EOF {
		return fmt.Errorf("%s: bytes past its %d", checkpointFileName, src.size)
	}
	if crc != want {
		return fmt.Errorf("%s: checksum mismatch: record says %08x, payload hashes to %08x", checkpointFileName, want, crc)
	}
	return nil
}

// copyWALJobs copies the payload of every job record in the WAL at path
// behind its header, verifying each frame's checksum; want is how many the
// shard appended or recovered there.
func (c *ckptStream) copyWALJobs(path string, want int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	c.r.Reset(f)
	copied := 0
	for rec := 1; ; rec++ {
		sum, err := c.framePrefix()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("wal record %d: %w", rec, noEOF(err))
		}
		job := false
		if rec > 1 {
			p, _ := c.r.Peek(len(jobPrefix))
			if job = bytes.Equal(p, jobPrefix); job {
				c.record(1)
				copied++
			}
		}
		var crc uint32
		for {
			p, err := c.r.ReadSlice('\n')
			last := err == nil
			if last {
				p = p[:len(p)-1]
			}
			crc = crc32.Update(crc, walCRC, p)
			if job {
				c.emit(p)
			}
			if last {
				break
			}
			if err != bufio.ErrBufferFull {
				return fmt.Errorf("wal record %d: torn: %w", rec, noEOF(err))
			}
		}
		if crc != sum {
			return fmt.Errorf("wal record %d: checksum mismatch: record says %08x, payload hashes to %08x", rec, sum, crc)
		}
	}
	if copied != want {
		return fmt.Errorf("wal holds %d job records, the shard appended %d", copied, want)
	}
	return nil
}

// framePrefix consumes a frame's "crc32c-hex8 " prefix and returns the
// checksum. io.EOF means the input ended cleanly before it.
func (c *ckptStream) framePrefix() (uint32, error) {
	p, err := c.r.Peek(9)
	if len(p) == 0 && err == io.EOF {
		return 0, io.EOF
	}
	if len(p) < 9 {
		return 0, fmt.Errorf("short frame: %w", noEOF(err))
	}
	sum, err := frameSum(p)
	if err != nil {
		return 0, err
	}
	c.r.Discard(9)
	return sum, nil
}

// noEOF reports a clean end of input where more was due as what it is.
func noEOF(err error) error {
	if err == nil || errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// encodeWALJob appends rec as the WAL writes it: appendWALJob's rendering,
// or json.Marshal's where it declines (the two agree wherever both apply).
func encodeWALJob(b []byte, rec *WALJob) ([]byte, error) {
	if out, ok := appendWALJob(b, rec); ok {
		return out, nil
	}
	p, err := json.Marshal(rec)
	return append(b, p...), err
}

// adopt sets rec.raw to span, the bytes rec was decoded from, when they are
// exactly what the WAL encoder writes for it, so a checkpoint copies them
// as they are. A record the fast decoder proved canonical already holds
// them; any other is encoded once to compare.
func adopt(rec *WALJob, span []byte) {
	if rec.raw != nil && len(rec.raw) == len(span) {
		return
	}
	rec.raw = nil
	if b, err := encodeWALJob(nil, rec); err == nil && bytes.Equal(b, span) {
		rec.raw = span
	}
}
