package serve

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	for _, payload := range []string{
		`{"type":"header"}`,
		`{}`,
		`{"k":"newline-free but long ` + string(bytes.Repeat([]byte("x"), 500)) + `"}`,
	} {
		framed := frameRecord([]byte(payload))
		if framed[len(framed)-1] != '\n' {
			t.Fatalf("frame of %q does not end in newline", payload)
		}
		got, err := parseFrame(framed[:len(framed)-1])
		if err != nil {
			t.Fatalf("parseFrame(frame(%q)): %v", payload, err)
		}
		if string(got) != payload {
			t.Fatalf("round trip: got %q, want %q", got, payload)
		}
	}
}

func TestParseFrameRejectsCorruption(t *testing.T) {
	framed := frameRecord([]byte(`{"type":"job"}`))
	line := framed[:len(framed)-1]

	// Flip one payload byte: checksum must catch it.
	bad := append([]byte(nil), line...)
	bad[12] ^= 0x01
	if _, err := parseFrame(bad); err == nil {
		t.Error("corrupt payload accepted")
	}
	// Mangle the checksum field itself.
	bad = append([]byte(nil), line...)
	bad[0] = 'z'
	if _, err := parseFrame(bad); err == nil {
		t.Error("non-hex checksum accepted")
	}
	// Too short to hold a frame.
	if _, err := parseFrame([]byte("00 x")); err == nil {
		t.Error("short line accepted")
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for in, want := range map[string]FsyncPolicy{
		"":         FsyncAlways,
		"always":   FsyncAlways,
		"interval": FsyncInterval,
		"off":      FsyncOff,
	} {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseFsyncPolicy(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := ParseFsyncPolicy("everysooften"); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestScanWALTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, walFileName)

	var log bytes.Buffer
	log.Write(frameRecord([]byte(`{"type":"header"}`)))
	log.Write(frameRecord([]byte(`{"type":"job","n":1}`)))
	intact := log.Len()
	log.WriteString(`0badc0de {"type":"job","n":2`) // no newline: torn mid-append
	if err := os.WriteFile(path, log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	payloads, torn, err := scanWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 2 {
		t.Fatalf("got %d records, want 2", len(payloads))
	}
	if wantTorn := int64(log.Len() - intact); torn != wantTorn {
		t.Fatalf("torn = %d bytes, want %d", torn, wantTorn)
	}
	// The file itself must have been truncated at the last intact record.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != intact {
		t.Fatalf("file is %d bytes after scan, want %d", len(data), intact)
	}
	// A second scan is clean.
	payloads, torn, err = scanWAL(path)
	if err != nil || torn != 0 || len(payloads) != 2 {
		t.Fatalf("rescan: %d records, %d torn, %v", len(payloads), torn, err)
	}
}

func TestScanWALTruncatesAtCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, walFileName)

	var log bytes.Buffer
	log.Write(frameRecord([]byte(`{"type":"header"}`)))
	intact := log.Len()
	bad := frameRecord([]byte(`{"type":"job","n":1}`))
	bad[12] ^= 0x01 // corrupt the payload under its checksum
	log.Write(bad)
	log.Write(frameRecord([]byte(`{"type":"job","n":2}`))) // intact but unreachable
	if err := os.WriteFile(path, log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	payloads, torn, err := scanWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 1 {
		t.Fatalf("got %d records, want 1 (stop at first corrupt record)", len(payloads))
	}
	if torn == 0 {
		t.Fatal("no torn bytes reported")
	}
	data, _ := os.ReadFile(path)
	if len(data) != intact {
		t.Fatalf("file is %d bytes, want truncated to %d", len(data), intact)
	}
}

func TestScanWALMissingFile(t *testing.T) {
	payloads, torn, err := scanWAL(filepath.Join(t.TempDir(), walFileName))
	if err != nil || torn != 0 || payloads != nil {
		t.Fatalf("missing file: %v records, %d torn, %v", payloads, torn, err)
	}
}

func TestWALAppendAndReset(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, FsyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	header := ReplayHeader{Type: "header", M: 2, Sched: "s", Eps: 1, Speed: "1"}
	if err := w.reset(header); err != nil {
		t.Fatal(err)
	}
	if err := w.append(WALReject{Type: "reject", Key: "k", Resp: JobResponse{Decision: DecisionRejected}}); err != nil {
		t.Fatal(err)
	}
	if err := w.commit(); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	payloads, torn, err := scanWAL(filepath.Join(dir, walFileName))
	if err != nil || torn != 0 {
		t.Fatalf("scan: %d torn, %v", torn, err)
	}
	if len(payloads) != 2 {
		t.Fatalf("got %d records, want header + reject", len(payloads))
	}

	// Reopen, reset: only the header survives.
	w, err = openWAL(dir, FsyncOff, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.reset(header); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	payloads, _, err = scanWAL(filepath.Join(dir, walFileName))
	if err != nil || len(payloads) != 1 {
		t.Fatalf("after reset: %d records, %v; want 1", len(payloads), err)
	}
}

func TestWALMaybeSyncHonorsInterval(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, FsyncInterval, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if err := w.append(map[string]string{"type": "header"}); err != nil {
		t.Fatal(err)
	}
	if err := w.commit(); err != nil {
		t.Fatal(err)
	}
	if !w.dirty {
		t.Fatal("commit under interval policy should leave the log dirty")
	}
	if err := w.maybeSync(w.lastSync.Add(10 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if !w.dirty {
		t.Fatal("maybeSync flushed before the interval elapsed")
	}
	if err := w.maybeSync(w.lastSync.Add(60 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if w.dirty {
		t.Fatal("maybeSync did not flush after the interval elapsed")
	}
}

// writeParts writes parts in order.
func writeParts(parts ...[]byte) func(*os.File) error {
	return func(f *os.File) error {
		for _, p := range parts {
			if _, err := f.Write(p); err != nil {
				return err
			}
		}
		return nil
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	if err := writeFileAtomic(dir, "f.json", writeParts([]byte("one"))); err != nil {
		t.Fatal(err)
	}
	if err := writeFileAtomic(dir, "f.json", writeParts([]byte("two"))); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "f.json"))
	if err != nil || string(data) != "two" {
		t.Fatalf("read back %q, %v", data, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "f.json.tmp")); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
}

// TestWriteFileAtomicParts: the parts land concatenated byte for byte, an
// empty part list writes an empty file, a failed write leaves the old file
// as it was and no temp file, and a reader racing replacements of an
// existing file only ever sees one of the two whole contents.
func TestWriteFileAtomicParts(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.json")
	parts := [][]byte{[]byte("12345678 "), nil, []byte(`{"jobs":[`), {}, bytes.Repeat([]byte("x"), 70000), []byte("]}\n")}
	if err := writeFileAtomic(dir, "f.json", writeParts(parts...)); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, bytes.Join(parts, nil)) {
		t.Fatalf("read back %d bytes (%v), want the %d-byte concatenation", len(data), err, len(bytes.Join(parts, nil)))
	}
	if err := writeFileAtomic(dir, "f.json", writeParts()); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || len(data) != 0 {
		t.Fatalf("no parts: read back %q, %v; want an empty file", data, err)
	}
	errWrite := errors.New("write failed")
	if err := writeFileAtomic(dir, "f.json", func(f *os.File) error {
		f.Write([]byte("torn"))
		return errWrite
	}); err != errWrite {
		t.Fatalf("failed write returned %v", err)
	}
	if data, err := os.ReadFile(path); err != nil || len(data) != 0 {
		t.Fatalf("after a failed write: read back %q, %v; want the old empty file", data, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("failed write left its temp file behind")
	}

	old := [][]byte{bytes.Repeat([]byte("a"), 50000), []byte("A")}
	repl := [][]byte{[]byte("b"), bytes.Repeat([]byte("b"), 80000), []byte("B")}
	whole := [][]byte{bytes.Join(old, nil), bytes.Join(repl, nil)}
	if err := writeFileAtomic(dir, "f.json", writeParts(old...)); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	seen := make(chan error, 1)
	go func() {
		var err error
		for err == nil {
			select {
			case <-stop:
				seen <- nil
				return
			default:
			}
			data, rerr := os.ReadFile(path)
			if rerr != nil {
				err = rerr
			} else if !bytes.Equal(data, whole[0]) && !bytes.Equal(data, whole[1]) {
				err = fmt.Errorf("reader saw %d bytes, neither whole content", len(data))
			}
		}
		seen <- err
	}()
	for k := 0; k < 20; k++ {
		if err := writeFileAtomic(dir, "f.json", writeParts([][][]byte{old, repl}[k%2]...)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-seen; err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
}
