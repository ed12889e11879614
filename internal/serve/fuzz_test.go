package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"dagsched/internal/workload"
)

// Differential fuzz targets for the recovery codec: every fast decoder is
// checked against the encoding/json decoder it stands in for, and the WAL
// scanner against arbitrary bytes. The seed corpora are the real WAL and
// checkpoint records of the schema-compat fixtures, so a plain `go test`
// replays them; `make fuzz` explores from there.

// fixtureFrames returns the payloads of every framed line in the
// schema-compat fixture files whose names match pattern.
func fixtureFrames(f *testing.F, pattern string) [][]byte {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "schema_compat", pattern))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no fixtures match %s (%v)", pattern, err)
	}
	var out [][]byte
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
			payload, err := parseFrame(line)
			if err != nil {
				f.Fatalf("%s: %v", p, err)
			}
			out = append(out, payload)
		}
	}
	return out
}

// FuzzDecodeWALJob: wherever the WAL-record fast path claims a record it
// must agree with json.Unmarshal exactly, and decodeWALJob (fast path plus
// fallback) must accept and reject what json.Unmarshal does, with equal
// values on accept.
func FuzzDecodeWALJob(f *testing.F) {
	for _, p := range fixtureFrames(f, "*_wal.log") {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want WALJob
		wantErr := json.Unmarshal(data, &want)
		var fast WALJob
		if end, ok := parseWALJobFast(data, 0, &fast); ok && skipJSONSpace(data, end) == len(data) {
			if wantErr != nil {
				t.Fatalf("fast path accepted %q; json.Unmarshal: %v", data, wantErr)
			}
			if !reflect.DeepEqual(fast, want) {
				t.Fatalf("fast path decoded %q as %+v; json.Unmarshal: %+v", data, fast, want)
			}
		}
		var got WALJob
		gotErr := decodeWALJob(data, &got)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decodeWALJob(%q) err=%v; json.Unmarshal err=%v", data, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeWALJob(%q) = %+v; json.Unmarshal: %+v", data, got, want)
		}
	})
}

// FuzzDecodeCheckpoint is FuzzDecodeWALJob for checkpoint payloads, plus the
// header-prefix reader: whatever header it reads from a checkpoint that
// decodes is the decoded checkpoint's header.
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, p := range fixtureFrames(f, "*_checkpoint.json") {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want Checkpoint
		wantErr := json.Unmarshal(data, &want)
		var fast Checkpoint
		if parseCheckpointFast(data, &fast) {
			if wantErr != nil {
				t.Fatalf("fast path accepted %q; json.Unmarshal: %v", data, wantErr)
			}
			if !reflect.DeepEqual(fast, want) {
				t.Fatalf("fast path decoded %q as %+v; json.Unmarshal: %+v", data, fast, want)
			}
		}
		var got Checkpoint
		gotErr := decodeCheckpoint(data, &got)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decodeCheckpoint(%q) err=%v; json.Unmarshal err=%v", data, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeCheckpoint(%q) = %+v; json.Unmarshal: %+v", data, got, want)
		}
		if h, ok := checkpointHeaderPrefix(append([]byte("00000000 "), data...)); ok && wantErr == nil && h != want.Header {
			t.Fatalf("checkpointHeaderPrefix(%q) = %+v; decoded header %+v", data, h, want.Header)
		}
	})
}

// FuzzJobDecoderInterned: the interning replay decoder returns the same job
// (or the same failure) as workload.UnmarshalJob for every record. The
// input is a newline-separated list of records; each record that splits is
// also decoded with a shifted id and release, so the cached-shape path runs
// on every input, not only on inputs that repeat a tail.
func FuzzJobDecoderInterned(f *testing.F) {
	var wires [][]byte
	for _, p := range fixtureFrames(f, "*_wal.log") {
		var wj WALJob
		if json.Unmarshal(p, &wj) == nil && wj.Type == "job" {
			wires = append(wires, wj.Job)
		}
	}
	f.Add(bytes.Join(wires, []byte("\n")))
	for _, w := range wires {
		f.Add(w)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var dec jobDecoder
		check := func(raw []byte) {
			got, gotErr := dec.decode(raw)
			want, wantErr := workload.UnmarshalJob(raw)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("decode(%q) err=%v; UnmarshalJob err=%v", raw, gotErr, wantErr)
			}
			if gotErr == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("decode(%q) = %+v; UnmarshalJob: %+v", raw, got, want)
			}
		}
		for _, raw := range bytes.Split(data, []byte("\n")) {
			check(raw)
			if id, rel, tail, ok := splitJobWire(raw); ok && id < 1e17 && rel < 1e17 {
				shifted := []byte(`{"id":`)
				shifted = strconv.AppendInt(shifted, id+1, 10)
				shifted = append(shifted, `,"release":`...)
				shifted = strconv.AppendInt(shifted, rel+1, 10)
				check(append(shifted, tail...))
			}
		}
	})
}

// FuzzScanWAL: scanWAL over arbitrary file contents never panics, returns
// exactly the intact frames before the first bad one, and truncates the
// file there and nowhere else.
func FuzzScanWAL(f *testing.F) {
	for _, pattern := range []string{"*_wal.log", "*_checkpoint.json"} {
		var whole []byte
		for _, p := range fixtureFrames(f, pattern) {
			whole = append(whole, frameRecord(p)...)
		}
		f.Add(whole)
		f.Add(whole[:len(whole)-7]) // torn tail
	}
	f.Add([]byte("00000000 x\nnot a frame\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), walFileName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		payloads, torn, err := scanWAL(path)
		if err != nil {
			t.Fatalf("scanWAL: %v", err)
		}
		off, k := 0, 0
		for {
			nl := bytes.IndexByte(data[off:], '\n')
			if nl < 0 {
				break
			}
			p, err := parseFrame(data[off : off+nl])
			if err != nil {
				break
			}
			if k >= len(payloads) || !bytes.Equal(payloads[k], p) {
				t.Fatalf("frame %d at offset %d: scanWAL returned %d payloads, want %q next", k, off, len(payloads), p)
			}
			k++
			off += nl + 1
		}
		if k != len(payloads) || torn != int64(len(data)-off) {
			t.Fatalf("scanWAL kept %d frames and cut %d bytes; the first bad frame is frame %d at offset %d of %d",
				len(payloads), torn, k, off, len(data))
		}
		left, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(left, data[:off]) {
			t.Fatalf("file after scanWAL holds %d bytes, want the %d-byte intact prefix", len(left), off)
		}
	})
}
