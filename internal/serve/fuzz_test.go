package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dagsched/internal/fastjson"
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

// FuzzDecodeWALJob: recovery's decode of a WAL record — the record scan,
// which only delimits the job member, plus the job decode, which validates
// it — accepts and refuses what encoding/json does (json.Unmarshal of the
// whole record, then workload.UnmarshalJob of its job), with the same error
// text and the same recovered state, whether the record is replayed or
// covered by the checkpoint, and whatever its type. The record scan on its
// own decodes every record json.Unmarshal accepts to the same value, and
// whatever bytes it adopts for the encoded history are the WAL encoder's
// own for the decoded record.
func FuzzDecodeWALJob(f *testing.F) {
	for _, p := range fixtureFrames(f, "*_wal.log") {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sameWALRecord(t, data)
		payloads := [][]byte{data}
		for _, base := range []int{-1, math.MaxInt} {
			got, err := recoverWAL(payloads, base)
			want, wantErr := refWAL(payloads, base)
			sameRecovery(t, fmt.Sprintf("%q (base %d)", data, base), got, err, want, wantErr, true)
		}
	})
}

// FuzzDecodeCheckpoint is FuzzDecodeWALJob for checkpoint payloads, plus the
// header-prefix reader: whatever header it reads from a checkpoint that
// decodes is the decoded checkpoint's header. Both decodes refuse the same
// checkpoints; where recovery refuses one as malformed JSON it names the
// same error, but with several faults it may meet another one first (a job
// that does not decode before a later record that does not parse).
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, p := range fixtureFrames(f, "*_checkpoint.json") {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sameCheckpointRecord(t, data)
		var whole, fast Checkpoint
		wholeErr := json.Unmarshal(data, &whole)
		hdr := whole.Header
		if _, err := decodeCheckpoint(data, &fast); wholeErr != nil && err == nil {
			hdr = fast.Header
		}
		got, err := recoverCheckpoint(data, hdr)
		want, wantErr := refCheckpoint(data, hdr)
		malformed := err != nil && strings.HasPrefix(err.Error(), "serve: checkpoint: ")
		sameRecovery(t, fmt.Sprintf("%q", data), got, err, want, wantErr, malformed)
		if h, ok := checkpointHeaderPrefix(append([]byte("00000000 "), data...)); ok && wholeErr == nil && h != whole.Header {
			t.Fatalf("checkpointHeaderPrefix(%q) = %+v; decoded header %+v", data, h, whole.Header)
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
			if id, rel, tail, ok := fastjson.SplitJobWire(raw); ok && id < 1e17 && rel < 1e17 {
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

// The submit-path targets: the request parser, the batch envelope splitter
// and the verdict encoder against the encoding/json code they stand in for.
// Their seeds are the schema-compat workload's request bodies and the
// verdicts its WAL fixtures record.

// schemaCompatSpecs are the request bodies schemaCompatSubmissions sends.
var schemaCompatSpecs = []string{
	`{"w":32,"l":4,"deadline":40,"profit":10}`,
	`{"w":100,"l":2,"deadline":12,"profit":8}`,
	`{"w":8,"l":2,"deadline":25,"profit":3}`,
	`{"w":6,"l":2,"deadline":30,"profit":2}`,
	`{"w":6,"l":3,"deadline":30,"profit":2,"key":"fix-batch"}`,
}

// FuzzParseJobSpecFast: wherever the scalar-spec parser claims a body, the
// decoder the handlers fall back to — json.Decoder with unknown fields
// disallowed, one value read — accepts it with the same spec and key.
func FuzzParseJobSpecFast(f *testing.F) {
	for _, s := range schemaCompatSpecs {
		f.Add([]byte(s), false)
		f.Add([]byte(s), true)
	}
	f.Add([]byte(` {"profit":-0.125,"w":1,"w":2} trailing`), false)
	f.Fuzz(func(t *testing.T, data []byte, allowKey bool) {
		spec, key, ok := parseJobSpecFast(data, allowKey)
		if !ok {
			return
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var want BatchItem
		var err error
		if allowKey {
			err = dec.Decode(&want)
		} else {
			err = dec.Decode(&want.JobSpec)
		}
		if err != nil {
			t.Fatalf("parseJobSpecFast(%q, %v) accepted; encoding/json: %v", data, allowKey, err)
		}
		if !reflect.DeepEqual(spec, want.JobSpec) || string(key) != want.Key {
			t.Fatalf("parseJobSpecFast(%q, %v) = %+v, key %q; encoding/json: %+v, key %q",
				data, allowKey, spec, key, want.JobSpec, want.Key)
		}
	})
}

// FuzzSplitJSONArray: every array json.Unmarshal accepts splits into the
// elements it decodes, byte for byte, and a body the splitter refuses is
// one json.Unmarshal refuses too (or null, which no handler takes as an
// array).
func FuzzSplitJSONArray(f *testing.F) {
	f.Add([]byte("[" + strings.Join(schemaCompatSpecs, ",") + "]"))
	f.Add([]byte(` [ {"w":1,"l":1,"key":"a]\"b"} , [1,{"x":[]}] ,"s",-1.5e3,true,null ] `))
	f.Add([]byte(`[]`))
	f.Add([]byte(`[1,]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		elems, err := splitJSONArray(data)
		var want []json.RawMessage
		wantErr := json.Unmarshal(data, &want)
		if err != nil {
			if wantErr == nil && want != nil {
				t.Fatalf("splitJSONArray(%q): %v; json.Unmarshal accepts %d elements", data, err, len(want))
			}
			return
		}
		if wantErr != nil || want == nil {
			return // element-level garbage: each element fails on its own
		}
		if len(elems) != len(want) {
			t.Fatalf("splitJSONArray(%q) = %d elements; json.Unmarshal %d", data, len(elems), len(want))
		}
		for k := range want {
			if !bytes.Equal(elems[k], want[k]) {
				t.Fatalf("splitJSONArray(%q) element %d = %q; json.Unmarshal %q", data, k, elems[k], want[k])
			}
		}
	})
}

// FuzzAppendJobResponse: the verdict encoder writes json.Marshal's bytes
// whenever it claims a response, and declines only strings encoding/json
// would escape and non-finite plan numbers.
func FuzzAppendJobResponse(f *testing.F) {
	for _, p := range fixtureFrames(f, "*_wal.log") {
		var wj WALJob
		if json.Unmarshal(p, &wj) != nil || wj.Type == "header" {
			continue
		}
		r, plan := wj.Resp, PlanInfo{}
		if r.Plan != nil {
			plan = *r.Plan
		}
		f.Add(r.ID, r.Release, string(r.Decision), r.Reason, r.Commitment, r.Replayed, r.Plan != nil, plan.Alloc, plan.X, plan.Density, plan.Good)
	}
	f.Fuzz(func(t *testing.T, id int, release int64, decision, reason, commitment string, replayed, hasPlan bool,
		alloc int, x, density float64, good bool) {
		r := JobResponse{ID: id, Release: release, Decision: DecisionString(decision), Reason: reason, Commitment: commitment, Replayed: replayed}
		if hasPlan {
			r.Plan = &PlanInfo{Alloc: alloc, X: x, Density: density, Good: good}
		}
		got, ok := appendJobResponse(nil, &r)
		want, err := json.Marshal(&r)
		if ok {
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("appendJobResponse(%+v) = %s; json.Marshal %s, %v", r, got, want, err)
			}
			return
		}
		finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		if fastjson.Plain(decision) && fastjson.Plain(reason) && fastjson.Plain(commitment) &&
			(!hasPlan || finite(x) && finite(density)) {
			t.Fatalf("appendJobResponse(%+v) declined a plain response", r)
		}
	})
}

// FuzzSingleMatchesBatchOfOne: a single submission is a batch of one. For a
// body b that splitJSONArray reads back from [b] as exactly one element with
// no "key" field, POST /v1/jobs b and POST /v1/jobs:batch [b] on two
// identically fed daemons answer the same status and reason, and on 200 the
// same verdict bytes.
func FuzzSingleMatchesBatchOfOne(f *testing.F) {
	for _, tc := range submitErrorCases {
		f.Add([]byte(tc.body))
	}
	for _, s := range schemaCompatSpecs {
		f.Add([]byte(s))
	}
	newDaemon := func() (*Server, http.Handler) {
		srv, err := New(Config{M: 4, TickInterval: -1})
		if err != nil {
			f.Fatal(err)
		}
		f.Cleanup(func() { srv.Drain() })
		return srv, srv.Handler()
	}
	singleSrv, single := newDaemon()
	batchSrv, batch := newDaemon()
	post := func(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	var tick int64
	f.Fuzz(func(t *testing.T, b []byte) {
		arr := append(append([]byte{'['}, b...), ']')
		if elems, err := splitJSONArray(arr); err != nil || len(elems) != 1 || len(arr) > DefaultMaxBodyBytes {
			return
		}
		// encoding/json matches field names case-insensitively (and folds
		// the Kelvin sign), so ask it whether the item is keyed.
		var probe struct {
			Key *json.RawMessage `json:"key"`
		}
		_ = json.NewDecoder(bytes.NewReader(b)).Decode(&probe)
		if probe.Key != nil {
			return
		}
		s := post(single, "/v1/jobs", b)
		bt := post(batch, "/v1/jobs:batch", arr)
		if bt.Code != http.StatusOK {
			t.Fatalf("batch of one %q: status %d %s", arr, bt.Code, bt.Body)
		}
		var br struct{ Items []rawBatchItem }
		if err := json.Unmarshal(bt.Body.Bytes(), &br); err != nil || len(br.Items) != 1 {
			t.Fatalf("batch of one %q: body %s (%v)", arr, bt.Body, err)
		}
		it := br.Items[0]
		if s.Code != it.Status {
			t.Fatalf("%q: single %d %s; batch item %d %+v", b, s.Code, s.Body, it.Status, it)
		}
		if s.Code == http.StatusOK {
			if got := strings.TrimSuffix(s.Body.String(), "\n"); got != string(it.Response) {
				t.Fatalf("%q: single verdict %s; batch verdict %s", b, got, it.Response)
			}
		} else {
			var er errorResponse
			if err := json.Unmarshal(s.Body.Bytes(), &er); err != nil || er.Reason != it.Reason {
				t.Fatalf("%q: single %d %s; batch item reason %q", b, s.Code, s.Body, it.Reason)
			}
		}
		tick++
		singleSrv.Advance(tick)
		batchSrv.Advance(tick)
	})
}
