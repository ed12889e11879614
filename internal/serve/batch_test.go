package serve

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// rawBatchItem mirrors BatchItemResult but keeps the verdict's raw bytes so
// tests can compare them against the sequential endpoint byte-for-byte.
type rawBatchItem struct {
	Status   int             `json:"status"`
	Response json.RawMessage `json:"response"`
	Error    string          `json:"error"`
	Reason   string          `json:"reason"`
}

func postBatch(t *testing.T, ts *httptest.Server, body string) (int, []rawBatchItem, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs:batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		var er errorResponse
		_ = json.Unmarshal(raw, &er)
		return resp.StatusCode, nil, er.Error
	}
	var br struct {
		Items []rawBatchItem `json:"items"`
	}
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatalf("batch body %q: %v", raw, err)
	}
	return resp.StatusCode, br.Items, ""
}

// TestBatchPartialFailure: a malformed spec rejects only its own slot; the
// valid items around it are admitted with consecutive IDs.
func TestBatchPartialFailure(t *testing.T) {
	_, ts := newTestServer(t, Config{M: 4})
	code, items, _ := postBatch(t, ts, `[
		{"w":32,"l":4,"deadline":40,"profit":10},
		{"w":"not a number","l":4},
		{"w":32,"l":4,"deadline":40,"profit":10},
		{"bogus":1},
		{"w":100,"l":2,"deadline":12,"profit":8}
	]`)
	if code != 200 {
		t.Fatalf("batch: code=%d", code)
	}
	if len(items) != 5 {
		t.Fatalf("got %d items, want 5", len(items))
	}
	wantStatus := []int{200, 400, 200, 400, 200}
	for i, want := range wantStatus {
		if items[i].Status != want {
			t.Errorf("item %d: status=%d error=%q, want %d", i, items[i].Status, items[i].Error, want)
		}
	}
	var first, third, fifth JobResponse
	if err := json.Unmarshal(items[0].Response, &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(items[2].Response, &third); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(items[4].Response, &fifth); err != nil {
		t.Fatal(err)
	}
	if first.Decision != DecisionAdmitted || third.Decision != DecisionAdmitted {
		t.Fatalf("valid items not admitted: %+v %+v", first, third)
	}
	if first.ID != 1 || third.ID != 2 {
		t.Fatalf("IDs = %d, %d; want 1, 2 (bad items must not burn IDs)", first.ID, third.ID)
	}
	// The infeasible (but well-formed) spec gets a 200 verdict: rejected.
	if fifth.Decision != DecisionRejected || fifth.ID != 0 {
		t.Fatalf("infeasible item: %+v, want rejected with no ID", fifth)
	}
	if items[1].Error == "" || items[3].Error == "" {
		t.Fatalf("malformed items carry no error: %+v %+v", items[1], items[3])
	}
}

// TestBatchBackpressurePerItem: a shard with a full queue 429s the items routed to
// it inside a 200 envelope — batch backpressure is per item, not per request.
func TestBatchBackpressurePerItem(t *testing.T) {
	srv, ts := newTestServer(t, Config{M: 1, QueueDepth: 1, MaxBatchItems: 8})
	defer holdEngine(srv.shards[0])() // the shard is busy and its queue full

	code, items, _ := postBatch(t, ts, `[{"w":4,"l":2,"deadline":9,"profit":1},{"w":4,"l":2,"deadline":9,"profit":1}]`)
	if code != 200 {
		t.Fatalf("batch: code=%d, want 200 with per-item statuses", code)
	}
	for i, it := range items {
		if it.Status != 429 || it.Error != "submission queue full" {
			t.Errorf("item %d: %+v, want per-item 429 submission queue full", i, it)
		}
	}
}

// TestBatchEnvelopeErrors: the envelope-level error table — bad JSON shape,
// empty batch, too many items, oversized body — plus a per-job body limit
// whose batch multiple overflows int64: the batch limit saturates, so a
// one-item batch is answered like the single post.
func TestBatchEnvelopeErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{M: 2, MaxBatchItems: 4, MaxBodyBytes: 256})
	_, huge := newTestServer(t, Config{M: 2, MaxBodyBytes: math.MaxInt64 / 512})
	cases := []struct {
		name, body string
		wantCode   int
		ts         *httptest.Server // nil: the 256-byte, 4-item daemon
	}{
		{"not an array", `{"w":1}`, 400, nil},
		{"empty batch", `[]`, 400, nil},
		{"empty batch spaced", `  [  ]  `, 400, nil},
		{"unterminated", `[{"w":1}`, 400, nil},
		{"too many items", `[{},{},{},{},{}]`, 413, nil},
		{"oversized body", "[" + strings.Repeat(`{"w":1,"l":1},`, 100) + `{"w":1,"l":1}]`, 413, nil},
		{"saturated body limit", `[{"w":4,"l":2,"deadline":9,"profit":1}]`, 200, huge},
	}
	for _, tc := range cases {
		code, _, msg := postBatch(t, cmp.Or(tc.ts, ts), tc.body)
		if code != tc.wantCode {
			t.Errorf("%s: code=%d (%s), want %d", tc.name, code, msg, tc.wantCode)
		}
	}
}

// TestBatchDuplicateKeys: two items with the same idempotency key inside one
// batch route to the same shard in order, so the second collapses onto the
// first's stored verdict.
func TestBatchDuplicateKeys(t *testing.T) {
	_, ts := newTestServer(t, Config{M: 4, Shards: 2})
	code, items, _ := postBatch(t, ts, `[
		{"w":16,"l":2,"deadline":40,"profit":3,"key":"dup"},
		{"w":16,"l":2,"deadline":40,"profit":3,"key":"dup"}
	]`)
	if code != 200 || len(items) != 2 {
		t.Fatalf("batch: code=%d items=%d", code, len(items))
	}
	var a, b JobResponse
	if err := json.Unmarshal(items[0].Response, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(items[1].Response, &b); err != nil {
		t.Fatal(err)
	}
	if a.Replayed {
		t.Fatalf("first keyed item marked replayed: %+v", a)
	}
	if !b.Replayed {
		t.Fatalf("duplicate key not collapsed: %+v", b)
	}
	if a.ID != b.ID || a.Decision != b.Decision {
		t.Fatalf("duplicate verdicts diverge: %+v vs %+v", a, b)
	}

	// A later retry through the single-job endpoint sees the same verdict.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(`{"w":16,"l":2,"deadline":40,"profit":3}`))
	req.Header.Set("Idempotency-Key", "dup")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var c JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		t.Fatal(err)
	}
	if !c.Replayed || c.ID != a.ID {
		t.Fatalf("cross-endpoint retry: %+v, want replay of id %d", c, a.ID)
	}
}

// TestBatchMatchesSequentialBytes: the same specs produce byte-identical
// verdicts, and byte-identical WALs, whether they arrive in one batch or as
// sequential single posts.
func TestBatchMatchesSequentialBytes(t *testing.T) {
	specs := []string{
		`{"w":32,"l":4,"deadline":40,"profit":10}`,
		`{"w":100,"l":2,"deadline":12,"profit":8}`,
		`{"w":16,"l":2,"deadline":40,"profit":3}`,
		`{"w":4,"l":4,"deadline":30,"profit":1.5}`,
		`{"dag":{"work":[2,2],"edges":[[0,1]]},"deadline":25,"profit":2}`,
	}

	// Sequential server: one post per spec, keep the raw bodies.
	seqDir, batchDir := t.TempDir(), t.TempDir()
	_, seqTS := newTestServer(t, Config{M: 4, WALDir: seqDir, Fsync: FsyncOff})
	sequential := make([]string, len(specs))
	for i, spec := range specs {
		resp, err := http.Post(seqTS.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("sequential %d: code=%d err=%v", i, resp.StatusCode, err)
		}
		sequential[i] = strings.TrimSuffix(string(raw), "\n")
	}

	// Batch server: identical config, all specs in one request.
	_, batchTS := newTestServer(t, Config{M: 4, WALDir: batchDir, Fsync: FsyncOff})
	code, items, _ := postBatch(t, batchTS, "["+strings.Join(specs, ",")+"]")
	if code != 200 || len(items) != len(specs) {
		t.Fatalf("batch: code=%d items=%d", code, len(items))
	}
	for i := range specs {
		if items[i].Status != 200 {
			t.Errorf("item %d: status=%d error=%q", i, items[i].Status, items[i].Error)
			continue
		}
		if got := string(items[i].Response); got != sequential[i] {
			t.Errorf("item %d verdict diverges\n batch: %s\n  sequential: %s", i, got, sequential[i])
		}
	}
	// Read before the drain, whose checkpoint folds the logs away: the
	// header and the four accepted jobs (the rejected one is unkeyed).
	seqWAL, batchWAL := walBytes(t, seqDir), walBytes(t, batchDir)
	if n := strings.Count(seqWAL, "\n"); n != 5 {
		t.Errorf("sequential WAL holds %d records, want 5", n)
	}
	if seqWAL != batchWAL {
		t.Errorf("WALs diverge\n batch: %s\n  sequential: %s", batchWAL, seqWAL)
	}
}

// TestBatchWALGroupContiguous: a batch's WAL records land contiguously in the
// shard's log even with other submissions racing, because the whole group
// is committed under one hold of the shard's lock.
func TestBatchWALGroupContiguous(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{M: 4, WALDir: dir, Fsync: FsyncAlways})

	const batchN = 6
	var batch strings.Builder
	batch.WriteByte('[')
	for i := 0; i < batchN; i++ {
		if i > 0 {
			batch.WriteByte(',')
		}
		fmt.Fprintf(&batch, `{"w":16,"l":2,"deadline":40,"profit":3,"key":"grp-%d"}`, i)
	}
	batch.WriteByte(']')

	// Race the batch against single submissions from another client.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
				strings.NewReader(`{"w":8,"l":2,"deadline":40,"profit":1}`))
			if err == nil {
				resp.Body.Close()
			}
		}
	}()
	code, items, _ := postBatch(t, ts, batch.String())
	<-done
	if code != 200 {
		t.Fatalf("batch: code=%d", code)
	}
	for i, it := range items {
		if it.Status != 200 {
			t.Fatalf("item %d: %+v", i, it)
		}
	}
	// Scan before draining: the drain's final checkpoint folds the log away.
	// Replies received imply the records are written (the shard appends
	// before its lock lets the verdict out).
	payloads, _, err := scanWAL(dir + "/wal.log")
	if err != nil {
		t.Fatal(err)
	}
	first, last, seen := -1, -1, 0
	for i, p := range payloads {
		var rec struct {
			Key string `json:"key"`
		}
		_ = json.Unmarshal(p, &rec)
		if strings.HasPrefix(rec.Key, "grp-") {
			if first < 0 {
				first = i
			}
			last = i
			seen++
		}
	}
	if seen != batchN {
		t.Fatalf("found %d batch records, want %d", seen, batchN)
	}
	if last-first+1 != batchN {
		t.Fatalf("batch records interleaved: span [%d,%d] holds %d records", first, last, seen)
	}
}

// TestWALGroupCommitWindow: under FsyncAlways appends only buffer their
// records, and commit writes and flushes the whole group at once.
func TestWALGroupCommitWindow(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, FsyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := dir + "/" + walFileName
	size := func() int64 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	for _, n := range []int{3, 1} {
		before := size()
		for i := 0; i < n; i++ {
			if err := w.append(map[string]int{"i": i}); err != nil {
				t.Fatal(err)
			}
		}
		if size() != before {
			t.Fatal("appended records reached the file before commit")
		}
		if err := w.commit(); err != nil {
			t.Fatal(err)
		}
		if w.dirty || len(w.wbuf) != 0 {
			t.Fatal("commit must write and flush the group")
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	payloads, torn, err := scanWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 || len(payloads) != 4 {
		t.Fatalf("scan: %d records, %d torn bytes; want 4, 0", len(payloads), torn)
	}
}
