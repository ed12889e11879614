package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The schema-compat gate: golden fixtures of v1 scalar specs — the exact
// bytes a pre-v2 daemon wrote to its WAL and checkpoint at -shards=1 with
// the default on-admission commitment — must be reproduced byte-identically
// by the current code path, and a directory seeded with the v1 bytes must
// recover cleanly. The goldens under testdata/schema_compat were generated
// against the PR 9 tree with -update-schema-golden; regenerating them is an
// explicit act of declaring a durable-format change.

var updateSchemaGolden = flag.Bool("update-schema-golden", false,
	"rewrite testdata/schema_compat from the current code path")

const schemaGoldenDir = "testdata/schema_compat"

// schemaCompatSubmissions drives the fixed v1 workload: raw wire bodies (no
// Go-side marshaling, so the fixture pins the parser too), single and batch
// submissions, keyed admits and rejects, and deterministic clock advances.
func schemaCompatSubmissions(t *testing.T, srv *Server, ts *httptest.Server) {
	t.Helper()
	post := func(path, body, key string, wantStatus int) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if key != "" {
			req.Header.Set("Idempotency-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("POST %s %q: status %d, want %d", path, body, resp.StatusCode, wantStatus)
		}
	}

	post("/v1/jobs", `{"w":32,"l":4,"deadline":40,"profit":10}`, "", 200)
	post("/v1/jobs", `{"w":100,"l":2,"deadline":12,"profit":8}`, "fix-reject", 200)
	srv.Advance(3)
	post("/v1/jobs", `{"w":8,"l":2,"deadline":25,"profit":3}`, "fix-admit", 200)
	post("/v1/jobs:batch",
		`[{"w":6,"l":2,"deadline":30,"profit":2},{"w":6,"l":3,"deadline":30,"profit":2,"key":"fix-batch"}]`,
		"", 200)
	srv.Advance(5)
}

// captureSchemaFiles reads the shard-0 durable files under the given prefix
// into the capture map.
func captureSchemaFiles(t *testing.T, dir, prefix string, files map[string][]byte) {
	t.Helper()
	for _, name := range []string{walFileName, checkpointFileName} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		files[prefix+"_"+name] = data
	}
}

func TestSchemaCompatGolden(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{
		M: 4, TickInterval: -1,
		WALDir: dir, Fsync: FsyncAlways, CheckpointInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	files := make(map[string][]byte)
	schemaCompatSubmissions(t, srv, ts)
	// Pre-checkpoint image: the WAL still holds every job frame.
	captureSchemaFiles(t, dir, "pre", files)
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// One more accepted record lands in the post-checkpoint WAL suffix.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
		strings.NewReader(`{"w":4,"l":2,"deadline":30,"profit":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("post-checkpoint submit: status %d", resp.StatusCode)
	}
	captureSchemaFiles(t, dir, "ckpt", files)
	srv.Drain()
	// Sealed image after drain: the final checkpoint holds the whole history.
	captureSchemaFiles(t, dir, "final", files)

	if *updateSchemaGolden {
		if err := os.MkdirAll(schemaGoldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(schemaGoldenDir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("rewrote %d schema-compat goldens", len(files))
		return
	}
	for name, got := range files {
		want, err := os.ReadFile(filepath.Join(schemaGoldenDir, name))
		if err != nil {
			t.Fatalf("missing golden %s (run with -update-schema-golden): %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("durable bytes drifted from the v1 golden %s:\n got: %s\nwant: %s",
				name, got, want)
		}
	}
}

// TestSchemaCompatRecovery seeds a fresh directory with the v1 golden bytes
// and recovers a daemon from it: the v2 code path must replay v1 durable
// state without rewriting history (the re-sealed checkpoint carries the same
// jobs and fingerprint discipline the chaos harness pins elsewhere).
func TestSchemaCompatRecovery(t *testing.T) {
	if *updateSchemaGolden {
		t.Skip("goldens being rewritten")
	}
	dir := t.TempDir()
	for goldenName, fileName := range map[string]string{
		"pre_" + walFileName:        walFileName,
		"pre_" + checkpointFileName: checkpointFileName,
	} {
		data, err := os.ReadFile(filepath.Join(schemaGoldenDir, goldenName))
		if err != nil {
			t.Fatalf("missing golden %s (run with -update-schema-golden): %v", goldenName, err)
		}
		if err := os.WriteFile(filepath.Join(dir, fileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := New(Config{
		M: 4, TickInterval: -1,
		WALDir: dir, Fsync: FsyncAlways, CheckpointInterval: -1,
	})
	if err != nil {
		t.Fatalf("recovering from v1 golden bytes: %v", err)
	}
	rec := srv.Recovery()
	if rec == nil || !rec.Recovered {
		t.Fatalf("v1 golden dir not recovered: %+v", rec)
	}
	// The v1 image holds 4 accepted jobs (IDs 1..4; the keyed reject is a
	// verdict record, not a job).
	if rec.Jobs != 4 {
		t.Fatalf("recovered %d jobs from the v1 image, want 4", rec.Jobs)
	}
	// The keyed verdicts still collapse retries.
	rep := submitTo(srv.placer.route("fix-reject"), JobSpec{W: 100, L: 2, Deadline: 12, Profit: ScalarProfit(8)}, "fix-reject")
	if rep.status != 200 || rep.resp.Decision != DecisionRejected || !rep.resp.Replayed {
		t.Fatalf("v1 keyed reject did not replay: %+v", rep)
	}
	res := srv.Drain()
	if res.Completed+res.Expired != 4 {
		t.Fatalf("drained %d+%d jobs, want 4", res.Completed, res.Expired)
	}
}

// TestSchemaCompatCheckpointStream pins the streamed checkpoint — head, the
// history copied from the previous checkpoint.json and the WAL, tail — to
// the bytes the one-buffer encoder wrote: frameRecord(json.Marshal(Checkpoint))
// with Jobs the history decoded from the WAL records each job was first
// written as. It is checked on a fresh start, after a live checkpoint, at
// the first checkpoint after crash recovery (streamed from the files as
// recovery found them) and after a drain. The traffic mixes
// scalar and explicit-DAG specs, keyed admits and rejects, and records
// whose key or request ID needs escaping, which the WAL and the refill both
// write through encoding/json.
func TestSchemaCompatCheckpointStream(t *testing.T) {
	// hist is every job record the WAL wrote, in acceptance order.
	var hist []WALJob
	takeWAL := func(dir string) {
		t.Helper()
		payloads, _, err := scanWAL(filepath.Join(dir, walFileName))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range payloads {
			var rec WALJob
			if err := json.Unmarshal(p, &rec); err != nil {
				t.Fatal(err)
			}
			if rec.Type == "job" {
				hist = append(hist, rec)
			}
		}
	}
	check := func(stage, dir string) {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, checkpointFileName))
		if err != nil {
			t.Fatal(err)
		}
		payload, err := parseFrame(bytes.TrimSuffix(data, []byte("\n")))
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		var cp Checkpoint
		if err := json.Unmarshal(payload, &cp); err != nil {
			t.Fatal(err)
		}
		if len(cp.Jobs) != len(hist) {
			t.Fatalf("%s: checkpoint holds %d jobs, the WAL wrote %d", stage, len(cp.Jobs), len(hist))
		}
		cp.Jobs = hist
		want, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, frameRecord(want)) {
			t.Errorf("%s: checkpoint.json differs from the marshaled checkpoint\n got: %s\nwant: %s", stage, data, frameRecord(want))
		}
	}
	submit := func(ts *httptest.Server, body, key, reqID string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if key != "" {
			req.Header.Set("Idempotency-Key", key)
		}
		if reqID != "" {
			req.Header.Set("X-Request-Id", reqID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("POST %s: status %d", body, resp.StatusCode)
		}
	}
	clock := int64(0)
	traffic := func(ts *httptest.Server, srv *Server, round string) {
		submit(ts, `{"w":32,"l":4,"deadline":40,"profit":10}`, "", "")
		submit(ts, `{"w":100,"l":2,"deadline":12,"profit":8}`, round+"-reject", "")
		submit(ts, `{"dag":{"work":[2,1,3],"edges":[[0,1],[0,2]]},"deadline":30,"profit":4}`, round+"-dag", "req-"+round)
		clock += 2
		srv.Advance(clock)
		submit(ts, `{"w":6,"l":3,"deadline":30,"profit":2}`, round+`-"quoted"`, "")
		submit(ts, `{"w":4,"l":2,"deadline":30,"profit":1}`, "", "req<"+round+">&")
	}

	dir := t.TempDir()
	srv, err := New(Config{M: 4, TickInterval: -1, WALDir: dir, Fsync: FsyncAlways, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	check("fresh", dir)
	ts := httptest.NewServer(srv.Handler())
	traffic(ts, srv, "a")
	takeWAL(dir)
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check("live", dir)
	traffic(ts, srv, "b")
	crash := snapshotDir(t, dir) // the image a SIGKILL here would leave
	ts.Close()
	srv.Drain()

	takeWAL(crash)
	srv, err = New(Config{M: 4, TickInterval: -1, WALDir: crash, Fsync: FsyncAlways, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rec := srv.Recovery(); rec == nil || rec.WALJobs == 0 || rec.CheckpointJobs == 0 {
		t.Fatalf("recovery did not merge a checkpoint and a WAL suffix: %+v", rec)
	}
	// A start after a crash writes no checkpoint; the first one after it
	// streams the history recovery adopted.
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check("recovered", crash)
	ts = httptest.NewServer(srv.Handler())
	defer ts.Close()
	traffic(ts, srv, "c")
	takeWAL(crash)
	srv.Drain()
	check("drained", crash)
}
