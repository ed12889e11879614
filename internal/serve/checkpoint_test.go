package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A checkpoint streams the history from checkpoint.json and the WAL as they
// are on disk, verifying every frame it reads. When a source does not
// verify, the checkpoint must fail and degrade the daemon — never re-frame
// bytes nothing vouches for — and leave the previous checkpoint.json as it
// was. The two tests below damage each source behind the daemon's back.

// diskFaultServer returns a durable daemon whose checkpoint.json holds
// checkpointed jobs and whose WAL holds acknowledged job records behind
// them.
func diskFaultServer(t *testing.T) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	srv, _ := newDurableServer(t, dir, nil)
	for i := 0; i < 4; i++ {
		submitTo(srv.placer.route(""), JobSpec{W: 8, L: 2, Deadline: 30, Profit: ScalarProfit(2)}, "")
	}
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if rep := submitTo(srv.placer.route(""), JobSpec{W: 6, L: 3, Deadline: 30, Profit: ScalarProfit(1)}, ""); rep.status != http.StatusOK {
			t.Fatalf("submission %d: %+v", i, rep)
		}
	}
	return srv, dir
}

// checkCheckpointRefused: Checkpoint fails, the daemon degrades and answers
// submissions 503, checkpoint.json still holds want, and the failed
// checkpoint's temp file is gone.
func checkCheckpointRefused(t *testing.T, srv *Server, dir string, want []byte) {
	t.Helper()
	err := srv.Checkpoint()
	if err == nil {
		t.Fatal("checkpoint over a damaged source succeeded")
	}
	t.Logf("checkpoint refused: %v", err)
	if srv.Degraded() == "" {
		t.Fatalf("checkpoint failed (%v) but the daemon is not degraded", err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(`{"w":4,"l":2,"deadline":30,"profit":1}`)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("submission after the failed checkpoint: status %d, want 503", rec.Code)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, checkpointFileName)); !bytes.Equal(got, want) {
		t.Fatalf("the failed checkpoint replaced checkpoint.json:\nbefore: %q\nafter:  %q", want, got)
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointFileName+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("the failed checkpoint left its temp file behind (%v)", err)
	}
	srv.Drain()
}

// TestCheckpointRefusesCorruptWAL flips one byte of an acknowledged WAL
// frame.
func TestCheckpointRefusesCorruptWAL(t *testing.T) {
	srv, dir := diskFaultServer(t)
	walPath := filepath.Join(dir, walFileName)
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.LastIndex(wal, []byte(`"release":`)) // inside the last job record
	wal[i+1] ^= 1
	if err := os.WriteFile(walPath, wal, 0o644); err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(filepath.Join(dir, checkpointFileName))
	if err != nil {
		t.Fatal(err)
	}
	checkCheckpointRefused(t, srv, dir, ckpt)
}

// TestCheckpointRefusesTruncatedCheckpoint truncates checkpoint.json.
func TestCheckpointRefusesTruncatedCheckpoint(t *testing.T) {
	srv, dir := diskFaultServer(t)
	path := filepath.Join(dir, checkpointFileName)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-20); err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkCheckpointRefused(t, srv, dir, ckpt)
}

// TestCoveredWALRecordsNormalize: a crash between a checkpoint's rename and
// the WAL reset leaves WAL job records the checkpoint already holds, which
// a stream of the two files would copy twice. The start normalizes such a
// directory with a checkpoint encoded from the decoded records, leaving
// the WAL at its header, so every later checkpoint holds each job once.
func TestCoveredWALRecordsNormalize(t *testing.T) {
	dir := t.TempDir()
	srv, _ := newDurableServer(t, dir, nil)
	for i := 0; i < 3; i++ {
		submitTo(srv.placer.route(""), JobSpec{W: 8, L: 2, Deadline: 30, Profit: ScalarProfit(2)}, "")
	}
	walPath := filepath.Join(dir, walFileName)
	covered, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	img := snapshotDir(t, dir)
	srv.Drain()
	if err := os.WriteFile(filepath.Join(img, walFileName), covered, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, _ := newDurableServer(t, img, nil)
	if rec := srv2.Recovery(); rec == nil || rec.Jobs != 3 || rec.WALJobs != 0 {
		t.Fatalf("recovery info = %+v, want 3 jobs, none from the WAL", rec)
	}
	if payloads, _, err := scanWAL(filepath.Join(img, walFileName)); err != nil || len(payloads) != 1 {
		t.Fatalf("after the start the WAL holds %d records (%v), want its header", len(payloads), err)
	}
	submitTo(srv2.placer.route(""), JobSpec{W: 4, L: 2, Deadline: 30, Profit: ScalarProfit(1)}, "")
	if err := srv2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	srv2.Drain()
	data, err := os.ReadFile(filepath.Join(img, checkpointFileName))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := parseFrame(bytes.TrimSuffix(data, []byte("\n")))
	if err != nil {
		t.Fatal(err)
	}
	var cp Checkpoint
	if err := json.Unmarshal(payload, &cp); err != nil {
		t.Fatal(err)
	}
	for k, wj := range cp.Jobs {
		if wj.Resp.ID != k+1 {
			t.Fatalf("checkpoint holds jobs %+v, want IDs 1..4 once each", cp.Jobs)
		}
	}
	if len(cp.Jobs) != 4 {
		t.Fatalf("checkpoint holds %d jobs, want 4", len(cp.Jobs))
	}
}

// TestCheckpointUnchangedByScrape: a read must not change durable state. Two
// daemons take the same submissions and checkpoint; one is scraped through
// GET /v1/stats and GET /metrics first. Their checkpoint.json bytes must be
// equal, and the scraped /v1/stats still reports the queue-depth gauge.
func TestCheckpointUnchangedByScrape(t *testing.T) {
	checkpoint := func(scrape bool) []byte {
		t.Helper()
		dir := t.TempDir()
		srv, drain := newDurableServer(t, dir, nil)
		defer drain()
		for i := 0; i < 3; i++ {
			if rep := submitTo(srv.shards[0], JobSpec{W: 8, L: 2, Deadline: 30, Profit: ScalarProfit(2)}, ""); rep.status != http.StatusOK {
				t.Fatalf("submission %d: %+v", i, rep)
			}
		}
		if scrape {
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			var st StatsResponse
			if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
				t.Fatalf("stats: code=%d", code)
			}
			if v, ok := st.Telemetry.Gauges["serve.queue_depth"]; !ok || v != 0 {
				t.Fatalf("stats telemetry gauges = %v, want serve.queue_depth 0", st.Telemetry.Gauges)
			}
			scrapeMetrics(t, ts.URL+"/metrics")
		}
		if err := srv.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, checkpointFileName))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	quiet, scraped := checkpoint(false), checkpoint(true)
	if !bytes.Equal(quiet, scraped) {
		t.Fatalf("a scrape changed the checkpoint\nwithout: %s\nwith:    %s", quiet, scraped)
	}
}
