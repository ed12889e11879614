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

	"dagsched/internal/sim"
)

// newDurableServer builds a deterministic-clock daemon over dir. Tests drive
// time with Advance and checkpoints with Checkpoint.
func newDurableServer(t *testing.T, dir string, mutate func(*Config)) (*Server, func()) {
	t.Helper()
	cfg := Config{
		M: 4, TickInterval: -1,
		WALDir: dir, Fsync: FsyncAlways, CheckpointInterval: -1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, func() { srv.Drain() }
}

// submitTo commits a spec on sh as a group of one through the locked entry
// the HTTP path takes, without HTTP: sh is srv.placer.route(key) for the
// placer's choice, or any shard to pin per-shard effects.
func submitTo(sh *shard, spec JobSpec, key string) submitReply {
	items, group := [1]batchItem{{spec: spec, key: key}}, [1]int{0}
	if !sh.submit(items[:], group[:], nil, "serve.submit_engine_us") {
		return submitReply{status: http.StatusTooManyRequests, err: "submission queue full", reason: reasonQueueFull}
	}
	return items[0].rep
}

// snapshotDir copies the WAL directory (including per-shard subdirectories)
// as it is right now — the crash image a SIGKILL would leave — so the
// original server can keep running.
func snapshotDir(t *testing.T, dir string) string {
	t.Helper()
	snap := t.TempDir()
	copyTree(t, dir, snap)
	return snap
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			sub := filepath.Join(dst, e.Name())
			if err := os.MkdirAll(sub, 0o755); err != nil {
				t.Fatal(err)
			}
			copyTree(t, filepath.Join(src, e.Name()), sub)
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	srv, drain := newDurableServer(t, dir, nil)

	specs := []JobSpec{
		{W: 32, L: 4, Deadline: 40, Profit: ScalarProfit(10)}, // admitted
		{W: 100, L: 2, Deadline: 12, Profit: ScalarProfit(8)}, // rejected (not logged as a job)
		{W: 8, L: 2, Deadline: 25, Profit: ScalarProfit(3)},   // admitted
	}
	var acked []submitReply
	for i, spec := range specs {
		rep := submitTo(srv.placer.route(""), spec, "")
		if rep.status != 200 {
			t.Fatalf("submit %d: %+v", i, rep)
		}
		acked = append(acked, rep)
		srv.Advance(int64(2 * (i + 1)))
	}
	if acked[0].resp.Commitment != CommitmentOnAdmission {
		t.Fatalf("admitted commitment = %q, want %q", acked[0].resp.Commitment, CommitmentOnAdmission)
	}
	if acked[1].resp.Commitment != CommitmentNone || acked[1].resp.Decision != DecisionRejected {
		t.Fatalf("rejected response = %+v", acked[1].resp)
	}

	// "Crash": snapshot the durable directory mid-session, then recover a new
	// daemon from the snapshot.
	snap := snapshotDir(t, dir)
	srv2, drain2 := newDurableServer(t, snap, nil)
	defer drain2()

	rec := srv2.Recovery()
	if rec == nil || !rec.Recovered || rec.Jobs != 2 {
		t.Fatalf("recovery info = %+v, want 2 recovered jobs", rec)
	}
	if !srv2.Ready() {
		t.Fatal("recovered server not ready")
	}
	// Both committed jobs are live again with their stats intact.
	for _, id := range []int{1, 2} {
		if _, found := srv2.placer.shardFor(id).lookup(id); !found {
			t.Fatalf("job %d lost in recovery", id)
		}
	}
	// The next ID continues the pre-crash sequence.
	rep := submitTo(srv2.placer.route(""), JobSpec{W: 4, L: 2, Deadline: 30, Profit: ScalarProfit(1)}, "")
	if rep.status != 200 || rep.resp.ID != 3 {
		t.Fatalf("post-recovery submit: %+v, want ID 3", rep)
	}

	// The recovered daemon checkpointed the extended history at start-up, so
	// its drain must match the offline replay of its own directory.
	drain()
	res2 := srv2.Drain()
	assertReplayIdentical(t, snap, res2)
}

func TestRecoveryAfterCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	srv, drain := newDurableServer(t, dir, nil)
	defer drain()

	for i := 0; i < 5; i++ {
		if rep := submitTo(srv.placer.route(""), JobSpec{W: 8, L: 2, Deadline: 30, Profit: ScalarProfit(2)}, ""); rep.status != 200 {
			t.Fatalf("submit %d: %+v", i, rep)
		}
	}
	srv.Advance(4)
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The WAL now holds only its header.
	payloads, _, err := scanWAL(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 1 {
		t.Fatalf("WAL holds %d records after checkpoint, want 1 (header)", len(payloads))
	}
	// Two more jobs land in the suffix.
	submitTo(srv.placer.route(""), JobSpec{W: 6, L: 2, Deadline: 30, Profit: ScalarProfit(2)}, "")
	submitTo(srv.placer.route(""), JobSpec{W: 6, L: 3, Deadline: 30, Profit: ScalarProfit(2)}, "")

	snap := snapshotDir(t, dir)
	srv2, drain2 := newDurableServer(t, snap, nil)
	defer drain2()
	rec := srv2.Recovery()
	if rec == nil || rec.CheckpointJobs != 5 || rec.WALJobs != 2 || rec.Jobs != 7 {
		t.Fatalf("recovery info = %+v, want 5 checkpoint + 2 WAL jobs", rec)
	}
}

func TestRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	srv, drain := newDurableServer(t, dir, nil)
	defer drain()
	submitTo(srv.placer.route(""), JobSpec{W: 8, L: 2, Deadline: 30, Profit: ScalarProfit(2)}, "")
	submitTo(srv.placer.route(""), JobSpec{W: 12, L: 3, Deadline: 30, Profit: ScalarProfit(4)}, "")

	snap := snapshotDir(t, dir)
	// Tear the last record mid-line, as a crash mid-append would.
	path := filepath.Join(snap, walFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, drain2 := newDurableServer(t, snap, nil)
	defer drain2()
	rec := srv2.Recovery()
	if rec == nil || rec.Jobs != 1 || rec.TornBytes == 0 {
		t.Fatalf("recovery info = %+v, want 1 job and a torn tail", rec)
	}
}

// TestReplayDirErrors: the offline replayer refuses a directory with no
// durable state, a WAL that does not start with its header, and a WAL
// record that is not JSON, naming what it could not read.
func TestReplayDirErrors(t *testing.T) {
	walDir := func(payloads ...string) string {
		dir := t.TempDir()
		var data []byte
		for _, p := range payloads {
			data = append(data, frameRecord([]byte(p))...)
		}
		if err := os.WriteFile(filepath.Join(dir, walFileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	const header = `{"type":"header","m":2,"sched":"s","eps":1,"speed":"1"}`
	cases := []struct{ name, dir, want string }{
		{"empty directory", t.TempDir(), "holds no durable state"},
		{"job before header", walDir(`{"type":"job","resp":{"id":1},"job":{}}`, header), `wal starts with type "job", want header`},
		{"header not JSON", walDir(`not json`), "invalid character"},
		{"record not JSON", walDir(header, `not a record`), "serve: wal record 2: "},
	}
	for _, tc := range cases {
		if _, err := ReplayDir(tc.dir); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestRecoveryRefusesTamperedVerdict(t *testing.T) {
	dir := t.TempDir()
	srv, drain := newDurableServer(t, dir, nil)
	submitTo(srv.placer.route(""), JobSpec{W: 32, L: 4, Deadline: 40, Profit: ScalarProfit(10)}, "")
	snap := snapshotDir(t, dir)
	drain()

	// Rewrite the job record's acknowledged decision to one replay cannot
	// re-derive. The frame is re-checksummed, so only the verdict check can
	// catch it.
	path := filepath.Join(snap, walFileName)
	payloads, _, err := scanWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, p := range payloads {
		if bytes.Contains(p, []byte(`"type":"job"`)) {
			p = bytes.Replace(p, []byte(`"decision":"admitted"`), []byte(`"decision":"rejected"`), 1)
		}
		out.Write(frameRecord(p))
	}
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = New(Config{M: 4, TickInterval: -1, WALDir: snap, CheckpointInterval: -1})
	if err == nil || !strings.Contains(err.Error(), "commitment violated") {
		t.Fatalf("tampered verdict: err = %v, want commitment violation", err)
	}
}

func TestRecoveryRefusesConfigDrift(t *testing.T) {
	dir := t.TempDir()
	srv, drain := newDurableServer(t, dir, nil)
	submitTo(srv.placer.route(""), JobSpec{W: 8, L: 2, Deadline: 30, Profit: ScalarProfit(2)}, "")
	snap := snapshotDir(t, dir)
	drain()

	// Recovering under a different machine size must refuse: the logged
	// verdicts were decided for m=4.
	_, err := New(Config{M: 2, TickInterval: -1, WALDir: snap, CheckpointInterval: -1})
	if err == nil || !strings.Contains(err.Error(), "refusing to recover") {
		t.Fatalf("config drift: err = %v, want refusal", err)
	}
}

func TestIdempotentRetry(t *testing.T) {
	dir := t.TempDir()
	srv, drain := newDurableServer(t, dir, nil)

	spec := JobSpec{W: 32, L: 4, Deadline: 40, Profit: ScalarProfit(10)}
	first := submitTo(srv.placer.route("req-1"), spec, "req-1")
	if first.status != 200 || first.resp.ID != 1 || first.resp.Replayed {
		t.Fatalf("first submit: %+v", first)
	}
	// A retry with the same key collapses: same ID, same verdict, replayed.
	retry := submitTo(srv.placer.route("req-1"), spec, "req-1")
	if retry.status != 200 || retry.resp.ID != 1 || !retry.resp.Replayed {
		t.Fatalf("retry: %+v", retry)
	}
	if retry.resp.Decision != first.resp.Decision {
		t.Fatalf("retry decision %q != original %q", retry.resp.Decision, first.resp.Decision)
	}
	// A keyed reject is durable too.
	rej := submitTo(srv.placer.route("req-2"), JobSpec{W: 100, L: 2, Deadline: 12, Profit: ScalarProfit(8)}, "req-2")
	if rej.status != 200 || rej.resp.Decision != DecisionRejected {
		t.Fatalf("reject: %+v", rej)
	}

	// Crash and recover: both keys still collapse onto the stored verdicts.
	snap := snapshotDir(t, dir)
	drain()
	srv2, drain2 := newDurableServer(t, snap, nil)
	defer drain2()

	retry = submitTo(srv2.placer.route("req-1"), spec, "req-1")
	if retry.status != 200 || retry.resp.ID != 1 || !retry.resp.Replayed {
		t.Fatalf("post-crash retry: %+v", retry)
	}
	rejRetry := submitTo(srv2.placer.route("req-2"), JobSpec{W: 100, L: 2, Deadline: 12, Profit: ScalarProfit(8)}, "req-2")
	if rejRetry.status != 200 || rejRetry.resp.Decision != DecisionRejected || !rejRetry.resp.Replayed {
		t.Fatalf("post-crash reject retry: %+v — rejected job must stay rejected", rejRetry)
	}
	if rejRetry.resp.ID != 0 {
		t.Fatalf("rejected job resurrected with ID %d", rejRetry.resp.ID)
	}
}

func TestCheckpointAPIWithoutWAL(t *testing.T) {
	srv, err := New(Config{M: 1, TickInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	if err := srv.Checkpoint(); err == nil {
		t.Fatal("Checkpoint without a WAL directory must error")
	}
}

func TestRecoveryFreshDirIsNotRecovered(t *testing.T) {
	srv, drain := newDurableServer(t, t.TempDir(), nil)
	defer drain()
	if srv.Recovery() != nil {
		t.Fatalf("fresh dir reported recovery: %+v", srv.Recovery())
	}
	if !srv.Ready() {
		t.Fatal("fresh durable server not ready")
	}
}

func TestRecoveryOfDrainedDirectory(t *testing.T) {
	dir := t.TempDir()
	srv, _ := newDurableServer(t, dir, nil)
	submitTo(srv.placer.route(""), JobSpec{W: 8, L: 2, Deadline: 30, Profit: ScalarProfit(2)}, "")
	res := srv.Drain()

	// A restart over the drained directory recovers the completed history.
	srv2, drain2 := newDurableServer(t, dir, nil)
	defer drain2()
	rec := srv2.Recovery()
	if rec == nil || rec.Jobs != 1 {
		t.Fatalf("recovery info = %+v", rec)
	}
	res2 := srv2.Drain()
	aj, _ := json.Marshal(res)
	bj, _ := json.Marshal(res2)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("drained-twice results diverge:\nfirst:  %s\nsecond: %s", aj, bj)
	}
}

func TestStatsExposeWALAndRecovery(t *testing.T) {
	dir := t.TempDir()
	srv, drain := newDurableServer(t, dir, nil)
	submitTo(srv.placer.route("k1"), JobSpec{W: 8, L: 2, Deadline: 30, Profit: ScalarProfit(2)}, "k1")
	snap := snapshotDir(t, dir)
	drain()

	srv2, drain2 := newDurableServer(t, snap, nil)
	defer drain2()
	stats := srv2.aggregateStats([]shardSnapshot{srv2.shards[0].snapshot()})
	if stats.WAL == nil || stats.WAL.Dir != snap || stats.WAL.Fsync != "always" {
		t.Fatalf("stats.WAL = %+v", stats.WAL)
	}
	if stats.Recovery == nil || !stats.Recovery.Recovered {
		t.Fatalf("stats.Recovery = %+v", stats.Recovery)
	}
	if !stats.Ready {
		t.Fatal("stats.Ready = false on a recovered server")
	}
	// Restored counters survive the restart.
	if stats.Telemetry.Counters["serve.accepted"] != 1 {
		t.Fatalf("restored counters = %+v", stats.Telemetry.Counters)
	}
	if stats.Telemetry.Counters["serve.recoveries"] != 1 {
		t.Fatalf("serve.recoveries = %v, want 1", stats.Telemetry.Counters["serve.recoveries"])
	}
}

// TestRecoveredDrainMatchesOfflineReplay is the core bit-identity check: a
// session that crashed and recovered drains to the same Result as a crash-free
// offline replay of its durable history.
func TestRecoveredDrainMatchesOfflineReplay(t *testing.T) {
	dir := t.TempDir()
	srv, _ := newDurableServer(t, dir, nil)
	for i := 0; i < 12; i++ {
		spec := JobSpec{W: int64(4 + i%9), L: int64(1 + i%3), Deadline: int64(20 + i%11), Profit: ScalarProfit(float64(1 + i%5))}
		if spec.L > spec.W {
			spec.L = spec.W
		}
		submitTo(srv.placer.route(""), spec, "")
		if i%3 == 2 {
			srv.Advance(int64(i))
		}
		if i == 6 {
			if err := srv.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap := snapshotDir(t, dir)
	srv.Drain()

	srv2, _ := newDurableServer(t, snap, nil)
	res := srv2.Drain()
	assertReplayIdentical(t, snap, res)
}

// postLocal sends one request straight into the daemon's handler.
func postLocal(t *testing.T, srv *Server, path, body string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", path, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// TestRestartAfterExpiriesEmptyLiveSet: nine jobs on M=4 where the last
// live jobs expire rather than complete. Draining consumes the expiry tick;
// a restart over the drained directory must reach the checkpointed
// fingerprint at the checkpointed clock and drain to the same Result.
func TestRestartAfterExpiriesEmptyLiveSet(t *testing.T) {
	dir := t.TempDir()
	cfg := func(c *Config) { c.Fsync = FsyncInterval }
	srv, _ := newDurableServer(t, dir, cfg)
	for i := 0; i < 9; i++ {
		postLocal(t, srv, "/v1/jobs", `{"w":16,"l":2,"deadline":40}`)
	}
	res := srv.Drain()
	if res.Expired == 0 {
		t.Fatalf("history has no expiries (%+v); the regression needs one", res)
	}

	srv2, _ := newDurableServer(t, dir, cfg)
	if rec := srv2.Recovery(); rec == nil || rec.Jobs != 9 {
		t.Fatalf("recovery info = %+v, want 9 jobs", rec)
	}
	res2 := srv2.Drain()
	aj, _ := json.Marshal(res)
	bj, _ := json.Marshal(res2)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("drained-twice results diverge:\nfirst:  %s\nsecond: %s", aj, bj)
	}
}

// TestRecoverSparseBatchesAfterIdleShards: four 64-item batches, 120 ticks
// apart, on two M=16 shards. Every batch is long done before the next one,
// so each lands on a shard whose live set was emptied by expiries. The crash
// image must recover with every acknowledged verdict re-asserted, and the
// recovered drain must match the offline replay of the directory.
func TestRecoverSparseBatchesAfterIdleShards(t *testing.T) {
	dir := t.TempDir()
	cfg := func(c *Config) { c.M, c.Shards, c.Fsync = 16, 2, FsyncInterval }
	srv, _ := newDurableServer(t, dir, cfg)
	item := `{"w":16,"l":2,"deadline":40,"profit":3}`
	body := "[" + strings.TrimSuffix(strings.Repeat(item+",", 64), ",") + "]"
	for i := 0; i < 4; i++ {
		srv.Advance(int64(i) * 120)
		postLocal(t, srv, "/v1/jobs:batch", body)
	}
	snap := snapshotDir(t, dir)
	srv.Drain()

	srv2, _ := newDurableServer(t, snap, cfg)
	rec := srv2.Recovery()
	if rec == nil || rec.Jobs == 0 {
		t.Fatalf("recovery info = %+v", rec)
	}
	res := srv2.Drain()
	assertReplayIdentical(t, snap, res)
}

// TestCleanDrainRestartLeavesCheckpoint: a drain seals the directory with a
// final checkpoint and a header-only WAL, so a start over it replays nothing
// from the WAL and leaves both files as they are, while a second restart
// still recovers to the checkpointed fingerprint and drains to the same
// Result.
func TestCleanDrainRestartLeavesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	srv, _ := newDurableServer(t, dir, nil)
	for i := 0; i < 5; i++ {
		submitTo(srv.placer.route(""), JobSpec{W: 8, L: 2, Deadline: 30, Profit: ScalarProfit(2)}, "")
	}
	res := srv.Drain()

	ckptPath, walPath := filepath.Join(dir, checkpointFileName), filepath.Join(dir, walFileName)
	read := func(path string) (os.FileInfo, []byte) {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi, data
	}
	fingerprint := func(line []byte) uint64 {
		t.Helper()
		payload, err := parseFrame(bytes.TrimSuffix(line, []byte("\n")))
		if err != nil {
			t.Fatal(err)
		}
		var cp Checkpoint
		if _, err := decodeCheckpoint(payload, &cp); err != nil {
			t.Fatal(err)
		}
		return cp.Fingerprint
	}
	ckptFI, ckpt := read(ckptPath)
	_, wal := read(walPath)

	srv2, _ := newDurableServer(t, dir, nil)
	if rec := srv2.Recovery(); rec == nil || rec.Jobs != 5 || rec.WALJobs != 0 {
		t.Fatalf("recovery info = %+v, want 5 jobs, none from the WAL", rec)
	}
	if fi, data := read(ckptPath); !os.SameFile(ckptFI, fi) || !bytes.Equal(data, ckpt) {
		t.Fatal("a start over a drained directory rewrote its checkpoint")
	}
	if _, data := read(walPath); !bytes.Equal(data, wal) {
		t.Fatalf("a start over a drained directory rewrote its WAL:\nbefore: %q\nafter:  %q", wal, data)
	}
	res2 := srv2.Drain()
	_, ckpt2 := read(ckptPath)
	if a, b := fingerprint(ckpt), fingerprint(ckpt2); a != b {
		t.Fatalf("fingerprint %016x after the restart's drain, %016x before", b, a)
	}

	srv3, _ := newDurableServer(t, dir, nil)
	res3 := srv3.Drain()
	for _, r := range []*sim.Result{res2, res3} {
		aj, _ := json.Marshal(res)
		bj, _ := json.Marshal(r)
		if !bytes.Equal(aj, bj) {
			t.Fatalf("restarted drain diverges:\nfirst: %s\nlater: %s", aj, bj)
		}
	}
}

// TestCrashRestartLeavesCheckpoint: a start over a crash image — a
// checkpoint plus a WAL suffix — recovers without rewriting either file.
// The records it accepts next land behind the recovered suffix, so a second
// crash recovers both; the drain writes the checkpoint the start did not,
// and every restart drains to the same Result.
func TestCrashRestartLeavesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	srv, _ := newDurableServer(t, dir, nil)
	for i := 0; i < 4; i++ {
		submitTo(srv.placer.route(""), JobSpec{W: 8, L: 2, Deadline: 30, Profit: ScalarProfit(2)}, "")
	}
	srv.Advance(3)
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		key := "key-" + string(rune('a'+i))
		submitTo(srv.placer.route(key), JobSpec{W: 6, L: 3, Deadline: 30, Profit: ScalarProfit(1)}, key)
	}
	crash := snapshotDir(t, dir)
	srv.Drain()

	ckptPath, walPath := filepath.Join(crash, checkpointFileName), filepath.Join(crash, walFileName)
	ckptFI, err := os.Stat(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, _ := os.ReadFile(ckptPath)
	wal, _ := os.ReadFile(walPath)

	srv2, _ := newDurableServer(t, crash, nil)
	if rec := srv2.Recovery(); rec == nil || rec.Jobs != 7 || rec.WALJobs != 3 {
		t.Fatalf("recovery info = %+v, want 7 jobs, 3 from the WAL", rec)
	}
	if fi, err := os.Stat(ckptPath); err != nil || !os.SameFile(ckptFI, fi) {
		t.Fatal("a start after a crash rewrote the checkpoint")
	}
	if data, _ := os.ReadFile(walPath); !bytes.Equal(data, wal) {
		t.Fatalf("a start after a crash rewrote the WAL:\nbefore: %q\nafter:  %q", wal, data)
	}
	srv2.Advance(5)
	submitTo(srv2.placer.route("key-z"), JobSpec{W: 4, L: 2, Deadline: 40, Profit: ScalarProfit(3)}, "key-z")
	crash2 := snapshotDir(t, crash)
	if data, _ := os.ReadFile(walPath); !bytes.HasPrefix(data, wal) || len(data) == len(wal) {
		t.Fatal("the restarted shard did not append behind the recovered WAL suffix")
	}
	res := srv2.Drain()
	if data, _ := os.ReadFile(ckptPath); bytes.Equal(data, ckpt) {
		t.Fatal("the drain after a crash restart wrote no checkpoint")
	}

	srv3, _ := newDurableServer(t, crash2, nil)
	if rec := srv3.Recovery(); rec == nil || rec.Jobs != 8 || rec.WALJobs != 4 {
		t.Fatalf("second recovery info = %+v, want 8 jobs, 4 from the WAL", rec)
	}
	if rep := submitTo(srv3.placer.route("key-z"), JobSpec{}, "key-z"); !rep.resp.Replayed {
		t.Fatalf("retry after the second crash: %+v", rep)
	}
	res3 := srv3.Drain()
	aj, _ := json.Marshal(res)
	bj, _ := json.Marshal(res3)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("second restart drains to\n %s\nthe first to\n %s", bj, aj)
	}
}
