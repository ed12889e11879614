package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestShardedConfigValidation(t *testing.T) {
	if _, err := New(Config{M: 4, Shards: 8, TickInterval: -1}); err == nil ||
		!strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("shards > m: err = %v, want exceeds", err)
	}
	if _, err := New(Config{M: 4, Shards: -1, TickInterval: -1}); err == nil {
		t.Fatal("negative shards accepted")
	}
	srv, err := New(Config{M: 4, TickInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	if srv.Shards() != 1 {
		t.Fatalf("default Shards() = %d, want 1", srv.Shards())
	}
}

// TestShardedIDStriping: shard i of N assigns IDs i+1, i+1+N, …, so IDs are
// globally unique and the owner is recomputable as (id-1) mod N.
func TestShardedIDStriping(t *testing.T) {
	srv, err := New(Config{M: 8, Shards: 4, TickInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	spec := JobSpec{W: 8, L: 2, Deadline: 30, Profit: ScalarProfit(2)}
	for round := 0; round < 3; round++ {
		for i, sh := range srv.shards {
			rep := submitTo(sh, spec, "")
			want := i + 1 + round*4
			if rep.status != 200 || rep.resp.ID != want {
				t.Fatalf("shard %d round %d: %+v, want ID %d", i, round, rep, want)
			}
			if got := srv.placer.shardFor(rep.resp.ID); got != sh {
				t.Fatalf("shardFor(%d) = shard %d, want %d", rep.resp.ID, got.idx, i)
			}
		}
	}
	// The partition covers M: 4 shards of 2 processors each.
	for _, sh := range srv.shards {
		if sh.m != 2 {
			t.Fatalf("shard %d has m=%d, want 2", sh.idx, sh.m)
		}
	}
}

// TestShardedDrainMatchesReplay is the sharded bit-identity contract: each
// shard's WAL holds exactly the IDs on its stripe, and the per-shard offline
// re-simulations of the directory merge into the drained Result.
func TestShardedDrainMatchesReplay(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{M: 8, Shards: 4, TickInterval: -1, WALDir: dir, Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		w := int64(4 + i%17)
		l := int64(1 + i%3)
		spec := JobSpec{W: w, L: l, Deadline: int64(20 + i%9), Profit: ScalarProfit(float64(1 + i%5))}
		sh := srv.shards[i%4]
		if i%3 == 0 {
			// Mix in placer-routed traffic so the shard that committed each
			// job, not the loop index, decides where its record lands.
			sh = srv.placer.route("")
		}
		if rep := submitTo(sh, spec, ""); rep.status != 200 {
			t.Fatalf("submit %d: %+v", i, rep)
		}
		if i%5 == 4 {
			srv.Advance(int64(i))
		}
	}
	// Before the drain folds them into checkpoints, the records are in the
	// WALs: shard i owns the IDs ≡ i+1 mod 4.
	jobs := durableJobs(t, dir)
	if len(jobs) != 24 {
		t.Fatalf("WALs hold %d jobs, want 24", len(jobs))
	}
	for id, dj := range jobs {
		if want := (id - 1) % 4; dj.shard != want {
			t.Errorf("job %d in shard %d's WAL, stripe says %d", id, dj.shard, want)
		}
	}
	for i := range 4 {
		h, err := readAnyHeader(filepath.Join(dir, shardDirName(i)))
		if err != nil {
			t.Fatal(err)
		}
		if h.Shards != 4 || h.Shard != i || h.M != 2 {
			t.Fatalf("shard %d header = %+v, want shard %d of 4 with m=2", i, h, i)
		}
	}
	res := srv.Drain()
	assertReplayIdentical(t, dir, res)
	if res.M != 8 {
		t.Fatalf("merged result M = %d, want 8", res.M)
	}
}

// TestShardedStatsBody is the satellite body-shape table test for /v1/stats:
// the per-shard blocks appear exactly when sharded, carry the verdict counts
// and pressure inputs, and the top level stays the aggregate.
func TestShardedStatsBody(t *testing.T) {
	cases := []struct {
		name       string
		shards     int
		m          int
		wantBlocks int
	}{
		{name: "unsharded", shards: 1, m: 4, wantBlocks: 0},
		{name: "two", shards: 2, m: 4, wantBlocks: 2},
		{name: "four", shards: 4, m: 8, wantBlocks: 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts := newTestServer(t, Config{M: tc.m, Shards: tc.shards})
			// One admitted job per shard, pushed directly so counts are exact.
			for _, sh := range srv.shards {
				if rep := submitTo(sh, JobSpec{W: 4, L: 2, Deadline: 30, Profit: ScalarProfit(2)}, ""); rep.status != 200 {
					t.Fatalf("shard %d submit: %+v", sh.idx, rep)
				}
			}
			var raw map[string]json.RawMessage
			if code := getJSON(t, ts.URL+"/v1/stats", &raw); code != 200 {
				t.Fatalf("stats code = %d", code)
			}
			if tc.wantBlocks == 0 {
				if _, ok := raw["shards"]; ok {
					t.Fatal("unsharded stats body grew a shards field")
				}
			}
			var stats StatsResponse
			if err := json.Unmarshal(mustMarshal(t, raw), &stats); err != nil {
				t.Fatal(err)
			}
			if stats.M != tc.m || stats.Scheduler == "" {
				t.Fatalf("aggregate header = %+v", stats)
			}
			if len(stats.Shards) != tc.wantBlocks {
				t.Fatalf("stats.Shards has %d blocks, want %d", len(stats.Shards), tc.wantBlocks)
			}
			wantTotal := int64(tc.shards) // one accepted job per shard
			if got := stats.Telemetry.Counters["serve.accepted"]; got != wantTotal {
				t.Fatalf("aggregate serve.accepted = %d, want %d", got, wantTotal)
			}
			part := []int{stats.M}
			if tc.shards > 1 {
				part = part[:0]
				for _, b := range stats.Shards {
					part = append(part, b.M)
				}
			}
			sum := 0
			for _, m := range part {
				sum += m
			}
			if sum != tc.m {
				t.Fatalf("shard capacities %v do not cover m=%d", part, tc.m)
			}
			for i, b := range stats.Shards {
				if b.Shard != i {
					t.Fatalf("block %d labeled shard %d", i, b.Shard)
				}
				if b.Accepted != 1 || b.Admitted+b.Parked != 1 {
					t.Fatalf("shard %d verdict counts = %+v, want one accepted", i, b)
				}
				if b.BandOccupancy < 0 || b.ParkedDepth < 0 || b.MailboxDepth < 0 || b.Pressure < 0 {
					t.Fatalf("shard %d pressure inputs negative: %+v", i, b)
				}
			}
		})
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestShardedStatsWALAggregate: per-shard WAL positions roll up under the
// daemon's top directory, and each block reports its own subdirectory.
func TestShardedStatsWALAggregate(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{
		M: 4, Shards: 2, WALDir: dir, Fsync: FsyncAlways, CheckpointInterval: -1,
	})
	for _, sh := range srv.shards {
		if rep := submitTo(sh, JobSpec{W: 4, L: 2, Deadline: 30, Profit: ScalarProfit(2)}, ""); rep.status != 200 {
			t.Fatalf("shard %d submit: %+v", sh.idx, rep)
		}
	}
	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != 200 {
		t.Fatalf("stats code = %d", code)
	}
	if stats.WAL == nil || stats.WAL.Dir != dir {
		t.Fatalf("aggregate WAL = %+v, want dir %s", stats.WAL, dir)
	}
	if stats.WAL.Records != 2 {
		t.Fatalf("aggregate WAL records = %d, want 2", stats.WAL.Records)
	}
	for i, b := range stats.Shards {
		want := filepath.Join(dir, shardDirName(i))
		if b.WAL == nil || b.WAL.Dir != want {
			t.Fatalf("shard %d WAL = %+v, want dir %s", i, b.WAL, want)
		}
		if b.WAL.Records != 1 {
			t.Fatalf("shard %d WAL records = %d, want 1", i, b.WAL.Records)
		}
	}
}

// TestShardedQuiesceBlocksLateSubmissions is the two-phase drain regression
// (satellite 6): once a shard has quiesced, a submission can no longer commit
// — it gets 503 and leaves the shard's WAL untouched — so a signal landing
// mid-drain can never interleave an arrival into a log another shard is
// finalizing.
func TestShardedQuiesceBlocksLateSubmissions(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{
		M: 4, Shards: 2, TickInterval: -1,
		WALDir: dir, Fsync: FsyncAlways, CheckpointInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep := submitTo(srv.shards[0], JobSpec{W: 4, L: 2, Deadline: 30, Profit: ScalarProfit(2)}, ""); rep.status != 200 {
		t.Fatalf("pre-drain submit: %+v", rep)
	}
	walPath := filepath.Join(dir, shardDirName(0), walFileName)
	before, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	// Drain phase 1 only: quiesce shard 0 the way Drain does, then model the
	// mid-drain race — a submission arriving while other shards finalize.
	srv.shards[0].quiesce()
	rep := submitTo(srv.shards[0], JobSpec{W: 4, L: 2, Deadline: 30, Profit: ScalarProfit(2)}, "late-key")
	if rep.status != 503 || rep.err != "draining" {
		t.Fatalf("post-quiesce submit = %+v, want 503 draining", rep)
	}
	if mid, err := os.ReadFile(walPath); err != nil || !bytes.Equal(mid, before) {
		t.Fatalf("WAL changed after quiesce (%v):\nbefore: %s\nafter:  %s", err, before, mid)
	}
	// Reads still work between the phases.
	if _, found := srv.shards[0].lookup(1); !found {
		t.Fatal("quiesced shard stopped serving reads")
	}

	res := srv.Drain()
	if len(res.Jobs) != 1 {
		t.Fatalf("drained result holds %d jobs, want 1 (late submission must not commit)", len(res.Jobs))
	}
	after, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// The final checkpoint truncates the WAL to its header; what matters is
	// that no job record for the late submission ever landed.
	if bytes.Contains(after, []byte("late-key")) || bytes.Contains(before, []byte("late-key")) {
		t.Fatal("late submission reached the WAL")
	}
}

// TestShardedRecoveryRoundTrip: each shard recovers its own WAL; the merged
// recovery covers every acked job and the drained Result matches the offline
// shard-by-shard replay of the directory.
func TestShardedRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	mk := func(d string) (*Server, func()) {
		srv, err := New(Config{
			M: 4, Shards: 2, TickInterval: -1,
			WALDir: d, Fsync: FsyncAlways, CheckpointInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv, func() { srv.Drain() }
	}
	srv, drain := mk(dir)
	var acked []submitReply
	for i := 0; i < 10; i++ {
		spec := JobSpec{W: int64(4 + i%7), L: int64(1 + i%2), Deadline: int64(25 + i%5), Profit: ScalarProfit(float64(1 + i%4))}
		rep := submitTo(srv.shards[i%2], spec, fmt.Sprintf("key-%d", i))
		if rep.status != 200 {
			t.Fatalf("submit %d: %+v", i, rep)
		}
		acked = append(acked, rep)
		if i == 5 {
			if err := srv.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		srv.Advance(int64(i))
	}
	snap := snapshotDir(t, dir)
	drain()

	srv2, drain2 := mk(snap)
	rec := srv2.Recovery()
	if rec == nil || !rec.Recovered || rec.Jobs != 10 {
		t.Fatalf("merged recovery = %+v, want 10 jobs", rec)
	}
	if !srv2.Ready() {
		t.Fatal("recovered sharded server not ready")
	}
	// Every acked verdict replays verbatim on its owning shard (submissions
	// were pinned to shard i%2, so retries go to the same place).
	for i, want := range acked {
		got := submitTo(srv2.shards[i%2], JobSpec{}, fmt.Sprintf("key-%d", i))
		if !got.resp.Replayed || got.resp.ID != want.resp.ID || got.resp.Decision != want.resp.Decision {
			t.Fatalf("key-%d after recovery: %+v, acked %+v", i, got.resp, want.resp)
		}
	}
	res := srv2.Drain()
	drain2()
	assertReplayIdentical(t, snap, res)
}

// TestShardedLayoutDrift: a WAL directory written under one partition
// refuses to open under another, in every direction.
func TestShardedLayoutDrift(t *testing.T) {
	mkSharded := func(shards int) string {
		dir := t.TempDir()
		srv, err := New(Config{
			M: 4, Shards: shards, TickInterval: -1,
			WALDir: dir, Fsync: FsyncAlways, CheckpointInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		submitTo(srv.shards[0], JobSpec{W: 4, L: 2, Deadline: 30, Profit: ScalarProfit(2)}, "")
		srv.Drain()
		return dir
	}
	open := func(dir string, shards int) error {
		srv, err := New(Config{
			M: 4, Shards: shards, TickInterval: -1,
			WALDir: dir, Fsync: FsyncAlways, CheckpointInterval: -1,
		})
		if err == nil {
			srv.Drain()
		}
		return err
	}
	cases := []struct {
		name        string
		writeShards int
		openShards  int
		errHas      string
	}{
		{name: "sharded dir under unsharded config", writeShards: 2, openShards: 1, errHas: "refusing to recover"},
		{name: "flat dir under sharded config", writeShards: 1, openShards: 2, errHas: "unsharded"},
		{name: "fewer shards than directories", writeShards: 4, openShards: 2, errHas: "refusing to recover"},
		{name: "more shards than written", writeShards: 2, openShards: 4, errHas: "refusing to recover"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := mkSharded(tc.writeShards)
			err := open(dir, tc.openShards)
			if err == nil || !strings.Contains(err.Error(), tc.errHas) {
				t.Fatalf("err = %v, want %q", err, tc.errHas)
			}
		})
	}
}

// TestShardedTamperRefusal: a tampered verdict inside one shard's WAL stops
// the whole daemon from starting.
func TestShardedTamperRefusal(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{
		M: 4, Shards: 2, TickInterval: -1,
		WALDir: dir, Fsync: FsyncAlways, CheckpointInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep := submitTo(srv.shards[1], JobSpec{W: 16, L: 4, Deadline: 40, Profit: ScalarProfit(10)}, ""); rep.status != 200 {
		t.Fatalf("submit: %+v", rep)
	}
	snap := snapshotDir(t, dir)
	srv.Drain()

	path := filepath.Join(snap, shardDirName(1), walFileName)
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
	_, err = New(Config{
		M: 4, Shards: 2, TickInterval: -1,
		WALDir: snap, Fsync: FsyncAlways, CheckpointInterval: -1,
	})
	if err == nil || !strings.Contains(err.Error(), "commitment violated") {
		t.Fatalf("tampered shard WAL: err = %v, want commitment violation", err)
	}
	if !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("refusal does not name the offending shard: %v", err)
	}
}
