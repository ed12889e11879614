package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Shards recover concurrently (Server.openDurable). These tests pin what
// that must not change: the recovered state, the error a failing start
// reports, and what a failing start leaves behind. `make race` runs them
// under the race detector with the rest of the package.

func shardedRecoveryConfig(dir string) Config {
	return Config{M: 8, Shards: 4, TickInterval: -1, WALDir: dir, Fsync: FsyncAlways, CheckpointInterval: -1}
}

// shardedCrashImage builds a 4-shard durable history, with a checkpoint
// part-way and a WAL suffix after it on every shard, and returns the crash
// image a SIGKILL would leave.
func shardedCrashImage(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	srv, err := New(shardedRecoveryConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		spec := JobSpec{W: int64(4 + i%7), L: int64(1 + i%3), Deadline: int64(20 + i%9), Profit: ScalarProfit(float64(1 + i%4))}
		if rep := submitTo(srv.shards[i%4], spec, fmt.Sprintf("k%d", i)); rep.status != 200 {
			t.Fatalf("submit %d: %+v", i, rep)
		}
		if i == 15 {
			if err := srv.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		srv.Advance(int64(i))
	}
	snap := snapshotDir(t, dir)
	srv.Drain()
	return snap
}

// TestShardedRecoveryMatchesSerial: recovering the shards of a 4-shard crash
// image concurrently leaves every shard with the same clock, Fingerprint and
// recovery report as recovering them one at a time, and both drain to the
// same Result, which is the offline replay's.
func TestShardedRecoveryMatchesSerial(t *testing.T) {
	img := shardedCrashImage(t)
	serialDir, parallelDir := snapshotDir(t, img), snapshotDir(t, img)

	serial, err := newServer(shardedRecoveryConfig(serialDir))
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range serial.shards {
		if err := sh.openDurable(filepath.Join(serialDir, shardDirName(i))); err != nil {
			t.Fatal(err)
		}
	}
	serial.recovery = mergeRecovery(serial.shards)
	parallel, err := newServer(shardedRecoveryConfig(parallelDir))
	if err != nil {
		t.Fatal(err)
	}
	if err := parallel.openDurable(); err != nil {
		t.Fatal(err)
	}
	for i := range serial.shards {
		a, b := serial.shards[i], parallel.shards[i]
		if a.sess.Now() != b.sess.Now() || a.sess.Fingerprint() != b.sess.Fingerprint() {
			t.Fatalf("shard %d: serial recovery at clock %d fingerprint %016x, concurrent at %d %016x",
				i, a.sess.Now(), a.sess.Fingerprint(), b.sess.Now(), b.sess.Fingerprint())
		}
		if *a.recovery != *b.recovery || a.recovery.WALJobs == 0 || a.recovery.CheckpointJobs == 0 {
			t.Fatalf("shard %d: serial recovery %+v, concurrent %+v", i, *a.recovery, *b.recovery)
		}
	}
	if *serial.recovery != *parallel.recovery {
		t.Fatalf("merged recovery: serial %+v, concurrent %+v", *serial.recovery, *parallel.recovery)
	}
	serial.startEngines()
	parallel.startEngines()
	replayed, err := ReplayDir(img)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(replayed)
	for name, s := range map[string]*Server{"serial": serial, "concurrent": parallel} {
		res := *s.Drain()
		res.Engine = replayed.Engine
		if got, _ := json.Marshal(&res); !bytes.Equal(got, want) {
			t.Fatalf("%s recovery drains to\n %s\nthe offline replay to\n %s", name, got, want)
		}
	}
}

// TestEachShardBoundedByGOMAXPROCS: recovery and sharded replay run at most
// GOMAXPROCS shards at once, each exactly once, and still report the error
// of the lowest failing shard.
func TestEachShardBoundedByGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		var running, peak atomic.Int32
		calls := make([]atomic.Int32, 8)
		err := eachShard(len(calls), func(i int) error {
			n := running.Add(1)
			defer running.Add(-1)
			for {
				if p := peak.Load(); n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			calls[i].Add(1)
			// With room for two, the first shard waits for a second to be
			// in flight, so a fan-out that ran one at a time would fail.
			for deadline := time.Now().Add(5 * time.Second); i == 0 && procs > 1 && running.Load() < 2 && time.Now().Before(deadline); {
				time.Sleep(100 * time.Microsecond)
			}
			time.Sleep(time.Millisecond)
			if i == 3 || i == 6 {
				return fmt.Errorf("shard %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "shard 3 failed" {
			t.Errorf("GOMAXPROCS=%d: err = %v, want shard 3's", procs, err)
		}
		if got := peak.Load(); got != int32(procs) {
			t.Errorf("GOMAXPROCS=%d: %d shards ran at once, want %d", procs, got, procs)
		}
		for i := range calls {
			if n := calls[i].Load(); n != 1 {
				t.Errorf("GOMAXPROCS=%d: shard %d ran %d times", procs, i, n)
			}
		}
	}
}

// openFDs counts this process's open file descriptors; -1 where /proc does
// not list them.
func openFDs() int {
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(entries)
}

// TestShardedRecoveryNamesLowestFailingShard: when shards 2 and 3 both fail
// to recover, the start reports shard 2 — even though shard 3, whose
// checkpoint is corrupt, fails at once while shard 2 fails only after
// replaying its checkpoint — closes the WALs shards 0 and 1 had opened, and
// leaves no goroutine behind.
func TestShardedRecoveryNamesLowestFailingShard(t *testing.T) {
	img := shardedCrashImage(t)
	// Shard 2: a WAL suffix verdict that replay re-decides differently.
	walPath := filepath.Join(img, shardDirName(2), walFileName)
	payloads, _, err := scanWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for k, p := range payloads {
		if k == len(payloads)-1 {
			p = bytes.Replace(p, []byte(`"decision":"admitted"`), []byte(`"decision":"rejected"`), 1)
		}
		out.Write(frameRecord(p))
	}
	if err := os.WriteFile(walPath, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// Shard 3: a checkpoint that fails its checksum.
	if err := os.WriteFile(filepath.Join(img, shardDirName(3), checkpointFileName), []byte("00000000 {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	fds, goroutines := openFDs(), runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		dir := snapshotDir(t, img)
		if _, err := New(shardedRecoveryConfig(dir)); err == nil || !strings.HasPrefix(err.Error(), "shard 2: ") || !strings.Contains(err.Error(), "commitment violated") {
			t.Fatalf("round %d: err = %v, want shard 2's commitment violation", round, err)
		}
		s, err := newServer(shardedRecoveryConfig(dir))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.openDurable(); err == nil || !strings.HasPrefix(err.Error(), "shard 2: ") {
			t.Fatalf("round %d: openDurable err = %v", round, err)
		}
		for i, sh := range s.shards {
			switch {
			case i < 2 && sh.wal == nil:
				t.Fatalf("round %d: shard %d recovered but opened no WAL", round, i)
			case sh.wal != nil:
				if _, err := sh.wal.f.Stat(); !errors.Is(err, os.ErrClosed) {
					t.Fatalf("round %d: shard %d's WAL is still open after the failed start (%v)", round, i, err)
				}
			}
		}
	}
	if n := openFDs(); n > fds {
		t.Fatalf("%d file descriptors open after the failed starts, %d before", n, fds)
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("%d goroutines after the failed starts, %d before", n, goroutines)
	}
}

// TestShardedCheckpointFanOut: Server.Checkpoint checkpoints every shard,
// and once the server has drained it refuses with the drain error.
func TestShardedCheckpointFanOut(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(shardedRecoveryConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		submitTo(srv.shards[i%4], JobSpec{W: 4, L: 2, Deadline: 30, Profit: ScalarProfit(2)}, "")
	}
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := range srv.shards {
		payloads, _, err := scanWAL(filepath.Join(dir, shardDirName(i), walFileName))
		if err != nil || len(payloads) != 1 {
			t.Fatalf("shard %d: WAL holds %d records after the checkpoint (%v), want its header", i, len(payloads), err)
		}
	}
	srv.Drain()
	if err := srv.Checkpoint(); err == nil || err.Error() != "serve: checkpoint after drain" {
		t.Fatalf("checkpoint after drain: %v", err)
	}
}

// TestShardedReplayMissingShard: a sharded directory whose shard-0 header
// declares a shard that is not there is refused, naming the missing shard,
// and so is one whose header declares more shards than any slice could
// hold, before anything is sized by that count.
func TestShardedReplayMissingShard(t *testing.T) {
	img := shardedCrashImage(t)
	if _, err := ReplayDir(img); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(img, shardDirName(2))); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayDir(img); err == nil || !strings.HasPrefix(err.Error(), "serve: replay shard 2: ") {
		t.Fatalf("ReplayDir without shard 2: err = %v, want shard 2's replay error", err)
	}

	// A CRC-valid shard-0 header declaring 2⁵⁰ shards.
	huge := t.TempDir()
	for i := 0; i < 2; i++ {
		sub := filepath.Join(huge, shardDirName(i))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		hdr := fmt.Sprintf(`{"type":"header","m":2,"sched":"s","eps":1,"speed":"1","shards":1125899906842624,"shard":%d}`, i)
		if err := os.WriteFile(filepath.Join(sub, walFileName), frameRecord([]byte(hdr)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ReplayDir(huge); err == nil || !strings.HasPrefix(err.Error(), "serve: replay shard 2: ") {
		t.Fatalf("ReplayDir of a header declaring 2⁵⁰ shards: err = %v, want shard 2's error", err)
	}
}
