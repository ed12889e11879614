package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestClockJumpIdleNoWakeups: an idle event-safe daemon performs no clock
// work at all — no timer fires, because an idle session has no next event
// and no timer is armed.
func TestClockJumpIdleNoWakeups(t *testing.T) {
	srv, err := New(Config{M: 2, TickInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	time.Sleep(50 * time.Millisecond)
	m := scrapeMetrics(t, ts.URL+"/metrics")
	if v := m[`serve_clock_jumps_total{shard="0"}`]; v != 0 {
		t.Errorf("idle jump daemon recorded %v clock jumps, want 0", v)
	}

	// A submission gives the session a next event; now the timer arms and
	// the clock starts jumping — and once the job's deadline passes, the
	// shard goes quiet again instead of ticking forever. The wait must not
	// reach the engine: a /metrics scrape takes the shard's lock, whose
	// catch-up would run the job's events itself, leaving the timer nothing
	// to do. So it watches the pressure signal the engine publishes on
	// every advance, an atomic read, and scrapes once a jump has moved it.
	// The job is a 64-tick chain, so the value read after the submission
	// returns is the admission's unless this goroutine was held off the CPU
	// for the job's whole life.
	sh := srv.shards[0]
	code, jr := postJob(t, ts, `{"w":64,"l":64,"deadline":200,"profit":2}`)
	if code != 200 || jr.Decision != DecisionAdmitted {
		t.Fatalf("submit: code=%d resp=%+v", code, jr)
	}
	admitted := sh.pressure.Load()
	if admitted == 0 {
		t.Fatal("admitting a job published no pressure")
	}
	deadline := time.Now().Add(5 * time.Second)
	for sh.pressure.Load() == admitted {
		if time.Now().After(deadline) {
			t.Fatal("the engine did not advance after a submission")
		}
		time.Sleep(time.Millisecond)
	}
	m = scrapeMetrics(t, ts.URL+"/metrics")
	if v := m[`serve_clock_jumps_total{shard="0"}`]; v == 0 {
		t.Error("the engine advanced without a clock jump")
	}
}

// TestClockLLFIdleNoWakeups: a shard whose scheduler is not event-safe
// sleeps while idle too. Its session names the next tick as its next event
// only while work is live, so the timer fires tick by tick for the job's
// life and stops once the job has left the system.
func TestClockLLFIdleNoWakeups(t *testing.T) {
	srv, err := New(Config{M: 2, Sched: "llf", TickInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()
	jumps := func() float64 {
		t.Helper()
		return scrapeMetrics(t, ts.URL+"/metrics")[`serve_clock_jumps_total{shard="0"}`]
	}

	time.Sleep(50 * time.Millisecond)
	if v := jumps(); v != 0 {
		t.Errorf("idle llf daemon recorded %v clock wake-ups, want 0", v)
	}

	// A 100-tick chain stays live for about 100ms, so the timer fires
	// between scrapes even though each scrape catches the session up.
	code, jr := postJob(t, ts, `{"w":100,"l":100,"deadline":300,"profit":2}`)
	if code != 200 || jr.ID == 0 {
		t.Fatalf("submit: code=%d resp=%+v", code, jr)
	}
	deadline := time.Now().Add(5 * time.Second)
	for jumps() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the llf daemon did not wake while a job was live")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for {
		var st StatusResponse
		if code := getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, jr.ID), &st); code != 200 {
			t.Fatalf("lookup: code=%d", code)
		}
		if st.State == "completed" || st.State == "expired" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after 5s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	before := jumps()
	time.Sleep(50 * time.Millisecond)
	if after := jumps(); after != before {
		t.Errorf("llf daemon recorded %v clock wake-ups after its job left, want 0", after-before)
	}
}

// TestClockJumpReplayIdentity drives the same submission sequence through a
// daemon whose clock is advanced once per tick and one advanced in 3-tick
// bursts, under a frozen wall tick (interval = 1h, the clock moved only by
// explicit Advance), and requires byte-identical drained checkpoints: a
// burst must be indistinguishable from tick-by-tick advance, both for an
// event-safe scheduler (s), which steps in event intervals, and for one that
// is not (llf). Each drained Result must also equal ReplayDir of its WAL
// directory.
func TestClockJumpReplayIdentity(t *testing.T) {
	specs := []string{
		`{"w":32,"l":4,"deadline":40,"profit":10}`,
		`{"w":16,"l":2,"deadline":30,"profit":3}`,
		`{"w":100,"l":2,"deadline":12,"profit":8}`,
		`{"w":8,"l":2,"deadline":25,"profit":2}`,
	}
	run := func(t *testing.T, sched string, burst int64) string {
		dir := t.TempDir()
		srv, err := New(Config{
			M: 4, Sched: sched, QueueDepth: 64, TickInterval: time.Hour,
			WALDir: dir, Fsync: FsyncOff,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		for i, spec := range specs {
			if code, _ := postJob(t, ts, spec); code != 200 {
				t.Fatalf("burst %d submit %d: code=%d", burst, i, code)
			}
			for to := int64(i*3) + burst; to <= int64(i+1)*3; to += burst {
				srv.Advance(to)
			}
		}
		assertReplayIdentical(t, dir, srv.Drain())
		cp, err := os.ReadFile(filepath.Join(dir, checkpointFileName))
		if err != nil {
			t.Fatal(err)
		}
		return string(cp)
	}
	for _, sched := range []string{"s", "llf"} {
		t.Run(sched, func(t *testing.T) {
			perTick := run(t, sched, 1)
			bursts := run(t, sched, 3)
			if perTick != bursts {
				t.Fatalf("drained checkpoints diverge between advance granularities\nper tick:\n%s\n3-tick bursts:\n%s", perTick, bursts)
			}
			if !strings.Contains(perTick, `"type":"job"`) {
				t.Fatalf("drained checkpoint holds no job records: %q", perTick)
			}
		})
	}
}

// TestClockJumpWALInterval: under the interval fsync policy the engine loop
// must wake for the flush deadline even when the session itself has no event
// due — otherwise an acknowledged record could sit unflushed until the next
// submission. Run for an event-safe scheduler and for one that is not.
func TestClockJumpWALInterval(t *testing.T) {
	for _, sched := range []string{"s", "llf"} {
		t.Run(sched, func(t *testing.T) {
			dir := t.TempDir()
			srv, err := New(Config{
				M: 2, Sched: sched, TickInterval: time.Millisecond, WALDir: dir,
				Fsync: FsyncInterval, FsyncInterval: 5 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			defer srv.Drain()

			if code, _ := postJob(t, ts, `{"w":8,"l":2,"deadline":1000,"profit":2}`); code != 200 {
				t.Fatal("submit failed")
			}
			// The fsync deadline is 5ms out; give the timer room, then check
			// the shard flushed without any further traffic.
			deadline := time.Now().Add(5 * time.Second)
			for {
				m := scrapeMetrics(t, ts.URL+"/metrics")
				if m[`serve_wal_fsync_us_count{shard="0"}`] > 0 {
					return
				}
				if time.Now().After(deadline) {
					t.Fatal("interval-policy fsync never fired under the engine clock")
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestClockTimerUnderContention: a clocked shard's timer fires while
// concurrent submissions and reads hold its lock — every few submissions a
// worker holds the lock across a wall tick, so a due timer must wait for it.
// Whatever the interleaving, the lock serializes arrivals against ticks: the
// drained Result must equal ReplayDir of the WAL directory, and a restart
// over the drained directory must verify and reproduce the sealed session's
// Fingerprint. Run for an event-safe scheduler and for one that is not.
func TestClockTimerUnderContention(t *testing.T) {
	for _, sched := range []string{"s", "llf"} {
		t.Run(sched, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{M: 4, Sched: sched, QueueDepth: 256, TickInterval: time.Millisecond, WALDir: dir, Fsync: FsyncOff}
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sh := srv.shards[0]
			const workers, perWorker = 4, 40
			var wg sync.WaitGroup
			for w := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range perWorker {
						spec := JobSpec{W: int64(4 + (w+i)%13), L: 2, Deadline: int64(8 + i%20), Profit: ScalarProfit(float64(1 + i%5))}
						if rep := submitTo(sh, spec, ""); rep.status != http.StatusOK {
							t.Errorf("worker %d submission %d: %+v", w, i, rep)
							return
						}
						switch i % 8 {
						case 3:
							sh.lookup(1)
							sh.snapshot()
						case 7:
							sh.lock()
							time.Sleep(2 * time.Millisecond)
							sh.unlock()
						}
					}
				}()
			}
			wg.Wait()
			// A short job whose completion or expiry is due within a few
			// ticks, then a pause in which nothing but the timer takes the
			// lock: the clock must have been live.
			if rep := submitTo(sh, JobSpec{W: 4, L: 2, Deadline: 8, Profit: ScalarProfit(1)}, ""); rep.status != http.StatusOK {
				t.Fatalf("trailing submission: %+v", rep)
			}
			time.Sleep(50 * time.Millisecond)
			if jumps := sh.snapshot().obs.Counter("serve.clock_jumps"); jumps == 0 {
				t.Fatal("the engine clock never fired")
			}
			res := srv.Drain()
			if msg := srv.engineError(); msg != "" {
				t.Fatalf("engine error: %s", msg)
			}
			assertReplayIdentical(t, dir, res)
			sh.lock()
			sealed := sh.sess.Fingerprint()
			sh.unlock()

			cfg.TickInterval = -1
			srv2, err := New(cfg) // recovery verifies the checkpoint's fingerprint
			if err != nil {
				t.Fatal(err)
			}
			defer srv2.Drain()
			sh2 := srv2.shards[0]
			sh2.lock()
			recovered := sh2.sess.Fingerprint()
			sh2.unlock()
			if recovered != sealed {
				t.Fatalf("restart fingerprint %016x, sealed session %016x", recovered, sealed)
			}
		})
	}
}

// TestClockTimerAfterDrain: a timer callback that lost the race with the
// drain — it fired before quiesce disarmed the clock and took the lock after
// finalize — must find the sealed shard and leave it alone: no AdvanceTo on
// the finished session (which would surface as an engine error), no write to
// the closed WAL, no clock jump, and the same Result. Reads, Advance and a
// late submission after the drain must not move the session either, while
// wall ticks pass.
func TestClockTimerAfterDrain(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{
		M: 2, TickInterval: time.Millisecond, WALDir: dir,
		Fsync: FsyncInterval, FsyncInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	code, jr := postJob(t, ts, `{"w":64,"l":64,"deadline":200,"profit":2}`)
	if code != 200 || jr.ID == 0 {
		t.Fatalf("submit: code=%d resp=%+v", code, jr)
	}
	sh := srv.shards[0]
	res := srv.Drain()
	want := resultJSON(t, res)
	readFiles := func() []byte {
		t.Helper()
		var all []byte
		for _, name := range []string{walFileName, checkpointFileName} {
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, b...)
		}
		return all
	}
	files := readFiles()
	jumps := func() int64 {
		sh.lock()
		defer sh.unlock()
		return sh.obsReg.Counter("serve.clock_jumps")
	}
	jumpsBefore := jumps()

	// The callback of a wake that was due as the drain began.
	sh.mu.Lock()
	sh.wake = time.Now().Add(-time.Millisecond)
	sh.mu.Unlock()
	sh.tick()
	time.Sleep(5 * time.Millisecond)
	srv.Advance(1 << 20)
	// A submission that passed the handler's draining check before the
	// drain began and takes the lock only after finalize.
	if rep := submitTo(sh, JobSpec{W: 4, L: 2, Deadline: 30, Profit: ScalarProfit(1)}, ""); rep.status != http.StatusServiceUnavailable || rep.reason != reasonDraining {
		t.Fatalf("submission after the drain = %+v, want 503 draining", rep)
	}
	var st StatusResponse
	if code := getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, jr.ID), &st); code != 200 {
		t.Fatalf("lookup after drain: code=%d", code)
	}
	scrapeMetrics(t, ts.URL+"/metrics")

	if msg := srv.engineError(); msg != "" {
		t.Fatalf("the sealed session was touched: %s", msg)
	}
	if got := jumps(); got != jumpsBefore {
		t.Fatalf("clock jumps %d after the drain, %d before", got, jumpsBefore)
	}
	if !bytes.Equal(readFiles(), files) {
		t.Fatal("the durable files changed after the drain")
	}
	if got := resultJSON(t, srv.Drain()); !bytes.Equal(got, want) {
		t.Fatalf("Result changed after the drain:\nbefore: %s\nafter:  %s", want, got)
	}
	sh.lock()
	armed := !sh.wake.IsZero()
	sh.unlock()
	if armed {
		t.Fatal("a drained shard re-armed its clock")
	}
	assertReplayIdentical(t, dir, res)
}
