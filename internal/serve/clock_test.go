package serve

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
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
	// reach the engine: a /metrics scrape is a mailbox message whose
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
