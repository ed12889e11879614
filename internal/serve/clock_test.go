package serve

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParseClockMode(t *testing.T) {
	cases := []struct {
		in      string
		want    ClockMode
		wantErr bool
	}{
		{"", ClockAuto, false},
		{"auto", ClockAuto, false},
		{"ticker", ClockTicker, false},
		{"jump", ClockJump, false},
		{"bogus", "", true},
		{"Jump", "", true},
	}
	for _, tc := range cases {
		got, err := ParseClockMode(tc.in)
		if (err != nil) != tc.wantErr || got != tc.want {
			t.Errorf("ParseClockMode(%q) = %q, %v; want %q, err=%v", tc.in, got, err, tc.want, tc.wantErr)
		}
	}
}

// TestClockResolution: auto picks jump exactly when the session is
// event-safe, ticker is always honored, and an explicit jump request on an
// unsafe configuration is a construction error, not a silent fallback.
func TestClockResolution(t *testing.T) {
	mk := func(sched string, mode ClockMode) (*Server, error) {
		return New(Config{M: 4, Sched: sched, Clock: mode, TickInterval: time.Hour})
	}
	srv, err := mk("s", ClockAuto)
	if err != nil {
		t.Fatal(err)
	}
	if !srv.shards[0].jump {
		t.Error("auto + scheduler s: want the jump clock")
	}
	srv.Drain()

	srv, err = mk("llf", ClockAuto)
	if err != nil {
		t.Fatal(err)
	}
	if srv.shards[0].jump {
		t.Error("auto + llf (not event-safe): want the ticker")
	}
	srv.Drain()

	srv, err = mk("s", ClockTicker)
	if err != nil {
		t.Fatal(err)
	}
	if srv.shards[0].jump {
		t.Error("explicit ticker must win even when jump is safe")
	}
	srv.Drain()

	if _, err := mk("llf", ClockJump); err == nil {
		t.Error("jump + llf must fail construction")
	}
	if _, err := New(Config{M: 1, Clock: "sundial"}); err == nil {
		t.Error("unknown clock mode must fail construction")
	}
}

// TestClockJumpIdleNoWakeups: an idle event-safe daemon performs no clock
// work at all — no ticker wakeups (it has no ticker) and no jump fires (an
// idle session has no next event, so no timer is armed). The ticker daemon
// under the same config burns wakeups just to discover nothing happened.
func TestClockJumpIdleNoWakeups(t *testing.T) {
	srv, err := New(Config{M: 2, TickInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()
	if !srv.shards[0].jump {
		t.Fatal("default config must resolve to the jump clock")
	}

	time.Sleep(50 * time.Millisecond)
	m := scrapeMetrics(t, ts.URL+"/metrics")
	if v := m[`serve_ticker_wakeups_total{shard="0"}`]; v != 0 {
		t.Errorf("idle jump daemon recorded %v ticker wakeups, want 0", v)
	}
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
	if v := m[`serve_ticker_wakeups_total{shard="0"}`]; v != 0 {
		t.Errorf("jump daemon recorded %v ticker wakeups under load, want 0", v)
	}
}

// TestClockTickerWakeups is the contrast case: the ticker loop wakes every
// interval even with nothing to do.
func TestClockTickerWakeups(t *testing.T) {
	srv, err := New(Config{M: 2, TickInterval: time.Millisecond, Clock: ClockTicker})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	deadline := time.Now().Add(5 * time.Second)
	for {
		m := scrapeMetrics(t, ts.URL+"/metrics")
		if m[`serve_ticker_wakeups_total{shard="0"}`] > 0 {
			if v := m[`serve_clock_jumps_total{shard="0"}`]; v != 0 {
				t.Errorf("ticker daemon recorded %v clock jumps, want 0", v)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("idle ticker daemon recorded no wakeups")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClockJumpReplayIdentity drives the ticker and jump disciplines through
// the same submission sequence under a frozen wall tick (interval = 1h, the
// clock moved only by explicit Advance) and requires byte-identical replay
// logs: the jump loop's burst catch-up must be indistinguishable from
// tick-by-tick advance.
func TestClockJumpReplayIdentity(t *testing.T) {
	run := func(mode ClockMode) string {
		var replay bytes.Buffer
		srv, err := New(Config{
			M: 4, QueueDepth: 64, TickInterval: time.Hour, Clock: mode,
			ReplayLog: &replay,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		specs := []string{
			`{"w":32,"l":4,"deadline":40,"profit":10}`,
			`{"w":16,"l":2,"deadline":30,"profit":3}`,
			`{"w":100,"l":2,"deadline":12,"profit":8}`,
			`{"w":8,"l":2,"deadline":25,"profit":2}`,
		}
		for i, spec := range specs {
			if code, _ := postJob(t, ts, spec); code != 200 {
				t.Fatalf("%s submit %d: code=%d", mode, i, code)
			}
			srv.Advance(int64((i + 1) * 3))
		}
		srv.Drain()
		return replay.String()
	}
	ticker := run(ClockTicker)
	jump := run(ClockJump)
	if ticker != jump {
		t.Fatalf("replay logs diverge between clock modes\nticker:\n%s\njump:\n%s", ticker, jump)
	}
	if !strings.Contains(ticker, `"type"`) {
		t.Fatalf("replay log looks empty: %q", ticker)
	}
}

// TestClockJumpWALInterval: under the interval fsync policy the jump loop
// must wake for the flush deadline even when the session itself is idle —
// otherwise an acknowledged record could sit unflushed until the next
// submission.
func TestClockJumpWALInterval(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{
		M: 2, TickInterval: time.Millisecond, WALDir: dir,
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
	// The fsync deadline is 5ms out; give the timer room, then check the
	// shard flushed without any further traffic.
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := scrapeMetrics(t, ts.URL+"/metrics")
		if m[`serve_wal_fsync_us_count{shard="0"}`] > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("interval-policy fsync never fired under the jump clock")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
