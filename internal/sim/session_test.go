package sim

import (
	"encoding/json"
	"math/rand"
	"testing"

	"dagsched/internal/dag"
	"dagsched/internal/faults"
)

// sessionJobs builds a deterministic mixed-shape workload in-package
// (internal/workload imports sim, so its generator is off limits here):
// chains, blocks, and fork–joins with staggered releases and deadlines
// tight enough that some jobs expire.
func sessionJobs(t *testing.T, n int) []*Job {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	jobs := make([]*Job, 0, n)
	var release int64
	for i := 0; i < n; i++ {
		var g *dag.DAG
		switch i % 3 {
		case 0:
			g = dag.Chain(2+rng.Intn(6), 1+int64(rng.Intn(3)))
		case 1:
			g = dag.Block(3+rng.Intn(8), 1+int64(rng.Intn(2)))
		default:
			g = dag.ForkJoin(1+rng.Intn(2), 2+rng.Intn(4), 1)
		}
		deadline := g.Span() + int64(rng.Intn(int(g.TotalWork())+4))
		jobs = append(jobs, &Job{
			ID:      i + 1,
			Graph:   g,
			Release: release,
			Profit:  step(t, float64(1+rng.Intn(9)), deadline),
		})
		release += int64(rng.Intn(4))
	}
	return jobs
}

// resultJSON renders a result canonically for byte-level comparison.
func resultJSON(t *testing.T, res *Result) string {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestSessionBatchMatchesRun drives a session with the jobs given up front
// and checks the result is byte-identical to Run.
func TestSessionBatchMatchesRun(t *testing.T) {
	jobs := sessionJobs(t, 40)
	cfg := Config{M: 6}

	want, err := Run(cfg, jobs, &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(cfg, jobs, &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunToEnd(); err != nil {
		t.Fatal(err)
	}
	got := s.Finish()
	if a, b := resultJSON(t, got), resultJSON(t, want); a != b {
		t.Fatalf("session result diverges from Run:\n got %s\nwant %s", a, b)
	}
}

// TestSessionOnlineMatchesRun submits every job online via Arrive at its
// release tick — advancing the session clock between submissions exactly as
// a serving daemon would — and checks the final result is byte-identical to
// a batch Run over the same job set.
func TestSessionOnlineMatchesRun(t *testing.T) {
	jobs := sessionJobs(t, 40)
	cfg := Config{M: 6}

	want, err := Run(cfg, jobs, &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}

	s, err := NewSession(cfg, nil, &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	ordered := sortJobsByRelease(jobs)
	for _, j := range ordered {
		if err := s.AdvanceTo(j.Release); err != nil {
			t.Fatal(err)
		}
		if err := s.Arrive(j); err != nil {
			t.Fatalf("Arrive(job %d): %v", j.ID, err)
		}
	}
	if err := s.RunToEnd(); err != nil {
		t.Fatal(err)
	}
	got := s.Finish()
	if a, b := resultJSON(t, got), resultJSON(t, want); a != b {
		t.Fatalf("online session diverges from Run:\n got %s\nwant %s", a, b)
	}
}

// TestSessionOnlineLaggedClockMatchesRun replays the online feed but pushes
// the session clock in uneven increments — one tick at a time with redundant
// repeat calls, the way a serving loop's timer fires between submissions —
// so correctness must not depend on how AdvanceTo's work is batched.
func TestSessionOnlineLaggedClockMatchesRun(t *testing.T) {
	jobs := sessionJobs(t, 30)
	cfg := Config{M: 6}

	want, err := Run(cfg, jobs, &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(cfg, nil, &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	ordered := sortJobsByRelease(jobs)
	for _, j := range ordered {
		// Unit-step the clock up to the release, with a redundant repeat
		// call every other tick: AdvanceTo must be idempotent at a fixed
		// target and insensitive to step size.
		for now := s.Now(); now < j.Release; now++ {
			if err := s.AdvanceTo(now + 1); err != nil {
				t.Fatal(err)
			}
			if err := s.AdvanceTo(now + 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.AdvanceTo(j.Release); err != nil {
			t.Fatal(err)
		}
		if err := s.Arrive(j); err != nil {
			t.Fatalf("Arrive(job %d): %v", j.ID, err)
		}
	}
	if err := s.RunToEnd(); err != nil {
		t.Fatal(err)
	}
	if a, b := resultJSON(t, s.Finish()), resultJSON(t, want); a != b {
		t.Fatalf("lagged online session diverges from Run:\n got %s\nwant %s", a, b)
	}
}

// TestSessionLookupLifecycle walks one job through pending → live →
// completed and checks Lookup at each stage.
func TestSessionLookupLifecycle(t *testing.T) {
	jobs := []*Job{
		{ID: 1, Graph: dag.Chain(4, 1), Release: 5, Profit: step(t, 10, 50)},
	}
	s, err := NewSession(Config{M: 2}, jobs, &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	if _, st := s.Lookup(1); st != JobStatePending {
		t.Fatalf("before release: state %q, want pending", st)
	}
	if _, st := s.Lookup(99); st != JobStateUnknown {
		t.Fatalf("unknown id: state %q", st)
	}
	if err := s.AdvanceTo(6); err != nil { // tick 5 simulated
		t.Fatal(err)
	}
	if _, st := s.Lookup(1); st != JobStateLive {
		t.Fatalf("after release: state %q, want live", st)
	}
	if err := s.RunToEnd(); err != nil {
		t.Fatal(err)
	}
	stat, st := s.Lookup(1)
	if st != JobStateCompleted {
		t.Fatalf("after run: state %q, want completed", st)
	}
	if !stat.Completed || stat.CompletedAt != 9 { // chain of 4 from t=5
		t.Fatalf("stat = %+v, want completion at t=9", stat)
	}
	if !s.Idle() {
		t.Fatal("session should be idle")
	}
}

// TestSessionExpiredLookup checks Lookup reports expiry.
func TestSessionExpiredLookup(t *testing.T) {
	jobs := []*Job{
		{ID: 7, Graph: dag.Chain(10, 1), Release: 0, Profit: step(t, 5, 3)},
	}
	s, err := NewSession(Config{M: 1}, jobs, &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunToEnd(); err != nil {
		t.Fatal(err)
	}
	if _, st := s.Lookup(7); st != JobStateExpired {
		t.Fatalf("state %q, want expired", st)
	}
}

// TestSessionExpiryConsumesTick: when tick t's expiries empty the live set
// the tick is consumed, and the idle session's clock then follows
// AdvanceTo, so a job submitted online afterwards is stamped with that
// clock and a replay of the same history (AdvanceTo the release, then
// Arrive) reaches the same state. Both batch engines end such a run on the
// tick after the expiry, and so does the Result of a session whose clock
// moved on idle: Ticks counts the ticks the work ran, not the idle ones.
func TestSessionExpiryConsumesTick(t *testing.T) {
	first := func() *Job { return &Job{ID: 1, Graph: dag.Chain(10, 1), Release: 0, Profit: step(t, 5, 3)} }
	online, err := NewSession(Config{M: 1}, nil, &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	if err := online.Arrive(first()); err != nil {
		t.Fatal(err)
	}
	if err := online.AdvanceTo(100); err != nil {
		t.Fatal(err)
	}
	if _, st := online.Lookup(1); st != JobStateExpired {
		t.Fatalf("job 1 state %q, want expired", st)
	}
	second := &Job{ID: 2, Graph: dag.Chain(2, 1), Release: online.Now(), Profit: step(t, 1, 5)}
	if err := online.Arrive(second); err != nil {
		t.Fatal(err)
	}

	replay, err := NewSession(Config{M: 1}, nil, &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	if err := replay.Arrive(first()); err != nil {
		t.Fatal(err)
	}
	if err := replay.AdvanceTo(second.Release); err != nil {
		t.Fatal(err)
	}
	if err := replay.Arrive(&Job{ID: 2, Graph: second.Graph, Release: second.Release, Profit: second.Profit}); err != nil {
		t.Fatal(err)
	}
	if a, b := online.Fingerprint(), replay.Fingerprint(); a != b {
		t.Fatalf("online fingerprint %016x, replay %016x at clock %d", a, b, second.Release)
	}

	tick, err := Run(Config{M: 1}, []*Job{first()}, &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	evented, err := RunEvented(Config{M: 1}, []*Job{first()}, &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	idle, err := NewSession(Config{M: 1}, nil, &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	if err := idle.Arrive(first()); err != nil {
		t.Fatal(err)
	}
	if err := idle.AdvanceTo(100); err != nil {
		t.Fatal(err)
	}
	const expiry = 3 // job 1's step profit is worth nothing from latency 3 on
	if second.Release != 100 || tick.Ticks != expiry+1 || evented.Ticks != tick.Ticks || idle.Finish().Ticks != tick.Ticks {
		t.Fatalf("run ending on an expiry at tick %d: tick engine %d ticks, evented %d, idle session %d (clock %d)",
			expiry, tick.Ticks, evented.Ticks, idle.Finish().Ticks, second.Release)
	}
}

// TestSessionArriveRejections exercises Arrive's error paths: duplicates,
// stale releases, skipping ahead with live work, use after Finish, and
// mixing with scheduled arrivals.
func TestSessionArriveRejections(t *testing.T) {
	mk := func(id int, release int64) *Job {
		return &Job{ID: id, Graph: dag.Chain(3, 1), Release: release, Profit: step(t, 1, 100)}
	}
	s, err := NewSession(Config{M: 1}, nil, &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Arrive(mk(1, 4)); err != nil { // idle jump to t=4
		t.Fatal(err)
	}
	if got := s.Now(); got != 4 {
		t.Fatalf("clock %d after idle-jump arrival, want 4", got)
	}
	if err := s.Arrive(mk(1, 4)); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	if err := s.Arrive(mk(2, 3)); err == nil {
		t.Fatal("release before the clock accepted")
	}
	if err := s.Arrive(mk(3, 9)); err == nil {
		t.Fatal("release ahead of the clock accepted while jobs are live")
	}
	if err := s.Arrive(mk(4, 4)); err != nil { // same tick is fine
		t.Fatal(err)
	}
	if err := s.RunToEnd(); err != nil {
		t.Fatal(err)
	}
	s.Finish()
	if err := s.Arrive(mk(5, 50)); err == nil {
		t.Fatal("Arrive accepted on a finished session")
	}
	if err := s.AdvanceTo(100); err == nil {
		t.Fatal("AdvanceTo accepted on a finished session")
	}

	s2, err := NewSession(Config{M: 1}, []*Job{mk(1, 10)}, &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Arrive(mk(2, 0)); err == nil {
		t.Fatal("Arrive accepted with scheduled arrivals pending")
	}
}

// TestSessionFinishIdempotent checks Finish can be called repeatedly and
// that a horizon-stopped session reports still-live jobs.
func TestSessionFinishIdempotent(t *testing.T) {
	jobs := []*Job{
		{ID: 1, Graph: dag.Chain(20, 1), Release: 0, Profit: step(t, 5, 100)},
	}
	s, err := NewSession(Config{M: 1, Horizon: 5}, jobs, &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunToEnd(); err != nil {
		t.Fatal(err)
	}
	r1 := s.Finish()
	r2 := s.Finish()
	if r1 != r2 {
		t.Fatal("Finish not idempotent")
	}
	if r1.Ticks != 5 || len(r1.Jobs) != 1 || r1.Jobs[0].Completed {
		t.Fatalf("horizon result = %+v", r1)
	}
}

// TestSessionEventSafe checks the session-level marker follows the RunAuto
// routing rules: safe scheduler → safe session; opted-out scheduler, faults,
// or probes → unsafe.
func TestSessionEventSafe(t *testing.T) {
	safe, err := NewSession(Config{M: 2}, nil, &markedSched{safe: true})
	if err != nil {
		t.Fatal(err)
	}
	if !safe.EventSafe() {
		t.Error("event-safe scheduler: session reports unsafe")
	}
	unsafe, err := NewSession(Config{M: 2}, nil, &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.EventSafe() {
		t.Error("scheduler without the marker: session reports safe")
	}
	faulty, err := NewSession(Config{M: 2, Faults: &faults.Config{Seed: 1}}, nil, &markedSched{safe: true})
	if err != nil {
		t.Fatal(err)
	}
	if faulty.EventSafe() {
		t.Error("fault injection on: session reports event-safe")
	}
}

// TestSessionNextEventHint pins the hint against each event source: pending
// releases, completion lower bounds, expiries, idleness, and the horizon.
func TestSessionNextEventHint(t *testing.T) {
	// Idle session: nothing scheduled.
	s, err := NewSession(Config{M: 2}, nil, &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.NextEventHint(); ok {
		t.Error("idle session returned a hint")
	}

	// Scheduled arrival at tick 5: the hint is its release.
	s, err = NewSession(Config{M: 2}, []*Job{
		{ID: 1, Graph: dag.Chain(3, 1), Release: 5, Profit: step(t, 4, 10)},
	}, &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	if hint, ok := s.NextEventHint(); !ok || hint != 5 {
		t.Errorf("pending arrival: hint = %d, %v; want 5, true", hint, ok)
	}

	// Live chain of span 3 at full speed: the completion lower bound t+2
	// (its last tick) beats the expiry at lastUseful+1 = 10.
	if err := s.AdvanceTo(6); err != nil {
		t.Fatal(err)
	}
	if hint, ok := s.NextEventHint(); !ok || hint != 6+2-1 {
		t.Errorf("live chain: hint = %d, %v; want 7, true", hint, ok)
	}

	// Run to completion: idle again.
	if err := s.RunToEnd(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.NextEventHint(); ok {
		t.Error("completed session returned a hint")
	}

	// A long chain with a tight deadline: completion is at least 39 ticks
	// out, so the expiry tick bounds the hint.
	s, err = NewSession(Config{M: 1}, []*Job{
		{ID: 1, Graph: dag.Chain(40, 1), Release: 0, Profit: step(t, 4, 3)},
	}, &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(1); err != nil {
		t.Fatal(err)
	}
	if hint, ok := s.NextEventHint(); !ok || hint != 3 {
		t.Errorf("expiry-bound: hint = %d, %v; want 3 (lastUseful+1), true", hint, ok)
	}

	// Past the horizon the clock can never move again.
	s, err = NewSession(Config{M: 1, Horizon: 5}, []*Job{
		{ID: 1, Graph: dag.Chain(20, 1), Release: 0, Profit: step(t, 5, 100)},
	}, &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunToEnd(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.NextEventHint(); ok {
		t.Error("horizon-stopped session returned a hint")
	}
}

// TestSessionHintNeverLate drives a mixed workload tick by tick and checks
// the hint's contract: between the current clock and the hint, advancing
// never changes the fingerprint (no event fires before the hint).
func TestSessionHintNeverLate(t *testing.T) {
	jobs := sessionJobs(t, 24)
	s, err := NewSession(Config{M: 4}, jobs, &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	for {
		hint, ok := s.NextEventHint()
		if !ok {
			break
		}
		if hint < s.Now() {
			t.Fatalf("hint %d behind the clock %d", hint, s.Now())
		}
		// Advancing to the hint simulates every tick strictly before it;
		// none of those ticks may complete or expire a job (arrivals and
		// clock movement are fine — the hint bounds *events*).
		before := s.res.Completed + s.res.Expired
		if err := s.AdvanceTo(hint); err != nil {
			t.Fatal(err)
		}
		after := s.res.Completed + s.res.Expired
		if after != before {
			t.Fatalf("an event fired before the hint %d (clock %d): %d → %d finished jobs",
				hint, s.Now(), before, after)
		}
		// Step past the hint so the loop terminates.
		if err := s.AdvanceTo(hint + 1); err != nil {
			t.Fatal(err)
		}
	}
	if s.Live() != 0 || s.Pending() != 0 {
		t.Fatalf("loop ended with %d live, %d pending", s.Live(), s.Pending())
	}
}
