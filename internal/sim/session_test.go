package sim

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dagsched/internal/dag"
	"dagsched/internal/faults"
	"dagsched/internal/rational"
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

// resultJSON renders a result canonically for byte-level comparison. The
// Engine stamp names the stepping discipline, not an outcome, so it is left
// out.
func resultJSON(t *testing.T, res *Result) string {
	t.Helper()
	r := *res
	r.Engine = ""
	data, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// committedSched is the event-safe test scheduler with a commitment ledger:
// every job whose ID is a multiple of three is promised completion, so it
// runs past its deadline instead of expiring.
type committedSched struct{ markedSched }

func (s *committedSched) Committed(id int) bool { return id%3 == 0 }

// sessionCases are the scheduler and speed combinations the Session tests
// run under. fifoSched declares no event safety, so its sessions step one
// tick at a time; the same policy marked event-safe steps in intervals,
// also at a rational speed and with committed jobs running past their
// deadlines.
var sessionCases = []struct {
	name     string
	speed    rational.Rat
	interval bool
	mk       func() Scheduler
}{
	{"tick", rational.Rat{}, false, func() Scheduler { return &fifoSched{} }},
	{"interval", rational.Rat{}, true, func() Scheduler { return &markedSched{safe: true} }},
	{"interval-speed-3/2", rational.New(3, 2), true, func() Scheduler { return &markedSched{safe: true} }},
	{"interval-committed", rational.Rat{}, true, func() Scheduler { return &committedSched{markedSched{safe: true}} }},
}

// lockstep drives a session and a tick-discipline reference session through
// the same operations and fails on the first Fingerprint divergence, so an
// interval step that ends anywhere but on the reference's state is caught
// at the call that took it.
type lockstep struct {
	t      *testing.T
	s, ref *Session
}

func newLockstep(t *testing.T, cfg Config, jobs []*Job, mk func() Scheduler, interval bool) *lockstep {
	t.Helper()
	s, err := NewSession(cfg, jobs, mk())
	if err != nil {
		t.Fatal(err)
	}
	if s.interval != interval {
		t.Fatalf("session steps in intervals: %v, want %v", s.interval, interval)
	}
	ref, err := newSession(cfg, jobs, mk(), EngineTick)
	if err != nil {
		t.Fatal(err)
	}
	return &lockstep{t: t, s: s, ref: ref}
}

func (l *lockstep) check(op string) {
	l.t.Helper()
	if a, b := l.s.Fingerprint(), l.ref.Fingerprint(); a != b {
		l.t.Fatalf("%s: fingerprint %016x, tick reference %016x (clocks %d, %d)", op, a, b, l.s.Now(), l.ref.Now())
	}
}

func (l *lockstep) advanceTo(now int64) {
	l.t.Helper()
	if err := l.s.AdvanceTo(now); err != nil {
		l.t.Fatal(err)
	}
	if err := l.ref.AdvanceTo(now); err != nil {
		l.t.Fatal(err)
	}
	l.check(fmt.Sprintf("AdvanceTo(%d)", now))
}

func (l *lockstep) arrive(j *Job) {
	l.t.Helper()
	if err := l.s.Arrive(j); err != nil {
		l.t.Fatalf("Arrive(job %d): %v", j.ID, err)
	}
	if err := l.ref.Arrive(j); err != nil {
		l.t.Fatalf("reference Arrive(job %d): %v", j.ID, err)
	}
	l.check(fmt.Sprintf("Arrive(job %d)", j.ID))
}

// TestSessionBatchMatchesRun drives a session with the jobs given up front
// and checks the result is byte-identical to Run.
func TestSessionBatchMatchesRun(t *testing.T) {
	for _, tc := range sessionCases {
		t.Run(tc.name, func(t *testing.T) {
			jobs := sessionJobs(t, 40)
			cfg := Config{M: 6, Speed: tc.speed}
			want, err := Run(cfg, jobs, tc.mk())
			if err != nil {
				t.Fatal(err)
			}
			l := newLockstep(t, cfg, jobs, tc.mk, tc.interval)
			l.advanceTo(math.MaxInt64)
			got := l.s.Finish()
			if a, b := resultJSON(t, got), resultJSON(t, want); a != b {
				t.Fatalf("session result diverges from Run:\n got %s\nwant %s", a, b)
			}
			if _, ok := tc.mk().(Committer); ok {
				late := 0
				for _, st := range got.Jobs {
					if st.Completed && st.Profit == 0 {
						late++
					}
				}
				if late == 0 {
					t.Fatal("no committed job ran past its deadline")
				}
			}
		})
	}
}

// TestSessionOnlineMatchesRun submits every job online via Arrive at its
// release tick — advancing the session clock between submissions exactly as
// a serving daemon would — and checks the final result is byte-identical to
// a batch Run over the same job set.
func TestSessionOnlineMatchesRun(t *testing.T) {
	for _, tc := range sessionCases {
		t.Run(tc.name, func(t *testing.T) {
			jobs := sessionJobs(t, 40)
			cfg := Config{M: 6, Speed: tc.speed}
			want, err := Run(cfg, jobs, tc.mk())
			if err != nil {
				t.Fatal(err)
			}
			l := newLockstep(t, cfg, nil, tc.mk, tc.interval)
			for _, j := range sortJobsByRelease(jobs) {
				l.advanceTo(j.Release)
				l.arrive(j)
			}
			l.advanceTo(math.MaxInt64)
			if a, b := resultJSON(t, l.s.Finish()), resultJSON(t, want); a != b {
				t.Fatalf("online session diverges from Run:\n got %s\nwant %s", a, b)
			}
		})
	}
}

// TestSessionOnlineLaggedClockMatchesRun replays the online feed but pushes
// the session clock in uneven increments — one tick at a time with redundant
// repeat calls, the way a serving loop's timer fires between submissions —
// so correctness must not depend on how AdvanceTo's work is batched.
func TestSessionOnlineLaggedClockMatchesRun(t *testing.T) {
	for _, tc := range sessionCases {
		t.Run(tc.name, func(t *testing.T) {
			jobs := sessionJobs(t, 30)
			cfg := Config{M: 6, Speed: tc.speed}
			want, err := Run(cfg, jobs, tc.mk())
			if err != nil {
				t.Fatal(err)
			}
			l := newLockstep(t, cfg, nil, tc.mk, tc.interval)
			for _, j := range sortJobsByRelease(jobs) {
				// Unit-step the clock up to the release, with a redundant
				// repeat call every tick: AdvanceTo must be idempotent at a
				// fixed target and insensitive to step size.
				for now := l.s.Now(); now < j.Release; now++ {
					l.advanceTo(now + 1)
					l.advanceTo(now + 1)
				}
				l.advanceTo(j.Release)
				l.arrive(j)
			}
			l.advanceTo(math.MaxInt64)
			if a, b := resultJSON(t, l.s.Finish()), resultJSON(t, want); a != b {
				t.Fatalf("lagged online session diverges from Run:\n got %s\nwant %s", a, b)
			}
		})
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
// Arrive) reaches the same state. Both batch entry points end such a run on
// the tick after the expiry, and so does the Result of a session whose
// clock moved on idle: Ticks counts the ticks the work ran, not the idle
// ones.
func TestSessionExpiryConsumesTick(t *testing.T) {
	for _, tc := range sessionCases {
		t.Run(tc.name, func(t *testing.T) {
			first := func() *Job { return &Job{ID: 1, Graph: dag.Chain(10, 1), Release: 0, Profit: step(t, 5, 3)} }
			cfg := Config{M: 1, Speed: tc.speed}
			online := newLockstep(t, cfg, nil, tc.mk, tc.interval)
			online.arrive(first())
			online.advanceTo(100)
			if _, st := online.s.Lookup(1); st != JobStateExpired {
				t.Fatalf("job 1 state %q, want expired", st)
			}
			second := &Job{ID: 2, Graph: dag.Chain(2, 1), Release: online.s.Now(), Profit: step(t, 1, 5)}
			online.arrive(second)

			replay := newLockstep(t, cfg, nil, tc.mk, tc.interval)
			replay.arrive(first())
			replay.advanceTo(second.Release)
			replay.arrive(&Job{ID: 2, Graph: second.Graph, Release: second.Release, Profit: second.Profit})
			if a, b := online.s.Fingerprint(), replay.s.Fingerprint(); a != b {
				t.Fatalf("online fingerprint %016x, replay %016x at clock %d", a, b, second.Release)
			}

			tick, err := Run(cfg, []*Job{first()}, tc.mk())
			if err != nil {
				t.Fatal(err)
			}
			evented, err := RunEvented(cfg, []*Job{first()}, tc.mk())
			if err != nil {
				t.Fatal(err)
			}
			idle := newLockstep(t, cfg, nil, tc.mk, tc.interval)
			idle.arrive(first())
			idle.advanceTo(100)
			const expiry = 3 // job 1's step profit is worth nothing from latency 3 on
			if second.Release != 100 || tick.Ticks != expiry+1 || evented.Ticks != tick.Ticks || idle.s.Finish().Ticks != tick.Ticks {
				t.Fatalf("run ending on an expiry at tick %d: tick engine %d ticks, evented %d, idle session %d (clock %d)",
					expiry, tick.Ticks, evented.Ticks, idle.s.Finish().Ticks, second.Release)
			}
		})
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
// releases, completion lower bounds, expiries, idleness, and the horizon;
// then a session that is not event-safe, whose hint is the next tick while
// work is live.
func TestSessionNextEventHint(t *testing.T) {
	safe := func() Scheduler { return &markedSched{safe: true} }
	// Idle session: nothing scheduled.
	s, err := NewSession(Config{M: 2}, nil, safe())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.NextEventHint(); ok {
		t.Error("idle session returned a hint")
	}

	// Scheduled arrival at tick 5: the hint is its release.
	s, err = NewSession(Config{M: 2}, []*Job{
		{ID: 1, Graph: dag.Chain(3, 1), Release: 5, Profit: step(t, 4, 10)},
	}, safe())
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
	}, safe())
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
	}, safe())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunToEnd(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.NextEventHint(); ok {
		t.Error("horizon-stopped session returned a hint")
	}

	// Not event-safe: a pending release is still the hint and an idle
	// session still has none, but a live job pins the hint to the next tick
	// even when its completion bound and expiry are far out.
	s, err = NewSession(Config{M: 1}, []*Job{
		{ID: 1, Graph: dag.Chain(40, 1), Release: 5, Profit: step(t, 3, 60)},
	}, &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	if s.EventSafe() {
		t.Fatal("fifoSched session reports event safety")
	}
	if hint, ok := s.NextEventHint(); !ok || hint != 5 {
		t.Errorf("unsafe, pending arrival: hint = %d, %v; want 5, true", hint, ok)
	}
	for _, now := range []int64{6, 7, 20} {
		if err := s.AdvanceTo(now); err != nil {
			t.Fatal(err)
		}
		if hint, ok := s.NextEventHint(); !ok || hint != now {
			t.Errorf("unsafe, live chain at %d: hint = %d, %v; want %d, true", now, hint, ok, now)
		}
	}
	if err := s.RunToEnd(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.NextEventHint(); ok {
		t.Error("unsafe completed session returned a hint")
	}
}

// TestSessionHintNeverLate drives a mixed workload from hint to hint and
// checks the hint's contract: between the current clock and the hint,
// advancing never changes the fingerprint (no event fires before the hint).
func TestSessionHintNeverLate(t *testing.T) {
	for _, tc := range sessionCases {
		t.Run(tc.name, func(t *testing.T) {
			l := newLockstep(t, Config{M: 4, Speed: tc.speed}, sessionJobs(t, 24), tc.mk, tc.interval)
			s := l.s
			for {
				hint, ok := s.NextEventHint()
				if !ok {
					break
				}
				if hint < s.Now() {
					t.Fatalf("hint %d behind the clock %d", hint, s.Now())
				}
				// Advancing to the hint simulates every tick strictly before
				// it; none of those ticks may complete or expire a job
				// (arrivals and clock movement are fine — the hint bounds
				// *events*).
				before := s.res.Completed + s.res.Expired
				l.advanceTo(hint)
				after := s.res.Completed + s.res.Expired
				if after != before {
					t.Fatalf("an event fired before the hint %d (clock %d): %d → %d finished jobs",
						hint, s.Now(), before, after)
				}
				// Step past the hint so the loop terminates.
				l.advanceTo(hint + 1)
			}
			if s.Live() != 0 || s.Pending() != 0 {
				t.Fatalf("loop ended with %d live, %d pending", s.Live(), s.Pending())
			}
		})
	}
}
