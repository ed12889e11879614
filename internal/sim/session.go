package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"dagsched/internal/dag"
	"dagsched/internal/faults"
	"dagsched/internal/rational"
	"dagsched/internal/telemetry"
)

// Session is the simulation engine: one stepping loop, sliced into
// externally clocked steps with support for online job submission. A
// long-running process (internal/serve) drives a Session from a wall clock
// and feeds it arrivals as they come in; Run, RunEvented and RunAuto are a
// Session advanced to the end in one call, so batch runs and serving share
// one code path — re-simulating a session's accepted job set offline
// reproduces its Result exactly.
//
// A step holds one allocation. Under the tick discipline it is one tick
// wide. Under the interval discipline it spans every tick up to the next
// event — the earliest picked-node completion, pending release, expiry,
// the horizon, or the AdvanceTo target — since an event-stationary
// scheduler's allocation cannot change before then; a step is still one
// tick wide whenever per-tick output (faults, a telemetry probe, a recorded
// trace) is asked for. Both disciplines produce bit-identical Results (but
// for the Engine stamp, which names the discipline) and Fingerprints.
//
// A Session is not safe for concurrent use; callers serialize access (the
// serving daemon owns one from a single engine goroutine).
type Session struct {
	cfg    Config
	e      *engine
	res    *Result
	sched  Scheduler
	policy dag.PickPolicy
	rec    *telemetry.Recorder
	fm     *faults.Model

	// interval: a step may span several ticks (the interval discipline,
	// with no per-tick output asked for). Fixed at construction.
	interval bool

	t       int64
	idleGap int64  // ticks the clock has moved idle since the work ran out
	pending []*Job // scheduled arrivals, (release, ID)-ordered; pending[next:] due
	next    int
	seen    map[int]bool // every job ID ever accepted

	// Reused per-step buffers: the allocation, the running set with its
	// picked nodes as windows into one arena, and the step's completions.
	allocBuf  []Alloc
	running   []runAlloc
	arena     []dag.NodeID
	completed []*liveJob

	// Fault bookkeeping, allocated only when injection is on.
	ca         CapacityAware
	fs         *FaultStats
	upBuf      []int
	prevUp     []bool
	curUp      []bool
	lastCap    int
	lostScaled int64 // work discarded by execution failures, scaled units

	finished bool
	doneIdx  map[int]int // finished job ID → index into res.Jobs
}

// JobState classifies a job's position in a session's lifecycle.
type JobState string

const (
	// JobStateUnknown: the session has never seen this ID.
	JobStateUnknown JobState = "unknown"
	// JobStatePending: accepted but its release tick has not been reached.
	JobStatePending JobState = "pending"
	// JobStateLive: released and executing or awaiting processors.
	JobStateLive JobState = "live"
	// JobStateCompleted: finished all nodes in time.
	JobStateCompleted JobState = "completed"
	// JobStateExpired: left the system past its last profitable tick.
	JobStateExpired JobState = "expired"
)

// runAlloc is one step's execution record for a job: the grant and the
// picked nodes as a window [lo, hi) into the session's node arena.
type runAlloc struct {
	lj     *liveJob
	procs  int
	lo, hi int
}

// NewSession validates the configuration and job set and returns a session
// positioned before the first tick. The jobs slice may be empty: online
// submissions arrive later through Arrive. The session steps in intervals
// exactly when RunAuto would (see EventSafe), and one tick at a time
// otherwise.
func NewSession(cfg Config, jobs []*Job, sched Scheduler) (*Session, error) {
	eng, _ := routeEngine(cfg, sched)
	return newSession(cfg, jobs, sched, eng)
}

// newSession builds a session under the given discipline: EngineTick steps
// one tick at a time, EngineEvented in intervals. The name is stamped on
// the Result.
func newSession(cfg Config, jobs []*Job, sched Scheduler, discipline string) (*Session, error) {
	if cfg.M < 1 {
		return nil, fmt.Errorf("sim: M = %d, need ≥ 1", cfg.M)
	}
	speed := cfg.Speed.Reduced()
	if speed.IsZero() {
		speed = rational.One()
	}
	if !speed.IsPositive() {
		return nil, fmt.Errorf("sim: speed %v must be positive", cfg.Speed)
	}
	if err := ValidateJobs(jobs); err != nil {
		return nil, err
	}
	policy := cfg.Policy
	if policy == nil {
		policy = dag.ByID{}
	}
	e := &engine{
		cfg:     cfg,
		perTick: speed.Num,
		scale:   speed.Den,
		live:    make(map[int]*liveJob),
	}
	e.committer, _ = sched.(Committer)
	res := &Result{
		Scheduler: sched.Name(),
		M:         cfg.M,
		Speed:     speed.Float(),
		Engine:    discipline,
	}
	if cfg.Record {
		res.Trace = &Trace{M: cfg.M}
	}
	ordered := sortJobsByRelease(jobs)
	for _, j := range ordered {
		res.OfferedProfit += j.Profit.At(1)
	}
	sched.Init(Env{M: cfg.M, Speed: speed.Float()})
	s := &Session{
		cfg:     cfg,
		e:       e,
		res:     res,
		sched:   sched,
		policy:  policy,
		rec:     cfg.Telemetry,
		pending: ordered,
		seen:    make(map[int]bool, len(ordered)),
		lastCap: cfg.M,
		doneIdx: make(map[int]int, len(ordered)),
	}
	s.interval = discipline == EngineEvented && cfg.Faults == nil && !cfg.Record &&
		(cfg.Telemetry == nil || cfg.Telemetry.Probe == nil)
	for _, j := range ordered {
		s.seen[j.ID] = true
	}
	if cfg.Faults != nil {
		fm, err := faults.NewModel(*cfg.Faults, cfg.M)
		if err != nil {
			return nil, err
		}
		s.fm = fm
		s.ca, _ = sched.(CapacityAware)
		s.fs = &FaultStats{MinCapacity: cfg.M}
		res.Faults = s.fs
		s.upBuf = make([]int, 0, cfg.M)
		s.prevUp = make([]bool, cfg.M)
		s.curUp = make([]bool, cfg.M)
		for p := range s.prevUp {
			s.prevUp[p] = true
		}
	}
	return s, nil
}

// Now returns the session's clock: the next tick to be simulated.
func (s *Session) Now() int64 { return s.t }

// Live returns the number of released, unfinished jobs.
func (s *Session) Live() int { return len(s.e.live) }

// Pending returns the number of accepted jobs whose release tick has not
// been reached.
func (s *Session) Pending() int { return len(s.pending) - s.next }

// Idle reports whether no un-simulated work remains: every accepted job has
// either completed or expired.
func (s *Session) Idle() bool { return !s.runnable() }

func (s *Session) runnable() bool { return s.next < len(s.pending) || len(s.e.live) > 0 }

// Lookup reports a job's state and, once released, its evolving stat record.
func (s *Session) Lookup(id int) (JobStat, JobState) {
	if lj, ok := s.e.live[id]; ok {
		return lj.stat, JobStateLive
	}
	if i, ok := s.doneIdx[id]; ok {
		st := s.res.Jobs[i]
		if st.Completed {
			return st, JobStateCompleted
		}
		return st, JobStateExpired
	}
	for _, j := range s.pending[s.next:] {
		if j.ID == id {
			return JobStat{ID: id, Released: j.Release}, JobStatePending
		}
	}
	return JobStat{}, JobStateUnknown
}

// Arrive submits one job online and processes its arrival immediately: the
// scheduler's OnArrival fires before Arrive returns, so an admission
// decision taken there (SchedulerS moving the job into Q or P) is observable
// right away. The job's Release stamps the arrival tick: it must be ≥ the
// session clock, and — because released work is simulated before the clock
// moves — exactly the current tick while live jobs remain. An idle session
// jumps its clock to the release, exactly as Run jumps over idle gaps, so a
// session fed online and a Run over the same job set stay bit-identical.
//
// Arrive cannot be mixed with scheduled arrivals still pending from
// NewSession; it returns an error until those have been released.
func (s *Session) Arrive(j *Job) error {
	if s.finished {
		return fmt.Errorf("sim: Arrive on a finished session")
	}
	if s.next < len(s.pending) {
		return fmt.Errorf("sim: Arrive with %d scheduled arrivals still pending", len(s.pending)-s.next)
	}
	if err := j.Validate(); err != nil {
		return err
	}
	if s.seen[j.ID] {
		return fmt.Errorf("sim: duplicate job ID %d", j.ID)
	}
	if j.Release < s.t {
		return fmt.Errorf("sim: job %d released at %d, before the session clock %d", j.ID, j.Release, s.t)
	}
	if len(s.e.live) > 0 && j.Release != s.t {
		return fmt.Errorf("sim: job %d released at %d, ahead of the session clock %d with live jobs", j.ID, j.Release, s.t)
	}
	if len(s.e.live) == 0 && j.Release > s.t {
		s.t = j.Release // the idle-gap jump Run takes
	}
	s.idleGap = 0
	s.seen[j.ID] = true
	s.res.OfferedProfit += j.Profit.At(1)
	s.e.arrive(s.t, j, s.rec, s.sched)
	return nil
}

// AdvanceTo simulates every tick strictly before now that has work, jumping
// over idle gaps exactly as Run does. It stops early at Config.Horizon.
// When no accepted job remains unfinished the clock moves on to now (but
// not past the horizon), so a job submitted next is stamped with the tick
// it arrives at, not the tick the session went idle; RunToEnd's
// open-ended advance leaves the clock where the work ran out. Tick t is
// simulated once the clock passes t, so arrivals for tick t submitted
// before that keep their place.
func (s *Session) AdvanceTo(now int64) error {
	if s.finished {
		return fmt.Errorf("sim: AdvanceTo on a finished session")
	}
	for s.runnable() {
		if s.cfg.Horizon > 0 && s.t >= s.cfg.Horizon {
			return nil
		}
		if len(s.e.live) == 0 && s.pending[s.next].Release > s.t {
			s.t = s.pending[s.next].Release
		}
		if s.t >= now {
			return nil
		}
		if err := s.step(now); err != nil {
			return err
		}
	}
	if s.cfg.Horizon > 0 {
		now = min(now, s.cfg.Horizon)
	}
	if now > s.t && now != math.MaxInt64 {
		s.idleGap += now - s.t
		s.t = now
	}
	return nil
}

// RunToEnd advances until every accepted job has completed or expired (or
// the horizon cuts the run short).
func (s *Session) RunToEnd() error { return s.AdvanceTo(math.MaxInt64) }

// Finish seals the session and returns its Result: stats of jobs still live
// (horizon stops), the tick count, fault totals, and registry aggregates.
// Further Arrive/AdvanceTo calls fail; Finish is idempotent.
func (s *Session) Finish() *Result {
	if s.finished {
		return s.res
	}
	s.finished = true
	for _, lj := range s.e.liveList {
		s.res.Jobs = append(s.res.Jobs, lj.stat)
	}
	s.res.Ticks = s.t - s.idleGap // idle time after the work ran out is not a tick run
	if s.fs != nil {
		s.fs.LostWork = s.lostScaled / s.e.scale
	}
	if s.rec != nil {
		recordRunAggregates(s.rec, s.res)
	}
	return s.res
}

// step simulates one step starting at tick t = s.Now(): due arrivals,
// expiries, the fault prologue, the scheduler's allocation, execution,
// probe sampling, preemption accounting, and completions. The step is one
// tick wide unless s.interval lets it span up to the next event, and it
// ends no later than now, the AdvanceTo target; the allocation is held
// throughout, so every picked node runs all of the step's ticks. When the live set is
// empty after expiries tick t is still consumed (the clock moves to t+1)
// but nothing is allocated: tick t's arrivals and expiries are done, so a
// job submitted online afterwards must be stamped t+1 — stamping it t would
// commit it after t's expiries, while any replay of the same history
// (AdvanceTo(t), then Arrive) commits it before them.
func (s *Session) step(now int64) error {
	t := s.t
	e, res, rec, sched, cfg := s.e, s.res, s.rec, s.sched, s.cfg
	mark := len(res.Jobs)

	// Arrivals.
	for s.next < len(s.pending) && s.pending[s.next].Release <= t {
		e.arrive(t, s.pending[s.next], rec, sched)
		s.next++
	}
	// Expiries: completing after lastUseful earns nothing, so the job
	// leaves the system.
	nextExpiry := e.expire(t, res, rec, sched)
	if len(e.live) == 0 {
		s.indexDone(mark)
		s.t = t + 1
		return nil
	}

	// Fault prologue: effective capacity for this tick, announced to
	// capacity-aware schedulers before they allocate.
	var upList []int
	if s.fm != nil {
		upList = s.fm.UpProcs(t, s.upBuf[:0])
		s.upBuf = upList[:0]
		c := len(upList)
		for p := range s.curUp {
			s.curUp[p] = false
		}
		for _, p := range upList {
			s.curUp[p] = true
		}
		for p := range s.prevUp {
			if s.prevUp[p] && !s.curUp[p] {
				s.fs.CrashEvents++
				if rec != nil {
					rec.Emit(telemetry.ProcEvent(t, telemetry.KindFaultBegin, p))
				}
			} else if !s.prevUp[p] && s.curUp[p] && rec != nil {
				rec.Emit(telemetry.ProcEvent(t, telemetry.KindFaultEnd, p))
			}
		}
		copy(s.prevUp, s.curUp)
		s.fs.DownProcTicks += int64(cfg.M - c)
		if c < cfg.M {
			s.fs.DegradedTicks++
		}
		if c < s.fs.MinCapacity {
			s.fs.MinCapacity = c
		}
		if c != s.lastCap {
			if rec != nil {
				ev := telemetry.MachineEvent(t, telemetry.KindCapacity)
				ev.Procs = c
				rec.Emit(ev)
			}
			if s.ca != nil {
				s.ca.OnCapacityChange(t, c)
			}
		}
		s.lastCap = c
	}

	// Allocation.
	s.allocBuf = sched.Assign(t, e, s.allocBuf[:0])
	if _, err := e.checkAllocs(t, s.allocBuf, sched); err != nil {
		return err
	}

	// Pick the running nodes once; they run for the whole step.
	var tick *TickRecord
	if res.Trace != nil {
		res.Trace.Ticks = append(res.Trace.Ticks, TickRecord{T: t})
		tick = &res.Trace.Ticks[len(res.Trace.Ticks)-1]
	}
	var tf *TickFaults
	if s.fm != nil && tick != nil {
		tf = &TickFaults{Capacity: len(upList)}
		for p := 0; p < cfg.M; p++ {
			if !s.curUp[p] {
				tf.Down = append(tf.Down, p)
			}
		}
		tick.Faults = tf
	}
	delta := int64(1)
	if s.interval {
		delta = now - t
	}
	upCursor := 0
	running := s.running[:0]
	arena := s.arena[:0]
	for _, a := range s.allocBuf {
		lj := e.live[a.JobID]
		if rec != nil && a.Procs != lj.lastProcs {
			ev := telemetry.JobEvent(t, telemetry.KindDispatch, a.JobID)
			ev.Procs = a.Procs
			rec.Emit(ev)
		}
		lj.lastProcs = a.Procs
		procs := a.Procs
		if s.fm != nil {
			// Map the grant onto live processors in id order: grants
			// beyond capacity land nowhere, and a straggling processor
			// holds its slot without progressing this tick.
			take := procs
			if avail := len(upList) - upCursor; take > avail {
				s.fs.DroppedProcTicks += int64(take - avail)
				take = avail
			}
			procs = 0
			for i := 0; i < take; i++ {
				p := upList[upCursor+i]
				if s.fm.Straggling(t, p) {
					s.fs.StraggleProcTicks++
					if tf != nil {
						tf.Slow = append(tf.Slow, p)
					}
				} else {
					procs++
				}
			}
			upCursor += take
		}
		lo := len(arena)
		if procs > 0 {
			arena = s.policy.Pick(lj.state, procs, arena)
		}
		if s.fm != nil && len(arena) > lo {
			// Execution failures: the node's attempt produces nothing
			// and its accumulated work is discarded.
			var lost int64
			failed := false
			kept := arena[lo:lo]
			for _, v := range arena[lo:] {
				if s.fm.NodeFails(t, a.JobID, int(v)) {
					failed = true
					l := lj.state.ResetNode(v)
					lost += l
					s.fs.Retries++
					if tf != nil {
						tf.Failed = append(tf.Failed, NodeFailure{JobID: a.JobID, Node: v, Lost: l})
					}
				} else {
					kept = append(kept, v)
				}
			}
			arena = arena[:lo+len(kept)]
			if failed {
				s.lostScaled += lost
				if rec != nil {
					ev := telemetry.JobEvent(t, telemetry.KindWorkLost, a.JobID)
					ev.Value = float64(lost / e.scale)
					rec.Emit(ev)
				}
				if s.ca != nil {
					s.ca.OnWorkLost(t, a.JobID, lost/e.scale)
				}
			}
		}
		if s.interval {
			// The step ends no later than the tick a picked node finishes.
			for _, v := range arena[lo:] {
				delta = min(delta, (lj.state.Remaining(v)+e.perTick-1)/e.perTick)
			}
		}
		if tick != nil {
			tick.Allocs = append(tick.Allocs, AllocRecord{
				JobID: a.JobID,
				Procs: a.Procs,
				Nodes: append([]dag.NodeID(nil), arena[lo:]...),
			})
		}
		running = append(running, runAlloc{lj: lj, procs: a.Procs, lo: lo, hi: len(arena)})
	}
	s.running, s.arena = running[:0], arena[:0]
	if s.interval {
		// Nor past the next release, expiry, or the horizon.
		if s.next < len(s.pending) {
			delta = min(delta, s.pending[s.next].Release-t)
		}
		delta = min(delta, nextExpiry-t)
		if cfg.Horizon > 0 {
			delta = min(delta, cfg.Horizon-t)
		}
	}

	// Execution.
	completed := s.completed[:0]
	for _, r := range running {
		for _, v := range arena[r.lo:r.hi] {
			r.lj.state.Apply(v, delta*e.perTick)
		}
		r.lj.stat.ProcTicks += delta * int64(r.procs)
		r.lj.ranNow = true
		if r.lj.state.Done() {
			completed = append(completed, r.lj)
		}
	}
	busy := len(arena)
	res.BusyProcTicks += delta * int64(busy)
	res.IdleProcTicks += delta * int64(cfg.M-busy)

	// Probe sampling (post-execution state of the sampled tick; a probe
	// keeps every step one tick wide).
	if rec != nil && rec.Probe.Want(t) {
		capNow := cfg.M
		if s.fm != nil {
			capNow = len(upList)
		}
		ready := 0
		for _, lj := range e.liveList {
			if !lj.state.Done() {
				ready += lj.state.ReadyCount()
			}
		}
		rec.Probe.ObserveTick(telemetry.TickSample{
			T: t, Capacity: capNow, Busy: busy,
			LiveJobs: len(e.liveList), ReadyNodes: ready,
		})
		if rec.Probe.PerJob {
			for _, lj := range e.liveList {
				rem := lj.state.RemainingSpan()
				rec.Probe.ObserveJob(telemetry.JobSample{
					T: t, Job: lj.job.ID,
					Executed:      lj.state.ExecutedWork() / e.scale,
					RemainingSpan: (rem + e.scale - 1) / e.scale,
					Slack:         lj.lastUseful + 1 - t,
					Ready:         lj.state.ReadyCount(),
				})
			}
		}
	}

	// Preemption accounting (the running set is constant within a step).
	for _, lj := range e.liveList {
		if lj.ranLast && !lj.ranNow && !lj.state.Done() {
			lj.stat.Preemptions++
			if rec != nil {
				rec.Emit(telemetry.JobEvent(t, telemetry.KindPreempt, lj.job.ID))
			}
		}
		if !lj.ranNow {
			lj.lastProcs = 0
		}
		lj.ranLast = lj.ranNow
		lj.ranNow = false
	}

	// Completions, during the step's last tick (completion time end).
	end := t + delta
	for _, lj := range completed {
		lj.done = true
		lj.stat.Completed = true
		lj.stat.CompletedAt = end
		lj.stat.Latency = end - lj.job.Release
		lj.stat.Profit = lj.job.Profit.At(lj.stat.Latency)
		res.TotalProfit += lj.stat.Profit
		res.Completed++
		res.Jobs = append(res.Jobs, lj.stat)
		if rec != nil {
			ev := telemetry.JobEvent(end, telemetry.KindComplete, lj.job.ID)
			ev.Value = lj.stat.Profit
			rec.Emit(ev)
			rec.Registry().Observe("job.latency", float64(lj.stat.Latency))
			rec.Registry().Observe("job.slack_at_finish", float64(lj.lastUseful-(end-1)))
		}
		delete(e.live, lj.job.ID)
		sched.OnCompletion(end-1, lj.job.ID)
	}
	if len(completed) > 0 {
		e.compactLive()
		clear(completed)
	}
	s.completed = completed[:0]
	s.indexDone(mark)
	s.t = end
	return nil
}

// EventSafe reports whether this session steps under the interval
// discipline, which NewSession picks exactly when the (scheduler, policy,
// faults, probe) combination is event-stationary under the RunAuto routing
// rules: nothing observable changes between arrivals, expiries, and
// completions, so NextEventHint can look past the ticks in between.
func (s *Session) EventSafe() bool { return s.res.Engine == EngineEvented }

// NextEventHint returns a lower bound on the next tick whose simulation can
// change observable state, so an event-driven caller may sleep until the
// clock passes it and then burst every deferred tick in one AdvanceTo. For
// an event-safe session (EventSafe) that is the earliest pending release,
// the earliest live expiry (lastUseful+1), or the earliest tick any live
// job could complete (critical path shrinks by at most the per-tick rate).
// Any other session's scheduler may change its decisions on any tick while
// work is live, so with live jobs the hint is the very next tick, Now(). ok
// is false when nothing is scheduled — the session is finished, idle, or
// past its horizon — so the caller can sleep unarmed. The hint may be early
// (a job rarely completes at its lower bound; callers re-arm after
// advancing) but never late: no arrival, expiry, or completion is
// observable before the clock passes the hint.
func (s *Session) NextEventHint() (int64, bool) {
	if s.finished || !s.runnable() {
		return 0, false
	}
	if s.cfg.Horizon > 0 && s.t >= s.cfg.Horizon {
		return 0, false
	}
	if len(s.e.live) > 0 && !s.EventSafe() {
		return s.t, true
	}
	next := int64(math.MaxInt64)
	if s.next < len(s.pending) {
		next = max(s.pending[s.next].Release, s.t)
	}
	for _, lj := range s.e.liveList {
		if lj.done {
			continue
		}
		if !(s.e.committer != nil && s.e.committer.Committed(lj.job.ID)) {
			// Committed jobs have no expiry event; only their completion
			// bound below applies. (An overdue committed job would otherwise
			// pin the hint in the past and busy-spin an event-jump caller.)
			next = min(next, lj.lastUseful+1)
		}
		// Earliest completion: ceil(remaining span / per-tick work) more
		// ticks, the last of which is tick t+k-1 (completion stamps t+k).
		k := (lj.state.RemainingSpan() + s.e.perTick - 1) / s.e.perTick
		if k < 1 {
			k = 1
		}
		next = min(next, s.t+k-1)
	}
	return next, true
}

// Fingerprint returns a deterministic 64-bit digest of the session's
// simulation state: the clock, the Result accumulators, every finished job's
// stats, the pending set, and each live job's execution progress (executed
// work, remaining span, ready set size, preemption history). Two sessions fed
// the same arrivals at the same clocks agree on the fingerprint at every
// step; a divergence means the runs are no longer bit-identical. The serving
// layer's durability checkpoints store it and crash recovery recomputes it
// after replaying the write-ahead log, refusing to serve from state that
// drifted from the pre-crash engine.
func (s *Session) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	i := func(v int64) { u(uint64(v)) }
	f := func(v float64) { u(math.Float64bits(v)) }
	b := func(v bool) {
		if v {
			u(1)
		} else {
			u(0)
		}
	}
	stat := func(st *JobStat) {
		i(int64(st.ID))
		i(st.Released)
		i(st.W)
		i(st.L)
		b(st.Completed)
		i(st.CompletedAt)
		i(st.Latency)
		f(st.Profit)
		i(st.ProcTicks)
		i(st.Preemptions)
	}

	i(s.t)
	f(s.res.OfferedProfit)
	f(s.res.TotalProfit)
	i(int64(s.res.Completed))
	i(int64(s.res.Expired))
	i(s.res.BusyProcTicks)
	i(s.res.IdleProcTicks)
	i(int64(len(s.res.Jobs)))
	for k := range s.res.Jobs {
		stat(&s.res.Jobs[k])
	}
	i(int64(s.Pending()))
	for _, j := range s.pending[s.next:] {
		i(int64(j.ID))
		i(j.Release)
	}
	i(int64(len(s.e.liveList)))
	for _, lj := range s.e.liveList {
		stat(&lj.stat)
		i(lj.state.ExecutedWork())
		i(lj.state.RemainingSpan())
		i(int64(lj.state.ReadyCount()))
		i(lj.lastUseful)
		i(int64(lj.lastProcs))
		b(lj.ranLast)
	}
	return h.Sum64()
}

// indexDone records res.Jobs entries appended since mark in the finished-job
// index, keeping Lookup O(1) for completed and expired jobs.
func (s *Session) indexDone(mark int) {
	for i := mark; i < len(s.res.Jobs); i++ {
		s.doneIdx[s.res.Jobs[i].ID] = i
	}
}
