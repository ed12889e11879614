package sim

import (
	"fmt"
	"math"

	"dagsched/internal/dag"
	"dagsched/internal/faults"
	"dagsched/internal/rational"
	"dagsched/internal/telemetry"
)

// Config parameterizes a simulation run.
type Config struct {
	// M is the number of identical processors; must be ≥ 1.
	M int
	// Speed is the speed-augmentation factor; the zero value means speed 1.
	// Speed p/q is realized exactly: node works are scaled by q and each
	// busy processor applies p work units per tick.
	Speed rational.Rat
	// Policy chooses which ready nodes run when a job gets fewer processors
	// than it has ready nodes. Nil means dag.ByID (deterministic,
	// structure-oblivious).
	Policy dag.PickPolicy
	// Horizon, when positive, hard-stops the simulation at that tick.
	// Otherwise the run ends when every job has completed or expired.
	Horizon int64
	// Record enables full trace capture in the Result.
	Record bool
	// Faults optionally enables deterministic fault injection: processor
	// crash/repair schedules, straggler slowdowns, and node-execution
	// failures, all pure functions of (Faults.Seed, tick, entity) — see
	// internal/faults. Nil keeps the engine on the exact fault-free path;
	// replaying a faulty run under the same Faults config reproduces it
	// tick for tick.
	Faults *faults.Config
	// Telemetry, when non-nil, receives the run's decision-event stream,
	// metric registry updates, and (when Telemetry.Probe is set) per-tick
	// time-series samples. Nil disables instrumentation entirely: the hot
	// step loop then performs only nil checks and allocates nothing extra.
	Telemetry *telemetry.Recorder
	// OnRoute, when set, is invoked once per RunAuto call with the chosen
	// stepping discipline ("tick": one tick per step, or "evented": one
	// event interval per step) and the reason for the choice. Run,
	// RunEvented and NewSession never invoke it.
	OnRoute func(engine, reason string)
}

// liveJob is the engine's per-job runtime record.
type liveJob struct {
	job   *Job
	view  JobView
	state *dag.State
	stat  JobStat

	lastUseful int64  // last tick whose completion still earns profit
	lastProcs  int    // processor grant of the previous tick (telemetry)
	seenGen    uint64 // generation stamp for duplicate-allocation detection
	ranLast    bool   // executed in the previous tick
	ranNow     bool
	done       bool
}

// engine implements AssignView and FullView over the live set.
type engine struct {
	cfg      Config
	perTick  int64 // work units applied per busy processor per tick
	scale    int64 // work scaling factor (speed denominator)
	live     map[int]*liveJob
	liveList []*liveJob // stable iteration order (arrival order)

	gen    uint64                // current allocation-validation generation
	scaled map[*dag.DAG]*dag.DAG // scaleGraph cache (scale is fixed per run)

	// committer is the scheduler's commitment probe (nil when the scheduler
	// makes no binding promises). The engine consults it only for jobs
	// already past lastUseful, so the fault-free hot path never pays for it.
	committer Committer
}

// ReadyCount implements AssignView.
func (e *engine) ReadyCount(jobID int) int {
	lj, ok := e.live[jobID]
	if !ok || lj.done {
		return 0
	}
	return lj.state.ReadyCount()
}

// ExecutedWork implements AssignView.
func (e *engine) ExecutedWork(jobID int) int64 {
	lj, ok := e.live[jobID]
	if !ok {
		return 0
	}
	return lj.state.ExecutedWork() / e.scale
}

// RemainingSpan implements FullView.
func (e *engine) RemainingSpan(jobID int) int64 {
	lj, ok := e.live[jobID]
	if !ok || lj.done {
		return 0
	}
	rem := lj.state.RemainingSpan()
	return (rem + e.scale - 1) / e.scale
}

// scaledGraph returns j's graph with node works multiplied by the engine's
// scale factor, memoized per source graph: jobs sharing a DAG (common under
// rational speeds, where every instance of a template is re-released) build
// the scaled copy once per run instead of once per arrival.
func (e *engine) scaledGraph(g *dag.DAG) *dag.DAG {
	if s, ok := e.scaled[g]; ok {
		return s
	}
	s := scaleGraph(g, e.scale)
	if e.scaled == nil {
		e.scaled = make(map[*dag.DAG]*dag.DAG)
	}
	e.scaled[g] = s
	return s
}

// arrive admits job j at time t: build its live record (scaling the graph if
// the run is speed-scaled) and notify the scheduler.
func (e *engine) arrive(t int64, j *Job, rec *telemetry.Recorder, sched Scheduler) {
	g := j.Graph
	if e.scale > 1 {
		g = e.scaledGraph(g)
	}
	lj := &liveJob{
		job:   j,
		view:  viewOf(j),
		state: dag.NewState(g),
		stat: JobStat{
			ID:       j.ID,
			Released: j.Release,
			W:        j.Graph.TotalWork(),
			L:        j.Graph.Span(),
		},
		lastUseful: j.AbsDeadline() - 1,
	}
	e.live[j.ID] = lj
	e.liveList = append(e.liveList, lj)
	if rec != nil {
		rec.Emit(telemetry.JobEvent(t, telemetry.KindArrival, j.ID))
	}
	sched.OnArrival(t, lj.view)
}

// expire removes every live job whose completion at t would no longer earn
// profit, compacting liveList in one pass (arrival order is preserved; the
// scheduler sees OnExpire in that order, exactly as before). A job the
// scheduler has committed to is never expired: it stays live past its
// deadline and runs to a (zero-profit) completion — the engine-side half of
// the commitment contract. It returns the earliest tick at which a job still
// live can expire (lastUseful+1; math.MaxInt64 when none can), which bounds
// an interval step. An overdue committed job does not bound it; a committed
// job not yet overdue does, which at worst ends a step early.
func (e *engine) expire(t int64, res *Result, rec *telemetry.Recorder, sched Scheduler) int64 {
	next := int64(math.MaxInt64)
	w := 0
	for _, lj := range e.liveList {
		if !lj.done && t > lj.lastUseful &&
			!(e.committer != nil && e.committer.Committed(lj.job.ID)) {
			lj.done = true
			delete(e.live, lj.job.ID)
			res.Expired++
			res.Jobs = append(res.Jobs, lj.stat)
			if rec != nil {
				rec.Emit(telemetry.JobEvent(t, telemetry.KindDeadlineMiss, lj.job.ID))
			}
			sched.OnExpire(t, lj.job.ID)
			continue
		}
		if lj.lastUseful >= t {
			next = min(next, lj.lastUseful+1)
		}
		e.liveList[w] = lj
		w++
	}
	for i := w; i < len(e.liveList); i++ {
		e.liveList[i] = nil
	}
	e.liveList = e.liveList[:w]
	return next
}

// compactLive drops entries marked done from liveList in one ordered pass.
// Called after a completion batch instead of splicing per job.
func (e *engine) compactLive() {
	w := 0
	for _, lj := range e.liveList {
		if !lj.done {
			e.liveList[w] = lj
			w++
		}
	}
	for i := w; i < len(e.liveList); i++ {
		e.liveList[i] = nil
	}
	e.liveList = e.liveList[:w]
}

// checkAllocs enforces the scheduler's allocation contract for one decision:
// every grant positive, no job granted twice, every target live, and the
// total within the machine. Duplicate detection stamps the live records with
// a per-decision generation, so the validation allocates nothing. It returns
// the total processors granted.
func (e *engine) checkAllocs(t int64, allocs []Alloc, sched Scheduler) (int, error) {
	e.gen++
	total := 0
	for _, a := range allocs {
		if a.Procs <= 0 {
			return 0, fmt.Errorf("sim: %s allocated %d procs to job %d at t=%d", sched.Name(), a.Procs, a.JobID, t)
		}
		lj, ok := e.live[a.JobID]
		if !ok {
			return 0, fmt.Errorf("sim: %s allocated to unknown/finished job %d at t=%d", sched.Name(), a.JobID, t)
		}
		if lj.seenGen == e.gen {
			return 0, fmt.Errorf("sim: %s allocated job %d twice at t=%d", sched.Name(), a.JobID, t)
		}
		lj.seenGen = e.gen
		total += a.Procs
	}
	if total > e.cfg.M {
		return 0, fmt.Errorf("sim: %s oversubscribed %d > %d procs at t=%d", sched.Name(), total, e.cfg.M, t)
	}
	return total, nil
}

// Run simulates jobs under sched one tick at a time and returns the
// outcome. It returns an error for invalid configuration, malformed jobs, or
// a scheduler that violates the allocation contract (oversubscription,
// unknown or finished jobs, duplicate or non-positive allocations).
//
// Run is a tick-discipline Session advanced to the end in one call, so batch
// runs and step-driven serving sessions (internal/serve) share one code path
// and stay bit-identical. It is the reference the interval discipline
// (RunEvented, RunAuto) is checked against.
func Run(cfg Config, jobs []*Job, sched Scheduler) (*Result, error) {
	return runSession(cfg, jobs, sched, EngineTick)
}

// runSession runs a session under the given discipline to the end.
func runSession(cfg Config, jobs []*Job, sched Scheduler, discipline string) (*Result, error) {
	s, err := newSession(cfg, jobs, sched, discipline)
	if err != nil {
		return nil, err
	}
	if err := s.RunToEnd(); err != nil {
		return nil, err
	}
	return s.Finish(), nil
}

// recordRunAggregates folds a finished run's end-state counters into the
// recorder's registry.
func recordRunAggregates(rec *telemetry.Recorder, res *Result) {
	reg := rec.Registry()
	reg.Inc("sim.runs", 1)
	reg.Inc("sim.ticks", res.Ticks)
	reg.Inc("sim.busy_proc_ticks", res.BusyProcTicks)
	reg.Inc("sim.idle_proc_ticks", res.IdleProcTicks)
	reg.Inc("sim.completed", int64(res.Completed))
	reg.Inc("sim.expired", int64(res.Expired))
}

// scaleGraph returns a copy of g with every node work multiplied by k,
// preserving structure. Used to realize rational speeds exactly.
func scaleGraph(g *dag.DAG, k int64) *dag.DAG {
	b := dag.NewBuilder()
	n := g.NumNodes()
	for v := 0; v < n; v++ {
		b.AddNode(g.Work(dag.NodeID(v)) * k)
	}
	for v := 0; v < n; v++ {
		for _, u := range g.Successors(dag.NodeID(v)) {
			b.AddEdge(dag.NodeID(v), u)
		}
	}
	return b.MustBuild()
}
