// Package dagsched is an online scheduler library for parallelizable DAG
// jobs, reproducing "Scheduling Parallelizable Jobs Online to Maximize
// Throughput" (Agrawal, Li, Lu, Moseley — SPAA 2017).
//
// Each job is a directed acyclic graph of sequential work nodes arriving
// online on m identical processors. Completing a job by its deadline earns
// its profit (Section 3), or more generally a job carries an arbitrary
// non-increasing profit function over its completion latency (Section 5).
// The paper's scheduler S is semi-non-clairvoyant — it sees only a job's
// total work W, critical-path length L, and deadline/profit, never the DAG's
// internal structure — and is O(1/ε⁶)-competitive whenever every relative
// deadline has slack (1+ε)((W−L)/m + L) ≤ D (Theorem 2), which by Corollary 1
// makes it (2+ε)-speed O(1)-competitive unconditionally.
//
// The package surface re-exports the engine (Run), the paper's schedulers
// (NewSchedulerS, NewSchedulerGP), baselines, DAG constructors, profit
// functions, workload generation, and offline OPT upper bounds. See
// examples/ for runnable programs and DESIGN.md for the system inventory.
package dagsched

import (
	"dagsched/internal/baselines"
	"dagsched/internal/core"
	"dagsched/internal/dag"
	"dagsched/internal/faults"
	"dagsched/internal/opt"
	"dagsched/internal/profit"
	"dagsched/internal/rational"
	"dagsched/internal/sim"
	"dagsched/internal/telemetry"
	"dagsched/internal/trace"
	"dagsched/internal/workload"
)

// Core model types.
type (
	// Job is one parallel job: a DAG released at a time with a profit
	// function over completion latency.
	Job = sim.Job
	// JobView is the semi-non-clairvoyant picture of a job a scheduler sees.
	JobView = sim.JobView
	// DAG is an immutable graph of work nodes.
	DAG = dag.DAG
	// DAGBuilder assembles DAGs node by node.
	DAGBuilder = dag.Builder
	// NodeID identifies a node within one DAG.
	NodeID = dag.NodeID
	// ProfitFn is a non-negative non-increasing profit function.
	ProfitFn = profit.Fn
	// Scheduler is an online scheduling algorithm driven by the engine.
	Scheduler = sim.Scheduler
	// Env describes the machine a scheduler runs on (processors, speed).
	Env = sim.Env
	// PickPolicy decides which ready nodes run (the "arbitrary" choice of
	// the semi-non-clairvoyant model).
	PickPolicy = dag.PickPolicy
	// Speed is an exact rational speed-augmentation factor.
	Speed = rational.Rat
	// SimConfig parameterizes a simulation run.
	SimConfig = sim.Config
	// Result is the outcome of a run.
	Result = sim.Result
	// JobStat is the per-job outcome.
	JobStat = sim.JobStat
	// Instance is a reproducible workload.
	Instance = workload.Instance
	// WorkloadConfig parameterizes workload generation.
	WorkloadConfig = workload.Config
	// Params are the ε-derived constants of the paper's algorithm.
	Params = core.Params
	// SchedulerS is the paper's Section 3 (deadline/throughput) algorithm.
	SchedulerS = core.SchedulerS
	// SchedulerGP is the paper's Section 5 (general profit) algorithm.
	SchedulerGP = core.SchedulerGP
	// AdmissionDecision is the outcome of SchedulerS.Admission: the
	// arrival-time plan plus whether S would start the job right now.
	AdmissionDecision = core.Decision
	// Plan describes scheduler S's arrival-time decisions for a job.
	Plan = core.Plan
	// FaultsConfig parameterizes deterministic fault injection; see
	// ParseFaultSpec and WithFaults.
	FaultsConfig = faults.Config
	// FaultStats aggregates fault-injection outcomes over a run.
	FaultStats = sim.FaultStats
	// Recorder captures a run's decision-event stream and metric registry.
	Recorder = telemetry.Recorder
	// Registry is a typed store of named counters, gauges, and histograms.
	Registry = telemetry.Registry
	// TelemetryEvent is one decision event (arrival, admit, dispatch, …).
	TelemetryEvent = telemetry.Event
	// TelemetrySummary is a JSON-ready snapshot of a Registry.
	TelemetrySummary = telemetry.Summary
	// TelemetryHistSummary digests one histogram inside a TelemetrySummary:
	// sample count, extrema, and quantile estimates.
	TelemetryHistSummary = telemetry.HistSummary
	// Trace is a full per-tick execution record (SimConfig.Record).
	Trace = sim.Trace
	// RouteStats counts RunAuto's engine choices across runs.
	RouteStats = sim.RouteStats
	// Session is the step-driven engine entry point: the same simulation Run
	// performs, sliced into externally clocked steps with online submission
	// (Arrive). Run over a session's accepted job set reproduces its Result
	// bit-identically.
	Session = sim.Session
	// JobState classifies a job's position in a session's lifecycle.
	JobState = sim.JobState
	// ProfitSpec is the tagged-union wire form of a profit function, shared
	// by instance files and job submissions.
	ProfitSpec = workload.ProfitSpec
	// Commitment is the promise a scheduler attaches to an admitted job:
	// binding levels (CommitmentDelta, CommitmentOnArrival) guarantee the job
	// runs to completion, even past its deadline for zero profit. See the
	// Commitment* constants, ParseCommitment, and NewCommittedS.
	Commitment = sim.Commitment
	// Committer is implemented by schedulers honoring binding commitment;
	// the engine never expires a job its scheduler has committed.
	Committer = sim.Committer
)

// Session job lifecycle states.
const (
	JobStateUnknown   = sim.JobStateUnknown
	JobStatePending   = sim.JobStatePending
	JobStateLive      = sim.JobStateLive
	JobStateCompleted = sim.JobStateCompleted
	JobStateExpired   = sim.JobStateExpired
)

// Commitment policies, weakest to strongest. A JobView's Commitment field
// overrides the scheduler-wide policy per job; CommitmentDefault inherits it.
const (
	// CommitmentDefault defers to the scheduler-wide policy.
	CommitmentDefault = sim.CommitmentDefault
	// CommitmentNone makes no scheduling promise.
	CommitmentNone = sim.CommitmentNone
	// CommitmentOnAdmission is durability-only commitment (the wire default).
	CommitmentOnAdmission = sim.CommitmentOnAdmission
	// CommitmentDelta commits a job once it is admitted to run (δ-commitment).
	CommitmentDelta = sim.CommitmentDelta
	// CommitmentOnArrival makes the arrival verdict final: admitted jobs are
	// guaranteed to finish, would-be-parked jobs are rejected outright.
	CommitmentOnArrival = sim.CommitmentOnArrival
)

// Node-pick policies (environments for the "arbitrary" ready-node choice).
var (
	// PickByID picks ready nodes deterministically by ID.
	PickByID PickPolicy = dag.ByID{}
	// PickUnlucky is the Theorem 1 adversary: it starves the critical path.
	PickUnlucky PickPolicy = dag.Unlucky{}
	// PickCriticalPath is the clairvoyant longest-path-first oracle.
	PickCriticalPath PickPolicy = dag.CriticalPathFirst{}
)

// Run simulates jobs under a scheduler. See sim.Run.
func Run(cfg SimConfig, jobs []*Job, sched Scheduler) (*Result, error) {
	return sim.Run(cfg, jobs, sched)
}

// RunAuto simulates jobs on whichever engine — per-tick or event-jumping —
// is provably equivalent and fastest for the given scheduler, policy, and
// configuration. Results are bit-identical to Run; Result.Engine records the
// choice. See sim.RunAuto.
func RunAuto(cfg SimConfig, jobs []*Job, sched Scheduler) (*Result, error) {
	return sim.RunAuto(cfg, jobs, sched)
}

// NewSchedulerS returns the paper's throughput scheduler for slack parameter
// ε > 0 with the canonical δ and c constants.
func NewSchedulerS(eps float64) (*SchedulerS, error) {
	p, err := core.NewParams(eps)
	if err != nil {
		return nil, err
	}
	return core.NewSchedulerS(core.Options{Params: p}), nil
}

// NewSchedulerGP returns the paper's general-profit scheduler for ε > 0.
func NewSchedulerGP(eps float64) (*SchedulerGP, error) {
	p, err := core.NewParams(eps)
	if err != nil {
		return nil, err
	}
	return core.NewSchedulerGP(core.Options{Params: p}), nil
}

// NewWorkConservingS returns scheduler S with the paper's "future work"
// extension enabled: leftover processors are distributed to admitted jobs in
// density order each tick. Admission is unchanged.
func NewWorkConservingS(eps float64) (*SchedulerS, error) {
	p, err := core.NewParams(eps)
	if err != nil {
		return nil, err
	}
	return core.NewSchedulerS(core.Options{Params: p, WorkConserving: true}), nil
}

// NewResilientS returns scheduler S with fault-injection feedback enabled:
// under faults the allocation budget follows the announced capacity, jobs
// whose lost work provably cannot be re-executed in time are expired early,
// and capacity recoveries re-open admission. Without faults it behaves
// identically to NewSchedulerS.
func NewResilientS(eps float64) (*SchedulerS, error) {
	p, err := core.NewParams(eps)
	if err != nil {
		return nil, err
	}
	return core.NewSchedulerS(core.Options{Params: p, Resilient: true}), nil
}

// NewCommittedS returns the paper's throughput scheduler running under the
// given commitment policy. Binding policies change admission: under
// CommitmentOnArrival the arrival verdict is final (no parked pool), and
// under CommitmentDelta a job is committed once admitted to run; in both
// cases the engine never expires a committed job. CommitmentDefault and
// CommitmentNone leave the scheduler identical to NewSchedulerS.
func NewCommittedS(eps float64, c Commitment) (*SchedulerS, error) {
	p, err := core.NewParams(eps)
	if err != nil {
		return nil, err
	}
	if !c.Valid() {
		_, err := sim.ParseCommitment(string(c))
		return nil, err
	}
	return core.NewSchedulerS(core.Options{Params: p, Commitment: c}), nil
}

// ParseCommitment parses a commitment policy name: "none", "on-admission",
// "delta", or "on-arrival".
func ParseCommitment(s string) (Commitment, error) { return sim.ParseCommitment(s) }

// NewResilientWorkConservingS combines NewResilientS and NewWorkConservingS.
func NewResilientWorkConservingS(eps float64) (*SchedulerS, error) {
	p, err := core.NewParams(eps)
	if err != nil {
		return nil, err
	}
	return core.NewSchedulerS(core.Options{Params: p, WorkConserving: true, Resilient: true}), nil
}

// ParseFaultSpec parses a compact fault-injection spec such as
// "seed=7,mtbf=200,mttr=40,crash=0.01,straggler=0.2,slow=4".
func ParseFaultSpec(spec string) (FaultsConfig, error) { return faults.ParseSpec(spec) }

// NewRecorder returns an empty telemetry recorder; attach it to a run with
// WithRecorder and to a scheduler's decision stream with AttachTelemetry.
func NewRecorder() *Recorder { return telemetry.NewRecorder() }

// AttachTelemetry wires a recorder into a scheduler that supports decision
// instrumentation; it reports whether the scheduler accepted it.
func AttachTelemetry(sched Scheduler, rec *Recorder) bool { return telemetry.Attach(sched, rec) }

// EventsJSONL renders a recorded decision-event stream as deterministic
// JSONL (one event per line, fields in fixed order).
func EventsJSONL(events []TelemetryEvent) []byte { return telemetry.EventsJSONL(events) }

// NewSession returns a step-driven simulation session positioned before the
// first tick. The jobs slice may be empty: online submissions arrive later
// through Session.Arrive. See sim.Session.
func NewSession(cfg SimConfig, jobs []*Job, sched Scheduler) (*Session, error) {
	return sim.NewSession(cfg, jobs, sched)
}

// MarshalJob renders one job in the instance wire format — the form the
// serving WAL stores, so logged sessions re-simulate offline.
func MarshalJob(j *Job) ([]byte, error) { return workload.MarshalJob(j) }

// UnmarshalJob parses and validates one job in the instance wire format.
func UnmarshalJob(data []byte) (*Job, error) { return workload.UnmarshalJob(data) }

// Baseline schedulers.

// NewEDF returns a work-conserving global earliest-deadline-first scheduler.
func NewEDF() Scheduler { return &baselines.ListScheduler{Order: baselines.OrderEDF} }

// NewLLF returns a least-laxity-first scheduler.
func NewLLF() Scheduler { return &baselines.ListScheduler{Order: baselines.OrderLLF} }

// NewFIFO returns a first-in-first-out scheduler.
func NewFIFO() Scheduler { return &baselines.ListScheduler{Order: baselines.OrderFIFO} }

// NewHDF returns a highest-density-first scheduler (profit per work, no
// admission control).
func NewHDF() Scheduler { return &baselines.ListScheduler{Order: baselines.OrderHDF} }

// NewFederated returns a federated-style dedicated-allotment scheduler.
func NewFederated() Scheduler { return &baselines.Federated{} }

// DAG constructors.

// NewDAGBuilder returns an empty DAG builder.
func NewDAGBuilder() *DAGBuilder { return dag.NewBuilder() }

// Chain returns a sequential chain of n nodes with the given work each.
func Chain(n int, work int64) *DAG { return dag.Chain(n, work) }

// Block returns n independent nodes with the given work each.
func Block(n int, work int64) *DAG { return dag.Block(n, work) }

// ForkJoin returns staged fork–join phases (map-reduce-shaped programs).
func ForkJoin(stages, width int, work int64) *DAG { return dag.ForkJoin(stages, width, work) }

// Figure1 returns the paper's Figure 1 adversarial DAG for m processors.
func Figure1(m int, span int64) *DAG { return dag.Figure1(m, span) }

// Figure2 returns the paper's Figure 2 chain-then-block DAG.
func Figure2(chainLen, blockWidth int) *DAG { return dag.Figure2(chainLen, blockWidth) }

// Wavefront returns the n×n stencil wavefront DAG (Smith–Waterman shape).
func Wavefront(n int, work int64) *DAG { return dag.Wavefront(n, work) }

// ReductionTree returns a binary reduction DAG over n leaves.
func ReductionTree(n int, work int64) *DAG { return dag.ReductionTree(n, work) }

// FFT returns the radix-2 butterfly DAG over n = 2^h points.
func FFT(n int, work int64) *DAG { return dag.FFT(n, work) }

// Cholesky returns the task graph of an n×n-tile Cholesky factorization with
// the 1:3:6 POTRF:TRSM:SYRK cost profile at the given unit.
func Cholesky(n int, unit int64) *DAG { return dag.Cholesky(n, dag.DefaultCholeskyWorks(unit)) }

// Serial chains graphs: every sink of one precedes every source of the next.
func Serial(gs ...*DAG) *DAG { return dag.Serial(gs...) }

// ParallelDAG returns the disjoint union of the given graphs.
func ParallelDAG(gs ...*DAG) *DAG { return dag.Parallel(gs...) }

// Repeat chains k serial copies of g.
func Repeat(g *DAG, k int) *DAG { return dag.Repeat(g, k) }

// Profit functions.

// StepProfit returns the Section 3 deadline profit: value if the job
// completes within deadline ticks of arrival, zero after.
func StepProfit(value float64, deadline int64) (ProfitFn, error) {
	return profit.NewStep(value, deadline)
}

// LinearDecayProfit returns a profit flat at peak until flat, then linear to
// zero at zeroAt.
func LinearDecayProfit(peak float64, flat, zeroAt int64) (ProfitFn, error) {
	return profit.NewLinearDecay(peak, flat, zeroAt)
}

// ExpDecayProfit returns a profit flat at peak until flat, then halving
// every halfLife ticks, cut to zero at cutoff.
func ExpDecayProfit(peak float64, flat, halfLife, cutoff int64) (ProfitFn, error) {
	return profit.NewExpDecay(peak, flat, halfLife, cutoff)
}

// PiecewiseProfit returns a right-continuous staircase profit: values[i]
// until until[i] ticks, zero after the last breakpoint.
func PiecewiseProfit(until []int64, values []float64) (ProfitFn, error) {
	return profit.NewPiecewiseConstant(until, values)
}

// NewSpeed returns the exact rational speed num/den.
func NewSpeed(num, den int64) Speed { return rational.New(num, den) }

// GenerateWorkload builds a synthetic instance; see workload.Config.
func GenerateWorkload(cfg WorkloadConfig) (*Instance, error) { return workload.Generate(cfg) }

// OptUpperBound returns an upper bound on the offline optimal profit for the
// job set on m speed-s processors (exact for small instances, LP/knapsack
// relaxations otherwise).
func OptUpperBound(jobs []*Job, m int, speed float64) float64 {
	return opt.Bound(opt.TasksFromJobs(jobs, m, speed), m, speed)
}

// Gantt renders a recorded trace (Run with Config.Record) as ASCII rows.
func Gantt(res *Result, jobs []*Job, maxWidth int) string {
	if res == nil {
		return "(no result)\n"
	}
	return trace.Gantt(res.Trace, jobs, maxWidth)
}
