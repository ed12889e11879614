package sim

import "fmt"

// RunEvented simulates like Run but under the interval discipline: each
// step holds one allocation across every tick up to the next event (a job
// arrival, an expiry, a node completion, or the horizon), which the
// allocation provably cannot outlive, so a step costs O(1) per running node
// however many ticks it spans. On coarse-grained workloads this is orders of
// magnitude faster than ticking; results are bit-identical to Run. A
// telemetry probe or Config.Record asks for per-tick output and keeps the
// steps one tick wide.
//
// Equivalence requires that the scheduler's Assign output depends only on
// state that changes at events — true for SchedulerS (±work-conserving),
// EDF/FIFO/HDF list schedulers, and Federated. It does NOT hold for
// schedulers that read the clock or executed work directly between events
// (LLF's laxity, AbandonHopeless's volume check, SchedulerGP's per-tick slot
// sets); use Run for those. The node-pick policy must likewise be
// deterministic (not dag.Random).
func RunEvented(cfg Config, jobs []*Job, sched Scheduler) (*Result, error) {
	if cfg.Faults != nil {
		return nil, fmt.Errorf("sim: fault injection requires the tick engine (faults are per-tick events)")
	}
	return runSession(cfg, jobs, sched, EngineEvented)
}
