package sim

import (
	"fmt"

	"dagsched/internal/dag"
	"dagsched/internal/telemetry"
)

// RunEvented simulates like Run but advances the clock event to event
// instead of tick by tick: between two consecutive events (a job arrival, a
// job expiry, any node completion, or the horizon) the allocation is
// provably constant, so the engine fast-forwards across the gap in O(1) per
// running node. On coarse-grained workloads this is orders of magnitude
// faster than ticking; results are bit-identical to Run.
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
	e, res, ordered, policy, err := prepareRun(cfg, jobs, sched)
	if err != nil {
		return nil, err
	}
	res.Engine = EngineEvented
	rec := cfg.Telemetry

	var (
		t        int64
		next     int
		allocBuf []Alloc
	)
	for next < len(ordered) || len(e.live) > 0 {
		if cfg.Horizon > 0 && t >= cfg.Horizon {
			break
		}
		if len(e.live) == 0 && ordered[next].Release > t {
			t = ordered[next].Release
		}
		// Arrivals at or before t.
		for next < len(ordered) && ordered[next].Release <= t {
			e.arrive(t, ordered[next], rec, sched)
			next++
		}
		// Expiries.
		e.expire(t, res, rec, sched)
		if len(e.live) == 0 {
			t++ // tick t is consumed, exactly as Session.step consumes it
			continue
		}

		// One allocation decision, held for the whole interval.
		allocBuf = sched.Assign(t, e, allocBuf[:0])
		if _, err := e.checkAllocs(t, allocBuf, sched); err != nil {
			return nil, err
		}

		// Pick the running nodes once; they are fixed until the next event.
		// Picks land in a shared arena; each runAlloc records its window.
		running := e.running[:0]
		e.arena = e.arena[:0]
		busyPerTick := 0
		for _, a := range allocBuf {
			lj := e.live[a.JobID]
			if rec != nil && a.Procs != lj.lastProcs {
				ev := telemetry.JobEvent(t, telemetry.KindDispatch, a.JobID)
				ev.Procs = a.Procs
				rec.Emit(ev)
			}
			lj.lastProcs = a.Procs
			lo := len(e.arena)
			e.arena = policy.Pick(lj.state, a.Procs, e.arena)
			running = append(running, runAlloc{lj: lj, procs: a.Procs, lo: lo, hi: len(e.arena)})
			busyPerTick += len(e.arena) - lo
		}

		// Interval length: the earliest of (a) a running node completing,
		// (b) the next arrival, (c) the next expiry, (d) the horizon.
		delta := int64(1<<62 - 1)
		for _, r := range running {
			for _, v := range e.arena[r.lo:r.hi] {
				need := (r.lj.state.Remaining(v) + e.perTick - 1) / e.perTick
				if need < delta {
					delta = need
				}
			}
		}
		if next < len(ordered) {
			if gap := ordered[next].Release - t; gap < delta {
				delta = gap
			}
		}
		for _, lj := range e.liveList {
			if e.committer != nil && e.committer.Committed(lj.job.ID) {
				// No expiry event exists for a committed job: it stays live
				// past lastUseful and leaves only by completing, which bound
				// (a) already covers.
				continue
			}
			if gap := lj.lastUseful + 1 - t; gap < delta {
				delta = gap
			}
		}
		if cfg.Horizon > 0 {
			if gap := cfg.Horizon - t; gap < delta {
				delta = gap
			}
		}
		if delta < 1 {
			delta = 1
		}

		// Fast-forward the interval. Ready counts are constant between
		// events (nodes only leave the ready set by completing, which ends
		// the interval), so the pre-interval sum serves every tick except
		// the last, whose post-execution count is computed exactly below.
		var readyDuring int
		if rec != nil && rec.Probe != nil {
			for _, lj := range e.liveList {
				if !lj.state.Done() {
					readyDuring += lj.state.ReadyCount()
				}
			}
		}
		completed := e.completedBuf[:0]
		for _, r := range running {
			for _, v := range e.arena[r.lo:r.hi] {
				r.lj.state.Apply(v, delta*e.perTick)
			}
			r.lj.stat.ProcTicks += delta * int64(r.procs)
			r.lj.ranNow = true
			if r.lj.state.Done() {
				completed = append(completed, r.lj)
			}
		}
		res.BusyProcTicks += delta * int64(busyPerTick)
		res.IdleProcTicks += delta * int64(cfg.M-busyPerTick)
		if res.Trace != nil {
			for dt := int64(0); dt < delta; dt++ {
				tick := TickRecord{T: t + dt}
				for _, r := range running {
					tick.Allocs = append(tick.Allocs, AllocRecord{
						JobID: r.lj.job.ID,
						Procs: r.procs,
						Nodes: append([]dag.NodeID(nil), e.arena[r.lo:r.hi]...),
					})
				}
				res.Trace.Ticks = append(res.Trace.Ticks, tick)
			}
		}

		// Probe expansion over the interval: every value is constant across
		// the fast-forwarded ticks except the final tick's ready count.
		if rec != nil && rec.Probe != nil {
			readyAfter := 0
			for _, lj := range e.liveList {
				if !lj.state.Done() {
					readyAfter += lj.state.ReadyCount()
				}
			}
			for dt := int64(0); dt < delta; dt++ {
				if !rec.Probe.Want(t + dt) {
					continue
				}
				ready := readyDuring
				if dt == delta-1 {
					ready = readyAfter
				}
				rec.Probe.ObserveTick(telemetry.TickSample{
					T: t + dt, Capacity: cfg.M, Busy: busyPerTick,
					LiveJobs: len(e.liveList), ReadyNodes: ready,
				})
			}
		}

		// Preemption accounting at the event boundary (identical to the
		// tick engine: between events the running set is constant).
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

		endT := t + delta - 1 // the last tick of the interval
		for _, lj := range completed {
			lj.done = true
			lj.stat.Completed = true
			lj.stat.CompletedAt = endT + 1
			lj.stat.Latency = endT + 1 - lj.job.Release
			lj.stat.Profit = lj.job.Profit.At(lj.stat.Latency)
			res.TotalProfit += lj.stat.Profit
			res.Completed++
			res.Jobs = append(res.Jobs, lj.stat)
			if rec != nil {
				ev := telemetry.JobEvent(endT+1, telemetry.KindComplete, lj.job.ID)
				ev.Value = lj.stat.Profit
				rec.Emit(ev)
				rec.Registry().Observe("job.latency", float64(lj.stat.Latency))
				rec.Registry().Observe("job.slack_at_finish", float64(lj.lastUseful-endT))
			}
			delete(e.live, lj.job.ID)
			sched.OnCompletion(endT, lj.job.ID)
		}
		if len(completed) > 0 {
			e.compactLive()
			for i := range completed {
				completed[i] = nil
			}
		}
		e.completedBuf = completed[:0]
		e.running = running[:0]
		t += delta
	}
	for _, lj := range e.liveList {
		res.Jobs = append(res.Jobs, lj.stat)
	}
	res.Ticks = t
	if rec != nil {
		recordRunAggregates(rec, res)
	}
	return res, nil
}
