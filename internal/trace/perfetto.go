package trace

import (
	"fmt"

	"dagsched/internal/sim"
	"dagsched/internal/telemetry"
)

// Perfetto track layout (documented in DESIGN.md):
//
//	pid 1 "machine" — one thread per processor (tid = processor id) carrying
//	  "J<id>" occupancy spans, plus thread tid = M ("events") for
//	  machine-level decision events; processor-level events (fault begin/end)
//	  land on the processor's own thread.
//	pid 2 "jobs" — one thread per job (tid = job id) carrying "run ×N"
//	  execution spans (split whenever the grant size changes) and the job's
//	  decision events as instants.
//
// Probe time series go on as counter tracks: machine.* on pid 1, job.* on
// pid 2.
const (
	PerfettoPIDMachine = 1
	PerfettoPIDJobs    = 2
)

// Perfetto converts a recorded trace plus an optional decision-event stream
// into a Chrome trace-event document (one simulated tick = 1µs). Processor
// occupancy is reconstructed deterministically by replaying the engine's
// grant-to-processor mapping: each tick's allocations claim operational
// processors in id order, exactly as the engine maps grants onto its up-list.
func Perfetto(tr *sim.Trace, jobs []*sim.Job, events []telemetry.Event) (*telemetry.ChromeTrace, error) {
	if tr == nil {
		return nil, fmt.Errorf("trace: nil trace (run with recording enabled)")
	}
	if tr.M < 1 {
		return nil, fmt.Errorf("trace: invalid processor count %d", tr.M)
	}
	ct := telemetry.NewChromeTrace()
	ct.AddProcessName(PerfettoPIDMachine, "machine")
	ct.AddProcessName(PerfettoPIDJobs, "jobs")
	for p := 0; p < tr.M; p++ {
		ct.AddThreadName(PerfettoPIDMachine, p, fmt.Sprintf("proc %d", p))
	}
	ct.AddThreadName(PerfettoPIDMachine, tr.M, "events")

	jobIDs := make(map[int]bool, len(jobs))
	for _, j := range jobs {
		jobIDs[j.ID] = true
		ct.AddThreadName(PerfettoPIDJobs, j.ID, fmt.Sprintf("job %d", j.ID))
	}
	for _, ev := range events {
		if ev.Job >= 0 && !jobIDs[ev.Job] {
			jobIDs[ev.Job] = true
			ct.AddThreadName(PerfettoPIDJobs, ev.Job, fmt.Sprintf("job %d", ev.Job))
		}
	}

	// Replay occupancy. occ[p] is the job on processor p this tick (-1 idle);
	// spans merge across consecutive ticks with the same occupant.
	occ := make([]int, tr.M)
	prevOcc := make([]int, tr.M)
	spanStart := make([]int64, tr.M)
	for p := range prevOcc {
		prevOcc[p] = -1
	}
	// Per-job grant spans, likewise merged while the grant is constant.
	type jobSpan struct {
		procs int
		start int64
	}
	jobRun := make(map[int]*jobSpan)
	down := make(map[int]bool, tr.M)

	closeProc := func(p int, endT int64) {
		if prevOcc[p] >= 0 {
			ct.AddSpan(PerfettoPIDMachine, p, fmt.Sprintf("J%d", prevOcc[p]), "exec",
				spanStart[p], endT-spanStart[p]+1, map[string]any{"job": prevOcc[p]})
		}
		prevOcc[p] = -1
	}
	closeJob := func(id int, endT int64) {
		js := jobRun[id]
		ct.AddSpan(PerfettoPIDJobs, id, fmt.Sprintf("run ×%d", js.procs), "exec",
			js.start, endT-js.start+1, nil)
		delete(jobRun, id)
	}

	prevT := int64(-2)
	for _, tick := range tr.Ticks {
		if tick.T <= prevT {
			return nil, fmt.Errorf("trace: ticks not strictly increasing at t=%d", tick.T)
		}
		if tick.T != prevT+1 {
			// Discontinuity (idle gap): close every open span.
			for p := range prevOcc {
				closeProc(p, prevT)
			}
			for id := range jobRun {
				closeJob(id, prevT)
			}
		}
		for k := range down {
			delete(down, k)
		}
		if tick.Faults != nil {
			for _, p := range tick.Faults.Down {
				down[p] = true
			}
		}
		for p := range occ {
			occ[p] = -1
		}
		cursor := 0
		procsOf := make(map[int]int, len(tick.Allocs))
		for _, a := range tick.Allocs {
			procsOf[a.JobID] = a.Procs
			// Claim the next a.Procs operational processors in id order
			// (grants beyond capacity land nowhere, as in the engine).
			for claimed := 0; claimed < a.Procs && cursor < tr.M; cursor++ {
				if down[cursor] {
					continue
				}
				occ[cursor] = a.JobID
				claimed++
			}
		}
		for p := range occ {
			if occ[p] != prevOcc[p] {
				closeProc(p, prevT)
				if occ[p] >= 0 {
					spanStart[p] = tick.T
				}
				prevOcc[p] = occ[p]
			}
		}
		for id, js := range jobRun {
			if procsOf[id] != js.procs {
				closeJob(id, prevT)
			}
		}
		for id, procs := range procsOf {
			if _, open := jobRun[id]; !open {
				jobRun[id] = &jobSpan{procs: procs, start: tick.T}
			}
		}
		prevT = tick.T
	}
	for p := range prevOcc {
		closeProc(p, prevT)
	}
	for id := range jobRun {
		closeJob(id, prevT)
	}

	// Decision events as instants on the concerned track.
	for _, ev := range events {
		args := map[string]any{}
		if ev.Procs != 0 {
			args["procs"] = ev.Procs
		}
		if ev.Value != 0 {
			args["value"] = ev.Value
		}
		if ev.Why != "" {
			args["why"] = ev.Why
		}
		if len(args) == 0 {
			args = nil
		}
		switch {
		case ev.Job >= 0:
			ct.AddInstant(PerfettoPIDJobs, ev.Job, string(ev.Kind), "decision", ev.T, args)
		case ev.Proc >= 0:
			ct.AddInstant(PerfettoPIDMachine, ev.Proc, string(ev.Kind), "fault", ev.T, args)
		default:
			ct.AddInstant(PerfettoPIDMachine, tr.M, string(ev.Kind), "machine", ev.T, args)
		}
	}
	ct.SortStable()
	return ct, nil
}
