package trace

import (
	"fmt"

	"dagsched/internal/obs"
	"dagsched/internal/telemetry"
)

// perfettoPIDRequests extends the track layout of Perfetto (pid 1 machine,
// pid 2 jobs) with a serving-tier process: one thread per captured request
// trace, named by its request ID, carrying one span per pipeline stage gap.
const perfettoPIDRequests = 3

// RequestSpans renders a serving daemon's request-trace ring as a Chrome
// trace-event document. Each trace becomes a thread (tid = snapshot index)
// whose spans cover the gaps between consecutive stage stamps — received →
// dequeued is the wire cost plus the wait for the shard's lock, dequeued →
// committed the engine cost, and so on — so one slow submission can be
// dissected stage by stage in Perfetto. Wall-clock timestamps are rebased to the earliest stage across
// the snapshot and expressed in microseconds.
func RequestSpans(traces []obs.ReqTrace) *telemetry.ChromeTrace {
	ct := telemetry.NewChromeTrace()
	ct.AddProcessName(perfettoPIDRequests, "requests")

	var base int64 // earliest stage timestamp, µs since epoch
	haveBase := false
	for _, rt := range traces {
		for _, st := range rt.Stages {
			us := st.At.UnixMicro()
			if !haveBase || us < base {
				base, haveBase = us, true
			}
		}
	}

	for tid, rt := range traces {
		name := rt.ID
		if name == "" {
			name = fmt.Sprintf("request %d", tid)
		}
		ct.AddThreadName(perfettoPIDRequests, tid, name)
		args := map[string]any{"reqId": rt.ID, "shard": rt.Shard}
		if rt.Route != "" {
			args["route"] = rt.Route
		}
		if rt.JobID != 0 {
			args["jobId"] = rt.JobID
		}
		if rt.Decision != "" {
			args["decision"] = rt.Decision
		}
		for i := 1; i < len(rt.Stages); i++ {
			prev, cur := rt.Stages[i-1], rt.Stages[i]
			ts := prev.At.UnixMicro() - base
			dur := cur.At.UnixMicro() - prev.At.UnixMicro()
			ct.AddSpan(perfettoPIDRequests, tid,
				prev.Name+"→"+cur.Name, "request", ts, dur, args)
		}
		if len(rt.Stages) == 1 {
			st := rt.Stages[0]
			ct.AddInstant(perfettoPIDRequests, tid, st.Name, "request",
				st.At.UnixMicro()-base, args)
		}
	}
	ct.SortStable()
	return ct
}
