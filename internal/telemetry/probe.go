package telemetry

import (
	"sort"
	"strconv"

	"dagsched/internal/metrics"
)

// TimeSeries is one sampled metric over simulated time: tick coordinates
// plus the sample accumulator (reusing metrics.Series for the statistics).
// Ticks[i] is the coordinate of the i-th sample.
type TimeSeries struct {
	Name  string
	Ticks []int64
	Data  metrics.Series
}

// add appends one (tick, value) sample.
func (ts *TimeSeries) add(t int64, v float64) {
	ts.Ticks = append(ts.Ticks, t)
	ts.Data.Add(v)
}

// TickSample is one per-tick machine observation taken after the tick's
// execution: how many processors were operational, how many executed a
// node, and the live set's size and total ready-node depth.
type TickSample struct {
	T          int64
	Capacity   int // operational processors this tick
	Busy       int // processors that executed a node
	LiveJobs   int // jobs in the system
	ReadyNodes int // Σ ready nodes over live jobs
}

// JobSample is one per-tick observation of a single live job: executed work
// versus remaining critical path, deadline slack, and ready width (all in
// the job's declared work scale / absolute ticks).
type JobSample struct {
	T             int64
	Job           int
	Executed      int64 // work units processed so far
	RemainingSpan int64 // remaining critical-path length
	Slack         int64 // ticks until the last profitable completion
	Ready         int   // ready nodes right now
}

// Probe collects per-tick time series from the engines. Every controls the
// sampling stride (a sample is taken when t % Every == 0; values ≤ 1 mean
// every tick); PerJob additionally records three series per job, which is
// detailed but proportionally more expensive — probes are opt-in and the
// engines skip all sampling work entirely when no probe is attached.
//
// The engine samples every stride tick exactly, under either stepping
// discipline: an attached probe keeps every step one tick wide.
type Probe struct {
	Every  int64 // sampling stride in ticks (≤ 1 = every tick)
	PerJob bool  // also record per-job executed/span/slack series

	series map[string]*TimeSeries
}

// NewProbe returns a probe with the given stride.
func NewProbe(every int64, perJob bool) *Probe {
	return &Probe{Every: every, PerJob: perJob}
}

// Want reports whether tick t should be sampled.
func (p *Probe) Want(t int64) bool {
	if p == nil {
		return false
	}
	return p.Every <= 1 || t%p.Every == 0
}

// Observe appends a sample to the named series.
func (p *Probe) Observe(name string, t int64, v float64) {
	if p == nil {
		return
	}
	if p.series == nil {
		p.series = make(map[string]*TimeSeries)
	}
	ts := p.series[name]
	if ts == nil {
		ts = &TimeSeries{Name: name}
		p.series[name] = ts
	}
	ts.add(t, v)
}

// ObserveTick records the machine series for one sampled tick:
// "machine.util" (busy/capacity), "machine.busy", "machine.capacity",
// "machine.live_jobs", and "machine.ready_nodes".
func (p *Probe) ObserveTick(s TickSample) {
	if p == nil {
		return
	}
	util := 0.0
	if s.Capacity > 0 {
		util = float64(s.Busy) / float64(s.Capacity)
	}
	p.Observe("machine.util", s.T, util)
	p.Observe("machine.busy", s.T, float64(s.Busy))
	p.Observe("machine.capacity", s.T, float64(s.Capacity))
	p.Observe("machine.live_jobs", s.T, float64(s.LiveJobs))
	p.Observe("machine.ready_nodes", s.T, float64(s.ReadyNodes))
}

// ObserveJob records the per-job series for one sampled tick:
// "job.<id>.executed", "job.<id>.remaining_span", "job.<id>.slack", and
// "job.<id>.ready".
func (p *Probe) ObserveJob(s JobSample) {
	if p == nil {
		return
	}
	prefix := "job." + strconv.Itoa(s.Job)
	p.Observe(prefix+".executed", s.T, float64(s.Executed))
	p.Observe(prefix+".remaining_span", s.T, float64(s.RemainingSpan))
	p.Observe(prefix+".slack", s.T, float64(s.Slack))
	p.Observe(prefix+".ready", s.T, float64(s.Ready))
}

// Series returns the collected series sorted by name.
func (p *Probe) Series() []*TimeSeries {
	if p == nil {
		return nil
	}
	out := make([]*TimeSeries, 0, len(p.series))
	for _, ts := range p.series {
		out = append(out, ts)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Get returns the named series, or nil.
func (p *Probe) Get(name string) *TimeSeries {
	if p == nil {
		return nil
	}
	return p.series[name]
}
