package main

import (
	"fmt"
	"runtime"
	"time"

	"dagsched/internal/cliflags"
	"dagsched/internal/sim"
	"dagsched/internal/telemetry"
	"dagsched/internal/workload"
)

// offline-sim: the library path the experiment suite uses. One seeded
// workload.Generate instance — default DAG mix at scale 2, step profits,
// offered load 1.6 on M=16 — runs under sim.RunAuto with Scheduler S, which
// routes to the evented engine; each round repeats the run.
const (
	osM    = 16
	osLoad = 1.6
)

type offlineSim struct {
	o       *options
	jobs    []*sim.Job
	acks    []ack
	offered float64
}

func setupOfflineSim(o *options) (bench, error) {
	n := 10000
	if o.short {
		n = 2000
	}
	in, err := workload.Generate(workload.Config{
		Seed: o.seed, N: n, M: osM, Eps: 1, SlackSpread: 1, Load: osLoad, Scale: 2,
	})
	if err != nil {
		return nil, err
	}
	b := &offlineSim{o: o, jobs: in.Jobs}
	for _, j := range in.Jobs {
		spec, _, _, err := jobFacts(j)
		if err != nil {
			return nil, err
		}
		// Every job enters the simulation, so each is checked as accepted.
		b.acks = append(b.acks, ack{spec: spec, id: j.ID, release: j.Release, decision: "admitted"})
		b.offered += spec.fn.at(1)
	}
	// Warm-up: one untimed run.
	if _, err := b.round(false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return b, nil
}

func (b *offlineSim) round(traced bool) (*round, error) {
	sched, err := cliflags.MakeScheduler("s", 1, false)
	if err != nil {
		return nil, err
	}
	cfg := sim.Config{M: osM}
	var ts *timedSched
	var rec *telemetry.Recorder
	var mem *memDelta
	if traced {
		ts = &timedSched{s: sched}
		rec = telemetry.NewRecorder()
		telemetry.Attach(ts, rec)
		cfg.Telemetry = rec
		sched = ts
		mem = startMem()
	}
	t0 := time.Now()
	res, err := sim.RunAuto(cfg, b.jobs, sched)
	busy := time.Since(t0)
	if err != nil {
		return nil, err
	}
	r := &round{jobs: len(b.jobs), busy: busy, latMs: []float64{ms(busy)}, attempted: 1,
		offered: b.offered, profit: res.TotalProfit, layers: map[string]float64{}}
	if traced {
		mem.record(r.layers, len(b.jobs))
		r.layers["core.callback_s"] = ts.in.Seconds()
		r.layers["sim.engine_self_s"] = (busy - ts.in).Seconds()
		for _, ev := range rec.Events() {
			switch {
			case ev.Kind == telemetry.KindAdmit:
				r.layers["core.admitted"]++
			case ev.Kind == telemetry.KindReadmit:
				r.layers["core.readmitted"]++
			case ev.Kind == telemetry.KindPark && ev.Why == "not-delta-good":
				r.layers["core.rejected"]++
			case ev.Kind == telemetry.KindPark:
				r.layers["core.parked"]++
			}
		}
	}
	r.heapMB = liveHeapMB()
	runtime.KeepAlive(res)
	if res.Engine != sim.EngineEvented {
		return nil, fmt.Errorf("RunAuto took the %s engine, want %s", res.Engine, sim.EngineEvented)
	}
	if _, err := checkResult(res, b.acks, osM); err != nil {
		return nil, err
	}
	r.layers["sim.ticks"] = float64(res.Ticks)
	r.digest = fmtDigest(res.Completed, res.Expired, res.Ticks, res.BusyProcTicks, res.TotalProfit)
	return r, nil
}
