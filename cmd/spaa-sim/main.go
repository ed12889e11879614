// Command spaa-sim runs one simulation and prints a result summary and an
// optional ASCII Gantt chart. The workload comes either from a JSON instance
// file (written by dag-gen) or from the synthetic generator flags.
//
// Usage:
//
//	spaa-sim [-instance file.json | -adversarial N] [-sched s|swc|nc|gp|edf|llf|fifo|hdf|federated]
//	         [-eps 1.0] [-speed p/q] [-policy id|random|unlucky|cp]
//	         [-m 8] [-n 40] [-seed 1] [-load 1.5] [-profit step|linear|exp]
//	         [-horizon 0] [-gantt] [-ub] [-verify] [-evented]
//	         [-faults "mtbf=60,crash=0.01"] [-fault-seed 1] [-mtbf 0] [-mttr 0]
//	         [-crash-rate 0] [-straggler-frac 0] [-straggler-slow 0] [-resilient]
//	         [-events out.jsonl] [-perfetto out.json] [-telemetry-summary]
//	         [-probe 1] [-probe-jobs]
//
// Telemetry: -events writes the run's decision-event stream as JSONL,
// -perfetto writes a Chrome trace-event file for ui.perfetto.dev, -probe
// samples machine time series every N ticks (exported as Perfetto counter
// tracks), and -telemetry-summary prints the run's counter/histogram
// registry. A -faults spec field combined with its individual override flag
// is rejected (exit 2).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"dagsched/internal/cliflags"
	"dagsched/internal/experiments"
	"dagsched/internal/opt"
	"dagsched/internal/sim"
	"dagsched/internal/telemetry"
	"dagsched/internal/trace"
	"dagsched/internal/workload"
)

func main() {
	var (
		instPath = flag.String("instance", "", "JSON instance file (from dag-gen); empty = generate")
		schedSel = flag.String("sched", "s", "scheduler: s, swc, nc, gp, edf, llf, fifo, hdf, federated")
		eps      = flag.Float64("eps", 1.0, "epsilon for the paper schedulers")
		speedStr = flag.String("speed", "1", "machine speed as integer or p/q")
		polSel   = flag.String("policy", "id", "ready-node pick policy: id, random, unlucky, cp")
		m        = flag.Int("m", 8, "processors (generator only)")
		n        = flag.Int("n", 40, "jobs (generator only)")
		seed     = flag.Int64("seed", 1, "generator seed")
		load     = flag.Float64("load", 1.5, "target load (generator only)")
		profSel  = flag.String("profit", "step", "profit family: step, linear, exp (generator only)")
		gantt    = flag.Bool("gantt", false, "print an ASCII Gantt chart")
		showUB   = flag.Bool("ub", false, "also compute the OPT upper bound")
		verify   = flag.Bool("verify", false, "re-validate the recorded schedule with the independent trace checker")
		jsonOut  = flag.Bool("json", false, "emit the full result as JSON instead of the summary")
		stats    = flag.Bool("stats", false, "print instance statistics before running")
		evented  = flag.Bool("evented", false, "step from event to event instead of tick by tick (event-stationary schedulers only)")
		horizon  = flag.Int64("horizon", 0, "stop the simulation after this many ticks (0 = run to completion)")

		resilient = flag.Bool("resilient", false, "use the fault-aware resilient scheduler variant")

		advPhases  = flag.Int("adversarial", 0, "run the Figure-1 adversarial instance with this many phases (conflicts with -instance)")
		eventsPath = flag.String("events", "", "write the decision-event stream as JSONL to this file")
		perfPath   = flag.String("perfetto", "", "write a Chrome trace-event JSON file (open at ui.perfetto.dev); implies recording")
		telSummary = flag.Bool("telemetry-summary", false, "print the run's telemetry registry (counters, gauges, histograms)")
		probeEvery = flag.Int64("probe", 0, "sample machine time series every N ticks (0 = off; 1 = every tick)")
		probeJobs  = flag.Bool("probe-jobs", false, "with -probe, also sample per-job series")
	)
	var faultFlags cliflags.FaultFlags
	faultFlags.Register(flag.CommandLine)
	flag.Parse()

	setFlags := cliflags.SetFlags(flag.CommandLine)

	fail(validateFlags(*m, *n, *horizon, *load, *eps))
	if *advPhases < 0 {
		fail(fmt.Errorf("-adversarial = %d: must be ≥ 0", *advPhases))
	}
	if *probeEvery < 0 {
		fail(fmt.Errorf("-probe = %d: must be ≥ 0", *probeEvery))
	}
	if *advPhases > 0 && *instPath != "" {
		fatalUsage(fmt.Errorf("-adversarial conflicts with -instance: pick one workload source"))
	}

	var inst *workload.Instance
	var err error
	if *advPhases > 0 {
		inst, err = experiments.AdversarialInstance(*advPhases)
	} else {
		inst, err = loadInstance(*instPath, *m, *n, *seed, *load, *profSel, *eps)
	}
	fail(err)

	speed, err := cliflags.ParseSpeed(*speedStr)
	fail(err)

	sched, err := cliflags.MakeScheduler(*schedSel, *eps, *resilient)
	fail(err)

	pol, err := cliflags.MakePolicy(*polSel, *seed)
	fail(err)

	if err := faultFlags.Check(setFlags); err != nil {
		fatalUsage(err)
	}
	fcfg, err := faultFlags.Build()
	fail(err)
	if fcfg != nil && *verify {
		fail(fmt.Errorf("-verify is not supported with fault injection: the independent trace checker does not model faults"))
	}

	var rec *telemetry.Recorder
	if *eventsPath != "" || *perfPath != "" || *telSummary || *probeEvery > 0 {
		rec = telemetry.NewRecorder()
		if *probeEvery > 0 {
			rec.Probe = telemetry.NewProbe(*probeEvery, *probeJobs)
		}
		telemetry.Attach(sched, rec)
	}

	simCfg := sim.Config{M: inst.M, Speed: speed, Policy: pol,
		Record:  *gantt || *verify || *perfPath != "",
		Horizon: *horizon, Faults: fcfg, Telemetry: rec}
	var res *sim.Result
	if *evented {
		switch *schedSel {
		case "gp", "llf", "nc":
			fmt.Fprintf(os.Stderr, "spaa-sim: warning: %s is not event-stationary; event-interval steps may diverge from tick-exact results\n", *schedSel)
		}
		res, err = sim.RunEvented(simCfg, inst.Jobs, sched)
	} else {
		res, err = sim.Run(simCfg, inst.Jobs, sched)
	}
	fail(err)

	if *eventsPath != "" {
		fail(os.WriteFile(*eventsPath, telemetry.EventsJSONL(rec.Events()), 0o644))
	}
	if *perfPath != "" {
		ct, err := perfettoTrace(res, inst.Jobs, rec)
		fail(err)
		f, err := os.Create(*perfPath)
		fail(err)
		fail(ct.WriteJSON(f))
		fail(f.Close())
	}

	if *jsonOut {
		res.Trace = nil // traces are large; use -gantt/-verify for those paths
		data, err := json.MarshalIndent(res, "", "  ")
		fail(err)
		fmt.Println(string(data))
		return
	}
	fmt.Printf("instance   %s (%d jobs, m=%d, total work %d)\n", inst.Name, len(inst.Jobs), inst.M, inst.TotalWork())
	if *stats {
		fmt.Print(workload.Describe(inst).Table().Render())
	}
	fmt.Printf("scheduler  %s  speed %s  policy %s\n", sched.Name(), speed, pol.Name())
	if res.Faults != nil {
		fmt.Printf("faults     %s\n", fcfg.String())
		fmt.Printf("           %d degraded ticks (min capacity %d), %d crashes, %d proc-ticks down, %d dropped, %d straggled\n",
			res.Faults.DegradedTicks, res.Faults.MinCapacity, res.Faults.CrashEvents,
			res.Faults.DownProcTicks, res.Faults.DroppedProcTicks, res.Faults.StraggleProcTicks)
		fmt.Printf("           %d failed node executions, %d work units lost\n",
			res.Faults.Retries, res.Faults.LostWork)
	}
	fmt.Printf("profit     %.2f of %.2f offered (%.1f%%)\n", res.TotalProfit, res.OfferedProfit, 100*res.ProfitFraction())
	fmt.Printf("completed  %d/%d jobs  (%d expired)\n", res.Completed, len(inst.Jobs), res.Expired)
	fmt.Printf("machine    %d ticks, utilization %.1f%%\n", res.Ticks, 100*res.Utilization())
	if *showUB {
		ub := opt.Bound(opt.TasksFromJobs(inst.Jobs, inst.M, 1), inst.M, 1)
		fmt.Printf("OPT bound  %.2f  → empirical ratio %.2f\n", ub, safeRatio(ub, res.TotalProfit))
	}
	if *verify {
		if err := trace.Validate(res.Trace, inst.Jobs, speed); err != nil {
			fail(fmt.Errorf("schedule INVALID: %w", err))
		}
		if err := trace.VerifyCompletions(res, inst.Jobs); err != nil {
			fail(fmt.Errorf("completions INVALID: %w", err))
		}
		fmt.Println("verified   schedule valid: capacity, precedence, releases, completions")
		if rec != nil {
			if err := trace.CrossCheckEvents(res.Trace, inst.Jobs, speed, rec.Events()); err != nil {
				fail(fmt.Errorf("event stream INVALID: %w", err))
			}
			fmt.Println("verified   event stream consistent: completions and preemptions match the replay")
		}
	}
	if *telSummary {
		fmt.Println()
		fmt.Print(rec.Registry().Table("telemetry").Render())
	}
	if *gantt {
		fmt.Println()
		fmt.Print(trace.Gantt(res.Trace, inst.Jobs, 100))
		fmt.Print(trace.Utilization(res.Trace, 100))
	}
}

// validateFlags rejects nonsensical generator and engine parameters up front
// with clear errors instead of surfacing them as panics or empty runs.
func validateFlags(m, n int, horizon int64, load, eps float64) error {
	if m < 1 {
		return fmt.Errorf("-m = %d: need at least one processor", m)
	}
	if n < 1 {
		return fmt.Errorf("-n = %d: need at least one job", n)
	}
	if horizon < 0 {
		return fmt.Errorf("-horizon = %d: must be ≥ 0 (0 runs to completion)", horizon)
	}
	if load <= 0 {
		return fmt.Errorf("-load = %g: must be positive", load)
	}
	if eps <= 0 {
		return fmt.Errorf("-eps = %g: must be positive", eps)
	}
	return nil
}

func safeRatio(ub, p float64) float64 {
	if p == 0 {
		return 0
	}
	return ub / p
}

func fail(err error) { cliflags.Fail("spaa-sim", err) }

// fatalUsage reports a flag-usage error and exits 2, mirroring flag's own
// bad-usage exit code (and spaa-bench's strict validation).
func fatalUsage(err error) { cliflags.FatalUsage("spaa-sim", err) }

func loadInstance(path string, m, n int, seed int64, load float64, prof string, eps float64) (*workload.Instance, error) {
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var inst workload.Instance
		if err := json.Unmarshal(data, &inst); err != nil {
			return nil, err
		}
		return &inst, nil
	}
	kind, err := parseProfitKind(prof)
	if err != nil {
		return nil, err
	}
	return workload.Generate(workload.Config{
		Seed: seed, N: n, M: m, Eps: eps, SlackSpread: 0.4, Load: load, Scale: 2, Profit: kind,
	})
}

func parseProfitKind(s string) (workload.ProfitKind, error) {
	switch s {
	case "step":
		return workload.ProfitStep, nil
	case "linear":
		return workload.ProfitLinear, nil
	case "exp":
		return workload.ProfitExp, nil
	default:
		return 0, fmt.Errorf("unknown profit family %q", s)
	}
}

// perfettoTrace is the -perfetto document: the run's trace and decision
// events, plus every probe series as a counter track — machine.* on the
// machine process, job.<id>.* (from -probe-jobs) on the jobs process.
func perfettoTrace(res *sim.Result, jobs []*sim.Job, rec *telemetry.Recorder) (*telemetry.ChromeTrace, error) {
	ct, err := trace.Perfetto(res.Trace, jobs, rec.Events())
	if err != nil || rec.Probe == nil {
		return ct, err
	}
	for _, ts := range rec.Probe.Series() {
		switch {
		case strings.HasPrefix(ts.Name, "machine."):
			ct.AddCounterSeries(trace.PerfettoPIDMachine, ts)
		case strings.HasPrefix(ts.Name, "job."):
			ct.AddCounterSeries(trace.PerfettoPIDJobs, ts)
		}
	}
	ct.SortStable()
	return ct, nil
}
