package dagsched

// The benchmark harness: one BenchmarkEXP_<id> per experiment in the
// reproduction suite (each regenerates the corresponding table of
// EXPERIMENTS.md; run `go run ./cmd/spaa-bench` to see the tables), plus
// micro-benchmarks of the engine and the paper scheduler's hot paths.

import (
	"testing"

	"dagsched/internal/experiments"
	"dagsched/internal/telemetry"
	"dagsched/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	// Parallel: 1 keeps the per-experiment numbers comparable with the
	// pre-runner history; the suite-level benchmarks below measure fan-out.
	cfg := experiments.Config{Seeds: 3, Parallel: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEXP_FIG1 regenerates the Figure 1 / Theorem 1 separation table.
func BenchmarkEXP_FIG1(b *testing.B) { benchExperiment(b, "FIG1") }

// BenchmarkEXP_FIG2 regenerates the Figure 2 granularity table.
func BenchmarkEXP_FIG2(b *testing.B) { benchExperiment(b, "FIG2") }

// BenchmarkEXP_THM1 regenerates the Theorem 1 speed-threshold table.
func BenchmarkEXP_THM1(b *testing.B) { benchExperiment(b, "THM1") }

// BenchmarkEXP_THM2 regenerates the Theorem 2 competitive-ratio table.
func BenchmarkEXP_THM2(b *testing.B) { benchExperiment(b, "THM2") }

// BenchmarkEXP_COR1 regenerates the Corollary 1 speed-sweep table.
func BenchmarkEXP_COR1(b *testing.B) { benchExperiment(b, "COR1") }

// BenchmarkEXP_COR2 regenerates the Corollary 2 table.
func BenchmarkEXP_COR2(b *testing.B) { benchExperiment(b, "COR2") }

// BenchmarkEXP_THM3 regenerates the Theorem 3 general-profit table.
func BenchmarkEXP_THM3(b *testing.B) { benchExperiment(b, "THM3") }

// BenchmarkEXP_BASE regenerates the baseline-comparison table.
func BenchmarkEXP_BASE(b *testing.B) { benchExperiment(b, "BASE") }

// BenchmarkEXP_ABL1 regenerates the condition-(2) ablation table.
func BenchmarkEXP_ABL1(b *testing.B) { benchExperiment(b, "ABL1") }

// BenchmarkEXP_ABL2 regenerates the allotment ablation table.
func BenchmarkEXP_ABL2(b *testing.B) { benchExperiment(b, "ABL2") }

// BenchmarkEXP_ABL3 regenerates the δ-fresh ablation table.
func BenchmarkEXP_ABL3(b *testing.B) { benchExperiment(b, "ABL3") }

// BenchmarkEXP_ABL4 regenerates the band-index substrate table.
func BenchmarkEXP_ABL4(b *testing.B) { benchExperiment(b, "ABL4") }

// BenchmarkEXP_OPTQ regenerates the OPT-bound-quality table.
func BenchmarkEXP_OPTQ(b *testing.B) { benchExperiment(b, "OPTQ") }

// BenchmarkEXP_ADV regenerates the adversarial-stream table.
func BenchmarkEXP_ADV(b *testing.B) { benchExperiment(b, "ADV") }

// BenchmarkEXP_EXT regenerates the future-work extension tables.
func BenchmarkEXP_EXT(b *testing.B) { benchExperiment(b, "EXT") }

// BenchmarkEXP_LEM regenerates the lemma-verification table.
func BenchmarkEXP_LEM(b *testing.B) { benchExperiment(b, "LEM") }

// BenchmarkEXP_HPCW regenerates the HPC-kernel workload table.
func BenchmarkEXP_HPCW(b *testing.B) { benchExperiment(b, "HPCW") }

// BenchmarkEXP_MINE regenerates the adversary-miner table.
func BenchmarkEXP_MINE(b *testing.B) { benchExperiment(b, "MINE") }

// BenchmarkEXP_RT regenerates the real-time schedulability table.
func BenchmarkEXP_RT(b *testing.B) { benchExperiment(b, "RT") }

// BenchmarkEXP_FAULTS regenerates the fault-injection degradation tables.
func BenchmarkEXP_FAULTS(b *testing.B) { benchExperiment(b, "FAULTS") }

// BenchmarkEXP_CMT regenerates the commitment-price tables.
func BenchmarkEXP_CMT(b *testing.B) { benchExperiment(b, "CMT") }

// benchSuite runs the entire quick-mode suite at a fixed worker count, the
// end-to-end number the -parallel flag moves.
func benchSuite(b *testing.B, workers int) {
	cfg := experiments.Config{Quick: true, Seeds: 2, Parallel: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range experiments.All() {
			if _, err := e.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSuiteQuickSerial is the quick suite on one runner worker.
func BenchmarkSuiteQuickSerial(b *testing.B) { benchSuite(b, 1) }

// BenchmarkSuiteQuickParallel is the quick suite with one worker per core;
// its tables are byte-identical to the serial run's.
func BenchmarkSuiteQuickParallel(b *testing.B) { benchSuite(b, 0) }

// Micro-benchmarks.

func benchInstance(b *testing.B, n int, load float64) *Instance {
	b.Helper()
	inst, err := GenerateWorkload(WorkloadConfig{
		Seed: 42, N: n, M: 8, Eps: 1, SlackSpread: 0.4, Load: load, Scale: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// BenchmarkEngineSchedulerS measures a full simulation of scheduler S on a
// moderately loaded instance (ticks, admissions, executions).
func BenchmarkEngineSchedulerS(b *testing.B) {
	inst := benchInstance(b, 200, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSchedulerS(1.0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Run(SimConfig{M: inst.M}, inst.Jobs, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSchedulerSAuto is the same workload through RunAuto, which
// routes this (scheduler, policy) combination to the evented engine; the gap
// to BenchmarkEngineSchedulerS is the payoff of auto-routing on one cell.
func BenchmarkEngineSchedulerSAuto(b *testing.B) {
	inst := benchInstance(b, 200, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSchedulerS(1.0)
		if err != nil {
			b.Fatal(err)
		}
		res, err := RunAuto(SimConfig{M: inst.M}, inst.Jobs, s)
		if err != nil {
			b.Fatal(err)
		}
		if res.Engine != "evented" {
			b.Fatalf("routed to %q, want evented", res.Engine)
		}
	}
}

// BenchmarkEngineEDF is the same instance under the EDF baseline, isolating
// the cost of S's admission machinery.
func BenchmarkEngineEDF(b *testing.B) {
	inst := benchInstance(b, 200, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(SimConfig{M: inst.M}, inst.Jobs, NewEDF()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineEDFAuto routes the EDF cell through RunAuto (evented).
func BenchmarkEngineEDFAuto(b *testing.B) {
	inst := benchInstance(b, 200, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunAuto(SimConfig{M: inst.M}, inst.Jobs, NewEDF())
		if err != nil {
			b.Fatal(err)
		}
		if res.Engine != "evented" {
			b.Fatalf("routed to %q, want evented", res.Engine)
		}
	}
}

// BenchmarkEngineSchedulerGP measures the general-profit scheduler, whose
// arrival-time deadline search dominates.
func BenchmarkEngineSchedulerGP(b *testing.B) {
	inst, err := GenerateWorkload(WorkloadConfig{
		Seed: 42, N: 100, M: 8, Eps: 1, SlackSpread: 0.4, Load: 2, Scale: 2,
		Profit: workload.ProfitLinear,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gp, err := NewSchedulerGP(1.0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Run(SimConfig{M: inst.M}, inst.Jobs, gp); err != nil {
			b.Fatal(err)
		}
	}
}

// Telemetry overhead: the three benchmarks below share the instance and
// scheduler of BenchmarkEngineSchedulerS and differ only in instrumentation,
// so their deltas isolate the telemetry layer's cost. BENCH_PR3.json records
// a run; the nil path must stay within noise of the uninstrumented seed.

func benchTelemetry(b *testing.B, rec func() *telemetry.Recorder) {
	inst := benchInstance(b, 200, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSchedulerS(1.0)
		if err != nil {
			b.Fatal(err)
		}
		r := rec()
		if r != nil {
			telemetry.Attach(s, r)
		}
		if _, err := Run(SimConfig{M: inst.M, Telemetry: r}, inst.Jobs, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineTelemetryNil is the disabled path: nil recorder, so every
// telemetry hook reduces to one pointer check.
func BenchmarkEngineTelemetryNil(b *testing.B) {
	benchTelemetry(b, func() *telemetry.Recorder { return nil })
}

// BenchmarkEngineTelemetryEvents records the decision-event stream and the
// counter/histogram registry, no probes.
func BenchmarkEngineTelemetryEvents(b *testing.B) {
	benchTelemetry(b, telemetry.NewRecorder)
}

// BenchmarkEngineTelemetryFull adds every-tick machine and per-job probes on
// top of the event stream — the heaviest configuration spaa-sim exposes.
func BenchmarkEngineTelemetryFull(b *testing.B) {
	benchTelemetry(b, func() *telemetry.Recorder {
		r := telemetry.NewRecorder()
		r.Probe = telemetry.NewProbe(1, true)
		return r
	})
}

// TestTelemetryNilPathAllocations guards the zero-cost contract and the tick
// loop's allocation diet: the instrumented engine with telemetry disabled
// allocated 4955/op on this workload before the hot-path rework (per-tick
// seen maps, liveList splices, sort.Slice closures, uncached scale graphs);
// generation stamps, ordered compaction, slices.Sort, and buffer reuse cut it
// to 2820/op. The budget allows ~1% drift from toolchain changes before
// failing — a regression past it means per-tick heap traffic came back.
func TestTelemetryNilPathAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard runs the full benchmark harness")
	}
	const budget = 2850
	r := testing.Benchmark(BenchmarkEngineTelemetryNil)
	if got := r.AllocsPerOp(); got > budget {
		t.Errorf("nil-telemetry run allocates %d/op, budget %d (was 4955 before the zero-allocation tick loop): per-tick heap traffic has regressed", got, budget)
	}
}

// TestIntervalPathAllocations is the same guard on the interval
// discipline: RunAuto steps this workload in intervals, which allocated
// 1602/op in the dedicated evented loop that Session.step replaced. The
// budget allows the same ~1% drift; a regression past it means an interval
// step allocates per step.
func TestIntervalPathAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard runs the full benchmark harness")
	}
	const budget = 1618
	r := testing.Benchmark(BenchmarkEngineSchedulerSAuto)
	if got := r.AllocsPerOp(); got > budget {
		t.Errorf("interval-discipline run allocates %d/op, budget %d (1602 in the evented loop): the interval step has started allocating per step", got, budget)
	}
}

// BenchmarkOptUpperBound measures the OPT bound machinery on a mid-size
// instance (LP + knapsack path).
func BenchmarkOptUpperBound(b *testing.B) {
	inst := benchInstance(b, 36, 1.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = OptUpperBound(inst.Jobs, inst.M, 1)
	}
}

// BenchmarkSpeedScaledRun measures the exact rational-speed execution path
// (work scaling + per-tick application).
func BenchmarkSpeedScaledRun(b *testing.B) {
	inst := benchInstance(b, 100, 2)
	sp := NewSpeed(7, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(SimConfig{M: inst.M, Speed: sp}, inst.Jobs, NewEDF()); err != nil {
			b.Fatal(err)
		}
	}
}
