// Command perfbench is the dagsched benchmark. It drives the real stack
// from outside, through its public entry points — serve.New, the HTTP
// handler behind a loopback listener, Server.Advance/Checkpoint/Drain,
// serve.ReplayDir, workload.Generate and sim.RunAuto — checks every output
// it gets back against its own independent computation, and prints one
// JSON result line.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload batch-wal --seed 1 --seconds 10 --trace 0
//
// Simulated time never follows the wall clock: every daemon runs with its
// ticker disabled and the benchmark moves the clock itself, so verdicts,
// schedules and profit repeat exactly for a seed and only timings vary.
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"time"
)

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	short    bool   // reduced-size self-check
	workDir  string // scratch directory for WAL directories, removed at exit
}

// round is what one whole round of a workload reports. Every round of a run
// replays the same seeded inputs on fresh state, so its deterministic parts
// (verdicts, profit, counts) must repeat exactly.
type round struct {
	latMs     []float64 // latency samples of the timed operations, in ms
	jobs      int       // jobs the timed part handled
	busy      time.Duration
	profit    float64 // earned profit (deterministic)
	offered   float64 // offered profit from the benchmark's own inputs
	heapMB    float64
	attempted int64
	failed    int64
	failures  []string           // error text of each failed operation
	layers    map[string]float64 // traced rounds only
	digest    string             // deterministic summary; equal across rounds
}

// bench is one workload after its set-up.
type bench interface {
	round(traced bool) (*round, error)
}

type workloadDef struct {
	name   string
	setup  func(o *options) (bench, error)
	oneCPU bool // run the whole process on one CPU (see singleopen.go)
}

var workloads = []workloadDef{
	{"batch-wal", setupBatchWAL, false},
	{"single-open", setupSingleOpen, true},
	{"restart", setupRestart, false},
	{"offline-sim", setupOfflineSim, false},
}

// endToEnd lists the metrics an untraced run prints, in order. Latency
// tails are printed on standard error but are not among them: on a small
// shared host they measure how often the hypervisor deschedules the machine
// (a spinning thread loses 1–5% of wall time in gaps of up to 12 ms), and
// they moved several-fold between runs of the same code.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"profit_ratio", "ratio"},
	{"heap_mb", "MiB"},
}

// perLayer lists the metrics a traced run prints. A layer a workload does
// not reach reads 0.
var perLayer = []struct{ name, unit string }{
	{"loadgen.lag_p99_ms", "ms"},
	{"serve.http.self_us_per_item", "us"},
	{"serve.placer.keyed", "count"},
	{"serve.placer.pressure", "count"},
	{"serve.placer.spill", "count"},
	{"serve.mailbox.wait_us_p99", "us"},
	{"serve.engine.us_per_item", "us"},
	{"serve.wal.append_us_per_record", "us"},
	{"serve.wal.bytes_per_item", "B"},
	{"serve.checkpoint.count", "count"},
	{"serve.checkpoint.ms_total", "ms"},
	{"serve.checkpoint.bytes_last", "B"},
	{"serve.drain.ms", "ms"},
	{"serve.recovery.us_per_job", "us"},
	{"serve.recovery.replayed_jobs", "count"},
	{"workload.unmarshal_us_per_job", "us"},
	{"dag.decode_us_per_spec", "us"},
	{"sim.advance_us_per_tick", "us"},
	{"sim.ticks", "count"},
	{"sim.engine_self_s", "s"},
	{"core.callback_s", "s"},
	{"core.admitted", "count"},
	{"core.parked", "count"},
	{"core.rejected", "count"},
	{"core.readmitted", "count"},
	{"runtime.allocs_per_item", "count"},
	{"runtime.alloc_bytes_per_item", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupRepeats = 5

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: batch-wal, single-open, restart or offline-sim")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long the measured phase runs (whole rounds)")
	flag.IntVar(&traceFlag, "trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&o.short, "short", false, "self-check: run the workload at reduced size")
	workRoot := flag.String("workdir", ".bench_build", "directory under which the run keeps its WAL directories")
	flag.Parse()
	if flag.NArg() != 0 || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == o.workload {
			def = &workloads[i]
		}
	}
	if def == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	if def.oneCPU {
		if err := runOnOneCPU(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: not confined to one CPU: %v\n", err)
		}
	}
	os.Exit(run(def, &o, *workRoot))
}

func run(def *workloadDef, o *options, workRoot string) int {
	dir, err := os.MkdirTemp(workRoot, "work-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	o.workDir = dir
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d seconds=%g trace=%v short=%v nproc=%d cpu=%q go=%s\n",
		o.workload, o.seed, o.seconds, o.trace, o.short, runtime.NumCPU(), os.Getenv(oneCPUEnv), runtime.Version())

	var setups []float64
	var b bench
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		b, err = def.setup(o)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return fail(fmt.Errorf("set-up: %w", err))
		}
	}
	// Whole rounds until the budget is spent. A traced run alternates
	// untraced and traced rounds, so the tracing overhead is measured on the
	// same inputs in the same process.
	var rounds []*round
	var plain, traced []*round
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < o.seconds || (o.trace && len(traced) == 0); i++ {
		tr := o.trace && i%2 == 1
		runtime.GC() // the previous round's garbage is not this round's cost
		r, err := b.round(tr)
		if err != nil {
			return fail(fmt.Errorf("round %d: %w", i, err))
		}
		if len(rounds) > 0 && r.digest != rounds[0].digest {
			return fail(fmt.Errorf("round %d is not deterministic:\n  first: %s\n  now:   %s", i, rounds[0].digest, r.digest))
		}
		fmt.Fprintf(os.Stderr, "perfbench: round %d traced=%v busy=%.3fs jobs=%d heap=%.2fMiB p50=%.4fms p99=%.4fms\n",
			i, tr, r.busy.Seconds(), r.jobs, r.heapMB, quantile(r.latMs, 0.5), quantile(r.latMs, 0.99))
		rounds = append(rounds, r)
		if tr {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}

	out := resultOut{Correct: true, Metrics: map[string]metricOut{}}
	seen := map[string]bool{}
	for _, r := range rounds {
		out.Attempted += r.attempted
		out.Failed += r.failed
		for _, f := range r.failures {
			if !seen[f] {
				seen[f] = true
				fmt.Printf("failed operation: %s\n", f)
			}
		}
	}
	if !o.trace {
		var lat, rates, heaps []float64
		for _, r := range plain {
			lat = append(lat, r.latMs...)
			rates = append(rates, float64(r.jobs)/r.busy.Seconds())
			heaps = append(heaps, r.heapMB)
		}
		vals := map[string]float64{
			"setup_s":        median(setups),
			"jobs_per_s":     median(rates),
			"latency_p50_ms": quantile(lat, 0.50),
			"profit_ratio":   rounds[0].profit / rounds[0].offered,
			"heap_mb":        median(heaps),
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d rounds, %d latency samples, setups %v, p90 %.4f p95 %.4f p99 %.4f ms\n", len(plain), len(lat), setups, quantile(lat, 0.9), quantile(lat, 0.95), quantile(lat, 0.99))
		for _, m := range endToEnd {
			v := vals[m.name]
			if !(v > 0) || math.IsInf(v, 0) {
				return fail(fmt.Errorf("metric %s = %v, want a positive number", m.name, v))
			}
			out.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
		}
	} else {
		layers := medianLayers(traced)
		pt, tt := opSeconds(plain), opSeconds(traced)
		layers["trace.overhead_pct"] = 100 * (tt/pt - 1)
		fmt.Fprintf(os.Stderr, "perfbench: %d untraced + %d traced rounds\n", len(plain), len(traced))
		for _, m := range perLayer {
			out.Metrics[m.name] = metricOut{Value: layers[m.name], Unit: m.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	return 0
}

// fail reports a failed check or a broken run: the result line says
// correct=false and the exit code is nonzero.
func fail(err error) int {
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: %v\n", err)
	line, _ := json.Marshal(resultOut{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metricOut{}})
	fmt.Println(string(line))
	return 1
}

// opSeconds is the median time per handled job over a set of rounds.
func opSeconds(rs []*round) float64 {
	var v []float64
	for _, r := range rs {
		v = append(v, r.busy.Seconds()/float64(r.jobs))
	}
	return median(v)
}

// medianLayers takes each per-layer metric's median across traced rounds.
// Deterministic counts are equal in every round, so their median is exact.
func medianLayers(rs []*round) map[string]float64 {
	vals := map[string][]float64{}
	for _, r := range rs {
		for k, v := range r.layers {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// fmtDigest renders a deterministic round summary for cross-round checks.
func fmtDigest(parts ...any) string {
	s := ""
	for i, p := range parts {
		if i > 0 {
			s += " "
		}
		switch v := p.(type) {
		case float64:
			s += strconv.FormatFloat(v, 'g', -1, 64)
		default:
			s += fmt.Sprint(v)
		}
	}
	return s
}
