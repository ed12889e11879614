package dagsched_test

import (
	"fmt"
	"log"

	"dagsched"
)

// Example runs the paper's scheduler S on three hand-built jobs and prints
// the outcome — the README quickstart.
func Example() {
	pay := func(v float64, d int64) dagsched.ProfitFn {
		fn, err := dagsched.StepProfit(v, d)
		if err != nil {
			log.Fatal(err)
		}
		return fn
	}
	jobs := []*dagsched.Job{
		{ID: 1, Graph: dagsched.ForkJoin(2, 6, 1), Release: 0, Profit: pay(10, 60)},
		{ID: 2, Graph: dagsched.Chain(8, 1), Release: 3, Profit: pay(4, 40)},
		{ID: 3, Graph: dagsched.Block(12, 1), Release: 5, Profit: pay(6, 30)},
	}
	sched, err := dagsched.NewSchedulerS(1.0)
	if err != nil {
		log.Fatal(err)
	}
	res, err := dagsched.Run(dagsched.SimConfig{M: 4}, jobs, sched)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profit %.0f of %.0f, %d/%d jobs completed\n",
		res.TotalProfit, res.OfferedProfit, res.Completed, len(jobs))
	// Output:
	// profit 20 of 20, 3/3 jobs completed
}

// ExampleFigure1 reproduces the Theorem 1 separation: the unlucky node order
// needs (W−L)/m + L ticks where the clairvoyant one needs W/m.
func ExampleFigure1() {
	g := dagsched.Figure1(4, 16) // m=4, L=16 → W=64
	fn, err := dagsched.StepProfit(1, 1000)
	if err != nil {
		log.Fatal(err)
	}
	for _, pol := range []dagsched.PickPolicy{dagsched.PickUnlucky, dagsched.PickCriticalPath} {
		jobs := []*dagsched.Job{{ID: 1, Graph: g, Release: 0, Profit: fn}}
		res, err := dagsched.Run(dagsched.SimConfig{M: 4, Policy: pol}, jobs, dagsched.NewFIFO())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d ticks\n", pol.Name(), res.Jobs[0].CompletedAt)
	}
	// Output:
	// unlucky: 28 ticks
	// critical-path-first: 16 ticks
}

// ExampleSchedulerS_Plan shows the arrival-time quantities S derives from
// (W, L, D): the allotment n, the execution bound x, and δ-goodness.
func ExampleSchedulerS_Plan() {
	s, err := dagsched.NewSchedulerS(1.0)
	if err != nil {
		log.Fatal(err)
	}
	s.Init(dagsched.Env{M: 8, Speed: 1})
	fn, err := dagsched.StepProfit(12, 30)
	if err != nil {
		log.Fatal(err)
	}
	plan := s.Plan(dagsched.JobView{ID: 1, W: 64, L: 8, Profit: fn})
	fmt.Printf("n=%.3f alloc=%d x=%.1f good=%v\n", plan.NReal, plan.Alloc, plan.X, plan.Good)
	// Output:
	// n=4.667 alloc=5 x=19.2 good=true
}

// ExampleOptUpperBound bounds the offline optimum for a small instance.
func ExampleOptUpperBound() {
	fn, err := dagsched.StepProfit(5, 10)
	if err != nil {
		log.Fatal(err)
	}
	jobs := []*dagsched.Job{
		{ID: 1, Graph: dagsched.Block(8, 1), Release: 0, Profit: fn},
		{ID: 2, Graph: dagsched.Block(8, 1), Release: 0, Profit: fn},
	}
	// On one processor only one of the two 8-work jobs fits before t=10.
	fmt.Printf("m=1: %.0f  m=2: %.0f\n",
		dagsched.OptUpperBound(jobs, 1, 1), dagsched.OptUpperBound(jobs, 2, 1))
	// Output:
	// m=1: 5  m=2: 10
}

// ExampleGenerateWorkload builds a reproducible synthetic instance whose
// deadlines satisfy the Theorem 2 slack condition.
func ExampleGenerateWorkload() {
	inst, err := dagsched.GenerateWorkload(dagsched.WorkloadConfig{
		Seed: 7, N: 5, M: 4, Eps: 1, Load: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d jobs, total work %d\n", len(inst.Jobs), inst.TotalWork())
	// Output:
	// 5 jobs, total work 109
}

// ExampleNewSchedulerGP shows the Section 5 scheduler assigning a minimal
// valid deadline inside a decaying profit's flat prefix.
func ExampleNewSchedulerGP() {
	fn, err := dagsched.LinearDecayProfit(10, 20, 60) // flat 20, zero at 60
	if err != nil {
		log.Fatal(err)
	}
	jobs := []*dagsched.Job{
		{ID: 1, Graph: dagsched.Block(8, 2), Release: 0, Profit: fn},
	}
	gp, err := dagsched.NewSchedulerGP(1.0)
	if err != nil {
		log.Fatal(err)
	}
	res, err := dagsched.Run(dagsched.SimConfig{M: 4}, jobs, gp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("completed at t=%d, profit %.0f of peak 10\n",
		res.Jobs[0].CompletedAt, res.TotalProfit)
	// Output:
	// completed at t=8, profit 10 of peak 10
}

// ExampleNewConfig builds a run configuration from functional options — the
// form the serving daemon and programmatic embeddings use.
func ExampleNewConfig() {
	fn, err := dagsched.StepProfit(6, 30)
	if err != nil {
		log.Fatal(err)
	}
	jobs := []*dagsched.Job{{ID: 1, Graph: dagsched.Block(12, 1), Release: 0, Profit: fn}}
	sched, err := dagsched.NewSchedulerS(1.0)
	if err != nil {
		log.Fatal(err)
	}
	cfg := dagsched.NewConfig(
		dagsched.WithM(4),
		dagsched.WithSpeed(dagsched.NewSpeed(3, 2)),
		dagsched.WithRecording(),
	)
	res, err := dagsched.Run(cfg, jobs, sched)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("m=%d speed=%v profit %.0f\n", res.M, res.Speed, res.TotalProfit)
	// Output:
	// m=4 speed=1.5 profit 6
}

// ExampleNewSession drives the engine step by step with online arrivals —
// the serving daemon's code path. The batch Run over the same jobs is
// bit-identical.
func ExampleNewSession() {
	sched, err := dagsched.NewSchedulerS(1.0)
	if err != nil {
		log.Fatal(err)
	}
	sess, err := dagsched.NewSession(dagsched.NewConfig(dagsched.WithM(2)), nil, sched)
	if err != nil {
		log.Fatal(err)
	}
	fn, err := dagsched.StepProfit(5, 20)
	if err != nil {
		log.Fatal(err)
	}
	if err := sess.Arrive(&dagsched.Job{ID: 1, Graph: dagsched.Block(6, 1), Release: 0, Profit: fn}); err != nil {
		log.Fatal(err)
	}
	if err := sess.RunToEnd(); err != nil {
		log.Fatal(err)
	}
	res := sess.Finish()
	_, state := sess.Lookup(1)
	fmt.Printf("job 1 %s, profit %.0f in %d ticks\n", state, res.TotalProfit, res.Ticks)
	// Output:
	// job 1 completed, profit 5 in 6 ticks
}

// ExampleSchedulerS_Admission queries the admission test without committing
// the job — the serving daemon's immediate admit/reject verdict.
func ExampleSchedulerS_Admission() {
	s, err := dagsched.NewSchedulerS(1.0)
	if err != nil {
		log.Fatal(err)
	}
	s.Init(dagsched.Env{M: 4, Speed: 1})
	fn, err := dagsched.StepProfit(10, 40)
	if err != nil {
		log.Fatal(err)
	}
	d := s.Admission(dagsched.JobView{ID: 1, W: 32, L: 4, Profit: fn})
	fmt.Printf("admit=%v alloc=%d\n", d.Admit, d.Plan.Alloc)

	tight, err := dagsched.StepProfit(8, 12)
	if err != nil {
		log.Fatal(err)
	}
	d = s.Admission(dagsched.JobView{ID: 2, W: 100, L: 2, Profit: tight})
	fmt.Printf("admit=%v reason=%s\n", d.Admit, d.Reason)
	// Output:
	// admit=true alloc=2
	// admit=false reason=not-delta-good
}

// ExampleMarshalJob round-trips a job through the instance wire format —
// the job member of one serving WAL record.
func ExampleMarshalJob() {
	fn, err := dagsched.StepProfit(5, 9)
	if err != nil {
		log.Fatal(err)
	}
	j := &dagsched.Job{ID: 7, Graph: dagsched.Chain(3, 1), Release: 2, Profit: fn}
	data, err := dagsched.MarshalJob(j)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(data))
	back, err := dagsched.UnmarshalJob(data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("W=%d L=%d\n", back.Graph.TotalWork(), back.Graph.Span())
	// Output:
	// {"id":7,"release":2,"graph":{"work":[1,1,1],"edges":[[0,1],[1,2]]},"profit":{"kind":"step","value":5,"deadline":9}}
	// W=3 L=3
}

// ExampleNewRecorder attaches telemetry to a run: the scheduler's decision
// events land in the recorder alongside the engine's counters.
func ExampleNewRecorder() {
	fn, err := dagsched.StepProfit(4, 30)
	if err != nil {
		log.Fatal(err)
	}
	jobs := []*dagsched.Job{
		{ID: 1, Graph: dagsched.Block(8, 1), Release: 0, Profit: fn},
		{ID: 2, Graph: dagsched.Chain(4, 1), Release: 1, Profit: fn},
	}
	sched, err := dagsched.NewSchedulerS(1.0)
	if err != nil {
		log.Fatal(err)
	}
	rec := dagsched.NewRecorder()
	dagsched.AttachTelemetry(sched, rec)
	cfg := dagsched.NewConfig(dagsched.WithM(4), dagsched.WithRecorder(rec))
	if _, err := dagsched.Run(cfg, jobs, sched); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("admitted %d of %d arrivals\n",
		rec.Registry().Counter("events.admit"), rec.Registry().Counter("events.arrival"))
	// Output:
	// admitted 2 of 2 arrivals
}

// ExampleParseFaultSpec runs a resilient scheduler under deterministic fault
// injection configured from a compact spec string.
func ExampleParseFaultSpec() {
	fc, err := dagsched.ParseFaultSpec("seed=7,mtbf=40,mttr=10")
	if err != nil {
		log.Fatal(err)
	}
	fn, err := dagsched.StepProfit(3, 200)
	if err != nil {
		log.Fatal(err)
	}
	jobs := []*dagsched.Job{
		{ID: 1, Graph: dagsched.Block(64, 1), Release: 0, Profit: fn},
	}
	sched, err := dagsched.NewResilientS(1.0)
	if err != nil {
		log.Fatal(err)
	}
	cfg := dagsched.NewConfig(dagsched.WithM(4), dagsched.WithFaults(fc))
	res, err := dagsched.Run(cfg, jobs, sched)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("completed=%d faults recorded=%v\n", res.Completed, res.Faults != nil)
	// Output:
	// completed=1 faults recorded=true
}

// ExampleSerial composes verified DAG pieces into a pipeline job.
func ExampleSerial() {
	stage1 := dagsched.Block(6, 1)         // parallel ingest
	stage2 := dagsched.ReductionTree(6, 1) // combine
	g := dagsched.Serial(stage1, stage2)
	fmt.Printf("W=%d L=%d\n", g.TotalWork(), g.Span())
	// Output:
	// W=17 L=5
}
