package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"

	"dagsched/internal/dag"
	"dagsched/internal/profit"
	"dagsched/internal/sim"
)

// jobSpec is one submission as the benchmark knows it: the request bytes
// plus the facts about the job that the benchmark derives itself — work W,
// span L (its own longest-path pass for explicit DAGs) and the profit curve
// — against which the daemon's answers are checked.
type jobSpec struct {
	body    []byte // JSON object sent to the daemon
	w, l    int64
	fn      curve
	binding bool // carries a binding commitment: may finish past its deadline
}

// curve is the benchmark's own model of a job's profit function, evaluated
// with its own formulas.
type curve struct {
	kind                   string // step, linear, exp
	value                  float64
	deadline, flat, zeroAt int64
	half, cutoff           int64
}

// at is the profit of completing at latency t (t ≥ 1).
func (c curve) at(t int64) float64 {
	switch c.kind {
	case "step":
		if t <= c.deadline {
			return c.value
		}
	case "linear":
		switch {
		case t <= c.flat:
			return c.value
		case t < c.zeroAt:
			return c.value * float64(c.zeroAt-t) / float64(c.zeroAt-c.flat)
		}
	case "exp":
		switch {
		case t <= c.flat:
			return c.value
		case t < c.cutoff:
			return c.value * math.Exp2(-float64(t-c.flat)/float64(c.half))
		}
	}
	return 0
}

// lastUseful is the largest latency that still earns profit.
func (c curve) lastUseful() int64 {
	switch c.kind {
	case "linear":
		return c.zeroAt - 1
	case "exp":
		return c.cutoff - 1
	}
	return c.deadline
}

// curveOf models a generated profit function.
func curveOf(fn profit.Fn) (curve, error) {
	switch p := fn.(type) {
	case profit.Step:
		return curve{kind: "step", value: p.Value, deadline: p.Deadline}, nil
	case profit.LinearDecay:
		return curve{kind: "linear", value: p.Peak, flat: p.Flat, zeroAt: p.ZeroAt}, nil
	case profit.ExpDecay:
		return curve{kind: "exp", value: p.Peak, flat: p.Flat, half: p.HalfLife, cutoff: p.Cutoff}, nil
	}
	return curve{}, fmt.Errorf("unsupported profit function %T", fn)
}

// appendCurve renders the structured "profit" object of a v2 job spec.
func appendCurve(b []byte, c curve) []byte {
	b = append(b, `{"type":"`...)
	b = append(b, c.kind...)
	b = append(b, `","value":`...)
	b = strconv.AppendFloat(b, c.value, 'g', -1, 64)
	switch c.kind {
	case "step":
		b = append(b, `,"deadline":`...)
		b = strconv.AppendInt(b, c.deadline, 10)
	case "linear":
		b = append(b, `,"flat":`...)
		b = strconv.AppendInt(b, c.flat, 10)
		b = append(b, `,"zeroAt":`...)
		b = strconv.AppendInt(b, c.zeroAt, 10)
	case "exp":
		b = append(b, `,"flat":`...)
		b = strconv.AppendInt(b, c.flat, 10)
		b = append(b, `,"halfLife":`...)
		b = strconv.AppendInt(b, c.half, 10)
		b = append(b, `,"cutoff":`...)
		b = strconv.AppendInt(b, c.cutoff, 10)
	}
	return append(b, '}')
}

// paletteSeed fixes the scalar-spec palette (see scalarItems).
const paletteSeed = 0x5ca1a

// scalarShape is a v1 scalar spec {w, l, deadline, profit}: the daemon
// synthesizes the DAG and caches it per distinct shape.
type scalarShape struct {
	w, l, deadline int64
	profit         float64
}

func (s scalarShape) spec() *jobSpec {
	b := []byte(`{"w":`)
	b = strconv.AppendInt(b, s.w, 10)
	b = append(b, `,"l":`...)
	b = strconv.AppendInt(b, s.l, 10)
	b = append(b, `,"deadline":`...)
	b = strconv.AppendInt(b, s.deadline, 10)
	b = append(b, `,"profit":`...)
	b = strconv.AppendFloat(b, s.profit, 'g', -1, 64)
	b = append(b, '}')
	return &jobSpec{body: b, w: s.w, l: s.l, fn: curve{kind: "step", value: s.profit, deadline: s.deadline}}
}

// randomShape draws a scalar shape sized for an m-processor shard. The
// relative deadline is the Theorem 2 slack 2((W−L)/m + L) scaled by a factor
// in [0.5, 3): below 0.75 (Scheduler S at ε=1 has δ=1/4, so it needs
// D ≥ 1.5·x) a job is not δ-good and is rejected.
func randomShape(rng *rand.Rand, m int64, profitVal float64) scalarShape {
	w := 4 + rng.Int63n(93)
	l := 1 + rng.Int63n(min(w, 12))
	minD := 2 * (float64(w-l)/float64(m) + float64(l))
	d := int64(math.Ceil(minD * (0.5 + 2.5*rng.Float64())))
	return scalarShape{w: w, l: l, deadline: max(d, 1), profit: profitVal}
}

// scalarItems draws n scalar specs: seven in eight from a palette of 1024
// shapes (scalar-cache hits after first use), the rest fresh shapes with a
// fractional profit (misses). The palette is the same for every seed — the
// shapes a service's clients keep sending — so that the seed varies the
// sequence and the fresh shapes, not the make-up of the offered work.
func scalarItems(rng *rand.Rand, n int, m int64) []*jobSpec {
	prng := rand.New(rand.NewSource(paletteSeed))
	palette := make([]*jobSpec, 1024)
	for i := range palette {
		palette[i] = randomShape(prng, m, float64(1+prng.Intn(20))).spec()
	}
	out := make([]*jobSpec, n)
	for i := range out {
		if rng.Intn(8) != 0 {
			out[i] = palette[rng.Intn(len(palette))]
		} else {
			out[i] = randomShape(rng, m, 1+19*rng.Float64()).spec()
		}
	}
	return out
}

// batchBody renders a JSON array of specs.
func batchBody(specs []*jobSpec) []byte {
	b := []byte{'['}
	for i, s := range specs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, s.body...)
	}
	return append(b, ']')
}

// dagSpec renders a generated job as an explicit-DAG spec with a structured
// profit, computing W and L with the benchmark's own longest-path pass over
// the same work and edge lists it sends.
func dagSpec(j *sim.Job, commitment string) (*jobSpec, error) {
	spec, work, edges, err := jobFacts(j)
	if err != nil {
		return nil, err
	}
	b := []byte(`{"dag":{"work":[`)
	for i, x := range work {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, x, 10)
	}
	b = append(b, `],"edges":[`...)
	for i, e := range edges {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(e[0]), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(e[1]), 10)
		b = append(b, ']')
	}
	b = append(b, `]},"profit":`...)
	b = appendCurve(b, spec.fn)
	if commitment != "" {
		b = append(b, `,"commitment":"`...)
		b = append(b, commitment...)
		b = append(b, '"')
	}
	spec.body = append(b, '}')
	spec.binding = commitment == "delta"
	return spec, nil
}

// jobFacts lists a generated job's node works and edges and derives its W,
// L (the benchmark's own longest-path pass) and profit curve.
func jobFacts(j *sim.Job) (*jobSpec, []int64, [][2]int, error) {
	g := j.Graph
	work := make([]int64, g.NumNodes())
	var edges [][2]int
	for v := range work {
		work[v] = g.Work(dag.NodeID(v))
		for _, u := range g.Successors(dag.NodeID(v)) {
			edges = append(edges, [2]int{v, int(u)})
		}
	}
	w, l, err := workAndSpan(work, edges)
	if err != nil {
		return nil, nil, nil, err
	}
	c, err := curveOf(j.Profit)
	if err != nil {
		return nil, nil, nil, err
	}
	return &jobSpec{w: w, l: l, fn: c}, work, edges, nil
}

// workAndSpan returns total work and the longest weighted path of a DAG
// given as node works and edges, by Kahn's algorithm.
func workAndSpan(work []int64, edges [][2]int) (w, l int64, err error) {
	n := len(work)
	indeg := make([]int, n)
	succ := make([][]int, n)
	for _, e := range edges {
		succ[e[0]] = append(succ[e[0]], e[1])
		indeg[e[1]]++
	}
	finish := make([]int64, n) // longest path ending at v, inclusive
	var queue []int
	for v := 0; v < n; v++ {
		w += work[v]
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	seen := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		seen++
		finish[v] += work[v]
		l = max(l, finish[v])
		for _, u := range succ[v] {
			finish[u] = max(finish[u], finish[v])
			if indeg[u]--; indeg[u] == 0 {
				queue = append(queue, u)
			}
		}
	}
	if seen != n {
		return 0, 0, fmt.Errorf("generated graph has a cycle")
	}
	return w, l, nil
}

// ack is one acknowledged submission: the spec and the verdict.
type ack struct {
	spec     *jobSpec
	id       int
	release  int64
	decision string
}

// verdicts tallies acknowledged decisions.
type verdicts struct{ admitted, parked, rejected int }

func (v *verdicts) add(decision string) error {
	switch decision {
	case "admitted":
		v.admitted++
	case "parked":
		v.parked++
	case "rejected":
		v.rejected++
	default:
		return fmt.Errorf("unexpected decision %q", decision)
	}
	return nil
}

// checkResult checks a drained Result against the acknowledged submissions,
// recomputing every job's facts from its spec:
//   - each accepted job appears once, with the acknowledged release and the
//     spec's W and L; Completed + Expired equals the accepted count;
//   - a completed job took at least L ticks, earned exactly its spec's
//     profit at its latency, and — without a binding commitment — finished
//     by its last useful tick; an unfinished job earned nothing;
//   - BusyProcTicks ≤ M·Ticks, and the total profit is the sum of the
//     recomputed profits and at most the volume bound.
//
// It returns the number of parked jobs that completed (they were readmitted
// from the parked pool).
func checkResult(res *sim.Result, acks []ack, m int) (readmitted int, err error) {
	byID := make(map[int]*ack, len(acks))
	for i := range acks {
		a := &acks[i]
		if a.decision == "rejected" {
			continue
		}
		if _, dup := byID[a.id]; dup {
			return 0, fmt.Errorf("job id %d acknowledged twice", a.id)
		}
		byID[a.id] = a
	}
	if len(res.Jobs) != len(byID) {
		return 0, fmt.Errorf("result holds %d jobs, %d were accepted", len(res.Jobs), len(byID))
	}
	if res.Completed+res.Expired != len(byID) {
		return 0, fmt.Errorf("completed %d + expired %d ≠ accepted %d", res.Completed, res.Expired, len(byID))
	}
	if res.BusyProcTicks > int64(m)*res.Ticks {
		return 0, fmt.Errorf("busy processor-ticks %d exceed M·Ticks = %d", res.BusyProcTicks, int64(m)*res.Ticks)
	}
	var sum float64
	completed := 0
	for _, st := range res.Jobs {
		a, ok := byID[st.ID]
		if !ok {
			return 0, fmt.Errorf("result holds job %d, never acknowledged", st.ID)
		}
		delete(byID, st.ID)
		if st.Released != a.release || st.W != a.spec.w || st.L != a.spec.l {
			return 0, fmt.Errorf("job %d: released %d W %d L %d, want %d %d %d",
				st.ID, st.Released, st.W, st.L, a.release, a.spec.w, a.spec.l)
		}
		if !st.Completed {
			if st.Profit != 0 {
				return 0, fmt.Errorf("job %d did not complete but earned %v", st.ID, st.Profit)
			}
			continue
		}
		completed++
		lat := st.CompletedAt - st.Released
		if lat != st.Latency || lat < a.spec.l {
			return 0, fmt.Errorf("job %d: CompletedAt − Released = %d, reported latency %d, span %d", st.ID, lat, st.Latency, a.spec.l)
		}
		if !a.spec.binding && lat > a.spec.fn.lastUseful() {
			return 0, fmt.Errorf("job %d finished at latency %d, past its deadline %d", st.ID, lat, a.spec.fn.lastUseful())
		}
		if want := a.spec.fn.at(lat); !near(st.Profit, want) {
			return 0, fmt.Errorf("job %d earned %v at latency %d, its spec gives %v", st.ID, st.Profit, lat, want)
		}
		sum += st.Profit
		if a.decision == "parked" {
			readmitted++
		}
	}
	if completed != res.Completed {
		return 0, fmt.Errorf("%d jobs completed, result says %d", completed, res.Completed)
	}
	if !near(sum, res.TotalProfit) {
		return 0, fmt.Errorf("total profit %v, recomputed %v", res.TotalProfit, sum)
	}
	if ub := volumeBound(acks, m); res.TotalProfit > ub*(1+1e-9) {
		return 0, fmt.Errorf("total profit %v exceeds the volume bound %v", res.TotalProfit, ub)
	}
	return readmitted, nil
}

// volumeBound is an upper bound on the profit any schedule can earn from
// the acknowledged jobs: a fractional knapsack by peak profit per unit of
// work, into the M processors' capacity over the span from the first release
// to the last useful tick.
func volumeBound(acks []ack, m int) float64 {
	type item struct{ value, work float64 }
	var items []item
	first, last := int64(math.MaxInt64), int64(0)
	for _, a := range acks {
		if a.decision == "rejected" {
			continue
		}
		items = append(items, item{a.spec.fn.at(1), float64(a.spec.w)})
		first = min(first, a.release)
		last = max(last, a.release+a.spec.fn.lastUseful())
	}
	slices.SortFunc(items, func(x, y item) int {
		dx, dy := x.value/x.work, y.value/y.work
		switch {
		case dx > dy:
			return -1
		case dx < dy:
			return 1
		}
		return 0
	})
	capacity := float64(m) * float64(last-first+1)
	var ub float64
	for _, it := range items {
		if capacity <= 0 {
			break
		}
		take := min(1, capacity/it.work)
		ub += take * it.value
		capacity -= take * it.work
	}
	return ub
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// sameResult compares two Results on everything a schedule determines.
func sameResult(a, b *sim.Result) error {
	if a.Ticks != b.Ticks || a.Completed != b.Completed || a.Expired != b.Expired ||
		a.BusyProcTicks != b.BusyProcTicks || a.IdleProcTicks != b.IdleProcTicks ||
		!near(a.TotalProfit, b.TotalProfit) || !near(a.OfferedProfit, b.OfferedProfit) || len(a.Jobs) != len(b.Jobs) {
		return fmt.Errorf("ticks %d/%d completed %d/%d expired %d/%d busy %d/%d idle %d/%d profit %v/%v offered %v/%v jobs %d/%d",
			a.Ticks, b.Ticks, a.Completed, b.Completed, a.Expired, b.Expired, a.BusyProcTicks, b.BusyProcTicks,
			a.IdleProcTicks, b.IdleProcTicks, a.TotalProfit, b.TotalProfit, a.OfferedProfit, b.OfferedProfit, len(a.Jobs), len(b.Jobs))
	}
	aj := slices.Clone(a.Jobs)
	bj := slices.Clone(b.Jobs)
	byID := func(x, y sim.JobStat) int { return x.ID - y.ID }
	slices.SortFunc(aj, byID)
	slices.SortFunc(bj, byID)
	for i := range aj {
		x, y := aj[i], bj[i]
		if x.ID != y.ID || x.Released != y.Released || x.Completed != y.Completed ||
			x.CompletedAt != y.CompletedAt || !near(x.Profit, y.Profit) || x.ProcTicks != y.ProcTicks {
			return fmt.Errorf("job %d: %+v vs %+v", x.ID, x, y)
		}
	}
	return nil
}
