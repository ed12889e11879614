package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"dagsched/internal/dag"
	"dagsched/internal/serve"
	"dagsched/internal/workload"
)

// single-open: an open loop of single POST /v1/jobs requests at one fixed
// offered rate into a 2-shard daemon on M=16 without a WAL. The specs are
// explicit DAGs from the default shape mix at size scale soScale with linear
// and exponential profits; one in four carries "commitment":"delta". Every
// POST carries an Idempotency-Key; in every ten operations seven are new
// POSTs, two are GET /v1/jobs/{id} reads and one is a retry of an earlier
// POST. Operation i is due at i·soPeriod after the start, and the simulated
// clock follows the due time: soTicksPer10Ops ticks per ten operations,
// which offers more work than the machine can do (S earns about 60% of the
// offered profit).
//
// The whole process runs on one CPU and one P: main restarts it with its
// affinity set to one CPU (runOnOneCPU), and set-up sets GOMAXPROCS=1 in
// case that fails. At 500 operations/s the daemon is idle between requests,
// and with two Ps each request crosses threads on its way from client to
// connection handler to shard engine and back. What such a crossing costs
// depends on the host: on two Ps a GET, which does almost nothing, took
// 0.17 ms at the median against 0.03–0.07 ms on one, and the median latency
// of ten runs spread by up to 28%. On one P the handoffs stay on the running
// thread. Left free to move between CPUs, that thread ran some runs at
// about 0.19 ms and others at 0.25–0.28 ms, a spread of 25% over ten runs;
// on one CPU most runs kept to the slower level. The DAGs are drawn at
// scale 8 rather than the experiments' 2 so that the request's own work
// (JSON decoding, DAG validation, admission) is most of its latency.
const (
	soM             = 16
	soShards        = 2
	soPeriod        = 2 * time.Millisecond // 500 operations/s
	soTicksPer10Ops = 20
	soScale         = 8
)

type soKind int

const (
	soPost soKind = iota
	soGet
	soRetry
)

// soOp is one scheduled operation. Posts and retries are pre-rendered;
// a GET's target is the latest accepted job, known only at run time.
type soOp struct {
	kind soKind
	req  []byte
	spec *jobSpec
	of   int // retry: index of the retried operation
}

type singleOpen struct {
	o   *options
	ops []soOp
}

func soKindOf(i int) soKind {
	switch i % 10 {
	case 2, 7:
		return soGet
	case 9:
		return soRetry
	}
	return soPost
}

func setupSingleOpen(o *options) (bench, error) {
	runtime.GOMAXPROCS(1)
	// 2500 operations (1750 new jobs) per round: the median latency and the
	// live heap depend on which DAG sizes a seed draws. With 700 jobs a
	// round one seed read about 12% below the median latency in each of two
	// sets of ten runs, and the live heap spread by 6% across the seeds.
	n := 2500
	if o.short {
		n = 100
	}
	posts := 0
	for i := 0; i < n; i++ {
		if soKindOf(i) == soPost {
			posts++
		}
	}
	var insts []*workload.Instance
	for k, kind := range []workload.ProfitKind{workload.ProfitLinear, workload.ProfitExp} {
		in, err := workload.Generate(workload.Config{
			Seed: o.seed*2 + int64(k), N: (posts + 1) / 2, M: soM / soShards,
			Eps: 1, SlackSpread: 1, Load: 1, Scale: soScale, Profit: kind,
		})
		if err != nil {
			return nil, err
		}
		insts = append(insts, in)
	}
	b := &singleOpen{o: o}
	p := 0
	for i := 0; i < n; i++ {
		op := soOp{kind: soKindOf(i)}
		switch op.kind {
		case soPost:
			commitment := ""
			if p%4 == 3 {
				commitment = "delta"
			}
			spec, err := dagSpec(insts[p%2].Jobs[p/2], commitment)
			if err != nil {
				return nil, err
			}
			op.spec = spec
			op.req = postRequest("/v1/jobs", spec.body, "k"+strconv.FormatInt(o.seed, 10)+"-"+strconv.Itoa(i))
			p++
		case soRetry:
			op.of = i - 3
			op.spec = b.ops[op.of].spec
			op.req = b.ops[op.of].req
		}
		b.ops = append(b.ops, op)
	}
	// Warm-up: the first 200 operations on a throwaway daemon.
	if _, err := b.run(min(n, 200), false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return b, nil
}

func (b *singleOpen) round(traced bool) (*round, error) { return b.run(len(b.ops), traced) }

func (b *singleOpen) run(n int, traced bool) (*round, error) {
	srv, err := serve.New(serve.Config{M: soM, Shards: soShards, TickInterval: -1})
	if err != nil {
		return nil, err
	}
	drained := false
	defer func() {
		if !drained {
			srv.Drain()
		}
	}()
	d, err := listen(srv.Handler())
	if err != nil {
		return nil, err
	}
	defer d.stop()
	c, err := dial(d.addr())
	if err != nil {
		return nil, err
	}
	defer c.close()

	r := &round{layers: map[string]float64{}}
	var before scrape
	var mem *memDelta
	if traced {
		if before, err = scrapeMetrics(srv.Handler()); err != nil {
			return nil, err
		}
		mem = startMem()
	}
	acks := make([]ack, 0, n)
	opAck := make([]int, n) // op index → index in acks, for retries
	lastID := 0
	var lags []float64
	var advance, decode time.Duration
	decoded := 0
	r.latMs = make([]float64, 0, n)
	pc := pacer{start: time.Now().Add(5 * time.Millisecond), period: soPeriod}
	for i := 0; i < n; i++ {
		op := &b.ops[i]
		ta := time.Now()
		srv.Advance(int64(i) * soTicksPer10Ops / 10)
		advance += time.Since(ta)
		req := op.req
		if op.kind == soGet {
			req = getRequest("/v1/jobs/" + strconv.Itoa(lastID))
		}
		due, lag := pc.wait(i)
		lags = append(lags, ms(lag))
		status, body, err := c.do(req)
		r.latMs = append(r.latMs, ms(time.Since(due)))
		if err != nil {
			return nil, fmt.Errorf("operation %d: %w", i, err)
		}
		if op.kind == soGet && lastID == 0 {
			// Nothing accepted yet: the read must find no job.
			if status != http.StatusNotFound {
				return nil, fmt.Errorf("operation %d: GET of job 0: status %d", i, status)
			}
			continue
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("operation %d: status %d: %.200s", i, status, body)
		}
		switch op.kind {
		case soPost:
			id, release, decision, replayed, _, err := parseJobResponse(body)
			if err != nil {
				return nil, fmt.Errorf("operation %d: %w", i, err)
			}
			if replayed {
				return nil, fmt.Errorf("operation %d: a first submission answered as a replay", i)
			}
			opAck[i] = len(acks)
			acks = append(acks, ack{spec: op.spec, id: id, release: release, decision: decision})
			if decision != "rejected" {
				lastID = id
			}
			if traced {
				td := time.Now()
				var s struct {
					DAG *dag.DAG `json:"dag"`
				}
				if err := json.Unmarshal(op.spec.body, &s); err != nil {
					return nil, fmt.Errorf("operation %d: decoding its own spec: %w", i, err)
				}
				decode += time.Since(td)
				decoded++
			}
		case soRetry:
			id, release, decision, replayed, _, err := parseJobResponse(body)
			if err != nil {
				return nil, fmt.Errorf("operation %d: %w", i, err)
			}
			orig := acks[opAck[op.of]]
			if !replayed || id != orig.id || release != orig.release || decision != orig.decision {
				return nil, fmt.Errorf("operation %d: retry answered id %d release %d %q replayed=%v, original id %d release %d %q",
					i, id, release, decision, replayed, orig.id, orig.release, orig.decision)
			}
		case soGet:
			if err := checkStatus(body, lastID, acks); err != nil {
				return nil, fmt.Errorf("operation %d: %w", i, err)
			}
		}
	}
	r.busy = time.Since(pc.start)
	r.jobs = n
	r.attempted = int64(n)
	if traced {
		after, err := scrapeMetrics(srv.Handler())
		if err != nil {
			return nil, err
		}
		mem.record(r.layers, len(acks))
		serveLayers(r.layers, before, after, len(acks))
		r.layers["loadgen.lag_p99_ms"] = quantile(lags, 0.99)
		r.layers["dag.decode_us_per_spec"] = float64(decode.Microseconds()) / float64(max(decoded, 1))
	}
	r.heapMB = liveHeapMB()

	td := time.Now()
	res := srv.Drain()
	drained = true
	r.layers["serve.drain.ms"] = ms(time.Since(td))
	var v verdicts
	var offered float64
	for _, a := range acks {
		if err := v.add(a.decision); err != nil {
			return nil, err
		}
		offered += a.spec.fn.at(1)
	}
	readmitted, err := checkResult(res, acks, soM)
	if err != nil {
		return nil, err
	}
	r.profit, r.offered = res.TotalProfit, offered
	r.layers["sim.ticks"] = float64(res.Ticks)
	r.layers["sim.advance_us_per_tick"] = float64(advance.Microseconds()) / float64(max(res.Ticks, 1))
	r.layers["core.admitted"] = float64(v.admitted)
	r.layers["core.parked"] = float64(v.parked)
	r.layers["core.rejected"] = float64(v.rejected)
	r.layers["core.readmitted"] = float64(readmitted)
	r.digest = fmtDigest(v, readmitted, res.Completed, res.Expired, res.Ticks, res.TotalProfit)
	return r, nil
}

// checkStatus checks a GET /v1/jobs/{id} answer against the acknowledged
// submission: same id, release, and the W and L of the benchmark's own
// longest-path pass.
func checkStatus(body []byte, id int, acks []ack) error {
	var st serve.StatusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("job status: %w", err)
	}
	for i := len(acks) - 1; i >= 0; i-- {
		a := acks[i]
		if a.id != id || a.decision == "rejected" {
			continue
		}
		if st.ID != id || st.Released != a.release || st.W != a.spec.w || st.L != a.spec.l {
			return fmt.Errorf("job %d status %+v, want released %d W %d L %d", id, st, a.release, a.spec.w, a.spec.l)
		}
		return nil
	}
	return fmt.Errorf("GET of job %d, never acknowledged", id)
}
