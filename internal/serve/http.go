package serve

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"time"

	"dagsched/internal/dag"
	"dagsched/internal/obs"
	"dagsched/internal/profit"
	"dagsched/internal/sim"
	"dagsched/internal/telemetry"
	"dagsched/internal/workload"
)

// ProfitValue is the v2 "profit" field: a scalar (the v1 step shorthand) or
// a structured {"type":...} profit function. See workload.ProfitValue.
type ProfitValue = workload.ProfitValue

// ScalarProfit wraps a v1 scalar profit (workload.ScalarProfit).
func ScalarProfit(v float64) ProfitValue { return workload.ScalarProfit(v) }

// JobSpec is the POST /v1/jobs request body (the v2 job schema). The shape
// is given either as a full DAG (the instance wire format:
// {"work":[...],"edges":[[u,v],...]}) or as scalar totals W and L, from
// which the server synthesizes a DAG with exactly that work and span. Profit
// is either the v1 scalar step shorthand (worth that much until Deadline
// ticks after release) or a structured {"type":...} non-increasing profit
// function, which carries its own horizon; Curve is the v1 spelling of the
// structured form and is kept for compatibility. Commitment optionally
// overrides the daemon-wide commitment policy for this job ("none",
// "on-admission", "on-arrival", "delta"; empty inherits).
type JobSpec struct {
	W          int64                `json:"w,omitempty"`
	L          int64                `json:"l,omitempty"`
	DAG        *dag.DAG             `json:"dag,omitempty"`
	Deadline   int64                `json:"deadline,omitempty"`
	Profit     ProfitValue          `json:"profit"`
	Curve      *workload.ProfitSpec `json:"curve,omitempty"`
	Commitment string               `json:"commitment,omitempty"`
}

// maxSynthNodes caps the node count of a synthesized DAG so a scalar spec
// cannot make the server materialize an arbitrarily large graph.
const maxSynthNodes = 1 << 16

// build resolves the spec into a validated graph and profit function.
// synth makes the graph of a w/l spec: synthesizeDAG, or a memo of it.
func (js JobSpec) build(synth func(w, l int64) (*dag.DAG, error)) (*dag.DAG, profit.Fn, error) {
	var g *dag.DAG
	switch {
	case js.DAG != nil:
		if js.W != 0 || js.L != 0 {
			return nil, nil, fmt.Errorf("spec sets both dag and w/l; use one")
		}
		g = js.DAG
	case js.W > 0 && js.L > 0:
		var err error
		g, err = synth(js.W, js.L)
		if err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("spec needs either dag or w ≥ l ≥ 1")
	}

	var fn profit.Fn
	switch {
	case js.Curve != nil:
		if js.Deadline != 0 || !js.Profit.IsScalar() || js.Profit.Scalar != 0 {
			return nil, nil, fmt.Errorf("spec sets both curve and deadline/profit; use one")
		}
		var err error
		fn, err = js.Curve.Decode()
		if err != nil {
			return nil, nil, err
		}
	case !js.Profit.IsScalar():
		if js.Deadline != 0 {
			return nil, nil, fmt.Errorf("spec sets both deadline and a structured profit; the profit carries its own horizon")
		}
		var err error
		fn, err = js.Profit.Spec.Decode()
		if err != nil {
			return nil, nil, err
		}
	default:
		var err error
		fn, err = profit.NewStep(js.Profit.Scalar, js.Deadline)
		if err != nil {
			return nil, nil, err
		}
	}
	return g, fn, nil
}

// synthesizeDAG builds a graph with TotalWork exactly w and Span exactly l.
// w == l degenerates to a chain; l == 1 to a fully parallel block. Otherwise
// a unit-work spine chain of l nodes fixes the span and the remaining
// w − l work hangs off the spine's root in chunks of at most l − 1, so no
// fringe path ever exceeds the spine.
func synthesizeDAG(w, l int64) (*dag.DAG, error) {
	if l < 1 || w < l {
		return nil, fmt.Errorf("need w ≥ l ≥ 1, got w=%d l=%d", w, l)
	}
	switch {
	case w == l:
		if w > maxSynthNodes {
			return nil, fmt.Errorf("w=%d synthesizes too many nodes (max %d)", w, maxSynthNodes)
		}
		return dag.Chain(int(l), 1), nil
	case l == 1:
		if w > maxSynthNodes {
			return nil, fmt.Errorf("w=%d synthesizes too many nodes (max %d)", w, maxSynthNodes)
		}
		return dag.Block(int(w), 1), nil
	}
	rest := w - l
	chunk := l - 1
	nodes := l + (rest+chunk-1)/chunk
	if nodes > maxSynthNodes {
		return nil, fmt.Errorf("w=%d l=%d synthesizes %d nodes (max %d)", w, l, nodes, maxSynthNodes)
	}
	b := dag.NewBuilder()
	spine := make([]dag.NodeID, l)
	for i := range spine {
		spine[i] = b.AddNode(1)
		if i > 0 {
			b.AddEdge(spine[i-1], spine[i])
		}
	}
	for rest > 0 {
		c := min(chunk, rest)
		n := b.AddNode(c)
		b.AddEdge(spine[0], n)
		rest -= c
	}
	return b.Build()
}

// Decision strings in JobResponse.
type DecisionString string

const (
	// DecisionAdmitted: Scheduler S committed the job into Q.
	DecisionAdmitted DecisionString = "admitted"
	// DecisionParked: δ-good but its band is full; waiting in P, may still
	// be admitted while δ-fresh.
	DecisionParked DecisionString = "parked"
	// DecisionRejected: not δ-good — infeasible for S now and at any later
	// point; the job was not committed.
	DecisionRejected DecisionString = "rejected"
	// DecisionAccepted: the serving scheduler has no admission test; the
	// job was committed without a verdict.
	DecisionAccepted DecisionString = "accepted"
)

// JobResponse is the POST /v1/jobs response body.
type JobResponse struct {
	ID         int            `json:"id,omitempty"` // 0 when rejected
	Release    int64          `json:"release"`
	Decision   DecisionString `json:"decision"`
	Reason     string         `json:"reason,omitempty"`
	Commitment string         `json:"commitment,omitempty"`
	Replayed   bool           `json:"replayed,omitempty"` // idempotent retry: stored verdict
	Plan       *PlanInfo      `json:"plan,omitempty"`
}

// PlanInfo is the admission test's virtualization plan, echoed to the client.
type PlanInfo struct {
	Alloc   int     `json:"alloc"`
	X       float64 `json:"x"`
	Density float64 `json:"density"`
	Good    bool    `json:"good"`
}

// StatusResponse is the GET /v1/jobs/{id} response body.
type StatusResponse struct {
	ID          int     `json:"id"`
	State       string  `json:"state"` // pending | live | completed | expired
	Released    int64   `json:"released"`
	W           int64   `json:"w"`
	L           int64   `json:"l"`
	CompletedAt int64   `json:"completedAt,omitempty"`
	Latency     int64   `json:"latency,omitempty"`
	Profit      float64 `json:"profit,omitempty"`
	ProcTicks   int64   `json:"procTicks"`
	Preemptions int64   `json:"preemptions"`
}

func statusResponse(id int, stat sim.JobStat, state sim.JobState) StatusResponse {
	return StatusResponse{
		ID:          id,
		State:       string(state),
		Released:    stat.Released,
		W:           stat.W,
		L:           stat.L,
		CompletedAt: stat.CompletedAt,
		Latency:     stat.Latency,
		Profit:      stat.Profit,
		ProcTicks:   stat.ProcTicks,
		Preemptions: stat.Preemptions,
	}
}

// WALStats describes the durability layer in GET /v1/stats.
type WALStats struct {
	Dir                 string `json:"dir"`
	Fsync               string `json:"fsync"`
	Records             int64  `json:"records"` // appended by this process
	Checkpoints         int64  `json:"checkpoints"`
	LastCheckpointClock int64  `json:"lastCheckpointClock"`
}

// ShardStats is one shard's block in GET /v1/stats: its capacity slice,
// session clock, verdict counters, the band/parked/waiting pressure inputs
// the placer routes on, and its durable position.
type ShardStats struct {
	Shard         int           `json:"shard"`
	M             int           `json:"m"`
	Now           int64         `json:"now"`
	Live          int           `json:"live"`
	Pending       int           `json:"pending"`
	Accepted      int64         `json:"accepted"`
	Admitted      int64         `json:"admitted"`
	Parked        int64         `json:"parked"`
	Rejected      int64         `json:"rejected"`
	BandOccupancy float64       `json:"bandOccupancy"`
	ParkedDepth   int           `json:"parkedDepth"`
	MailboxDepth  int           `json:"mailboxDepth"`
	Pressure      float64       `json:"pressure"`
	EngineError   string        `json:"engineError,omitempty"`
	WAL           *WALStats     `json:"wal,omitempty"`
	Recovery      *RecoveryInfo `json:"recovery,omitempty"`
}

// StatsResponse is the GET /v1/stats response body. Top-level fields
// aggregate across shards (clock is the furthest shard; counts and telemetry
// sum); Shards holds the per-shard blocks of a sharded daemon and is absent
// with one shard, whose body keeps the unsharded shape.
type StatsResponse struct {
	Scheduler   string            `json:"scheduler"`
	M           int               `json:"m"`
	Now         int64             `json:"now"`
	Live        int               `json:"live"`
	Pending     int               `json:"pending"`
	Draining    bool              `json:"draining"`
	Ready       bool              `json:"ready"`
	Degraded    string            `json:"degraded,omitempty"`
	EngineError string            `json:"engineError,omitempty"`
	WAL         *WALStats         `json:"wal,omitempty"`
	Recovery    *RecoveryInfo     `json:"recovery,omitempty"`
	Telemetry   telemetry.Summary `json:"telemetry"`
	Shards      []ShardStats      `json:"shards,omitempty"`
}

// errorResponse is every non-2xx JSON body: the unified error envelope. Error
// is the human-readable message; Reason is the machine-readable class drawn
// from the reason* constants (obs.go), stable across message-text changes.
type errorResponse struct {
	Error  string `json:"error"`
	Reason string `json:"reason"`
}

// writeError renders the unified error envelope.
func writeError(w http.ResponseWriter, status int, reason, msg string) {
	writeJSON(w, status, errorResponse{Error: msg, Reason: reason})
}

// Handler returns the daemon's HTTP routes:
//
//	POST /v1/jobs      submit a JobSpec → JobResponse (400 bad spec,
//	                   413 oversized body, 429 queue full,
//	                   503 draining or degraded); an Idempotency-Key
//	                   header makes retries return the stored verdict
//	POST /v1/jobs:batch
//	                   submit a JSON array of specs (each with an optional
//	                   per-item "key") → BatchResponse with per-item
//	                   verdicts in order; items fail individually
//	                   (400 bad envelope or empty batch, 413 oversized)
//	GET  /v1/jobs/{id} job status → StatusResponse (404 unknown)
//	GET  /v1/stats     StatsResponse
//	GET  /healthz      liveness: 200 while the process can answer,
//	                   503 only when durability or the engine has failed
//	GET  /readyz       readiness: 200 when accepting work, 503 during
//	                   recovery, drain, or degraded operation
//	POST /v1/drain     stop admission, finish committed jobs, return the
//	                   final aggregate Result
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleJobsPost)
	mux.HandleFunc("POST /v1/jobs:batch", s.handleBatchPost)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/stats", s.handleStatsGet)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("POST /v1/drain", s.handleDrainPost)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// maxIdempotencyKeyLen bounds the Idempotency-Key header: keys live in the
// engine's dedup table and every checkpoint, so they must stay small.
const maxIdempotencyKeyLen = 128

// maxRequestIDLen bounds the X-Request-Id header: client-supplied IDs are
// recorded in WAL records, so they must stay small too.
const maxRequestIDLen = 128

func (s *Server) handleJobsPost(w http.ResponseWriter, r *http.Request) {
	key := r.Header.Get("Idempotency-Key")
	items, ok := s.submit(w, r, false, key, func(body []byte) ([]batchItem, int, string) {
		// Scalar specs take the zero-allocation parser; anything else (dag,
		// curve, structured profit, a commitment override, or malformed
		// input) falls back to encoding/json, which keeps the canonical
		// behavior and error shapes.
		// The spec is parsed in place so it does not escape on its own.
		items := []batchItem{{key: key}}
		spec := &items[0].spec
		var fastOK bool
		*spec, _, fastOK = parseJobSpecFast(body, false)
		if !fastOK {
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(spec); err != nil {
				return nil, http.StatusBadRequest, err.Error()
			}
		}
		return items, 0, ""
	})
	if !ok {
		return
	}
	if rep := &items[0].rep; rep.status != http.StatusOK {
		writeError(w, rep.status, rep.reason, rep.err)
	} else {
		writeJobResponse(w, &rep.resp)
	}
}

// submit is the pipeline both submit endpoints share; batch selects the
// batch endpoint's body limit, metrics and trace. It takes the request ID,
// checks key (POST /v1/jobs's Idempotency-Key header; "" for a batch) and
// has parse turn the body into items. A failure up to here is answered 400
// or 413 and not traced. Every request that reaches the draining check is
// traced, whatever its answer: 503 draining, or the verdicts dispatch
// collects. ok = false means the answer is written; otherwise the caller
// renders items.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, batch bool, key string,
	parse func(body []byte) (items []batchItem, status int, msg string)) ([]batchItem, bool) {
	received := time.Now()
	reqID := r.Header.Get("X-Request-Id")
	if len(reqID) > maxRequestIDLen {
		writeError(w, http.StatusBadRequest, reasonBadRequest,
			fmt.Sprintf("request id longer than %d bytes", maxRequestIDLen))
		return nil, false
	}
	// Only a single submission's client-supplied ID goes into the WAL.
	tr := &submitTrace{reqID: reqID, persist: reqID != "" && !batch}
	if reqID == "" {
		tr.reqID = obs.NewRequestID()
	}
	w.Header().Set("X-Request-Id", tr.reqID)
	if len(key) > maxIdempotencyKeyLen {
		writeError(w, http.StatusBadRequest, reasonBadRequest,
			fmt.Sprintf("idempotency key longer than %d bytes", maxIdempotencyKeyLen))
		return nil, false
	}
	limit, route, hist := s.cfg.MaxBodyBytes, "", "serve.submit_engine_us"
	if batch {
		limit, route, hist = s.batchBodyLimit, "batch", "serve.batch_engine_us"
	}
	items, status, msg := readItems(w, r, limit, parse)
	if status == http.StatusRequestEntityTooLarge {
		writeError(w, status, reasonTooLarge, msg)
		return nil, false
	}
	if status != 0 {
		writeError(w, status, reasonBadRequest, msg)
		return nil, false
	}

	draining := s.draining.Load()
	shardIdx := -1
	if !draining {
		if rt, idx := s.dispatch(items, tr, hist); !batch {
			route, shardIdx = rt, idx
		}
	}

	// The HTTP latency sample, the trace with every stage the engine
	// stamped, and the debug record.
	now := time.Now()
	us := now.Sub(received).Microseconds()
	rt := obs.ReqTrace{ID: tr.reqID, Shard: shardIdx, Route: route, Stages: make([]obs.Stage, 0, 5)}
	rt.Stages = append(rt.Stages, obs.Stage{Name: "received", At: received})
	for _, st := range []obs.Stage{
		{Name: "dequeued", At: tr.dequeued},
		{Name: "wal_appended", At: tr.walAppended},
		{Name: "committed", At: tr.committed},
	} {
		if !st.At.IsZero() {
			rt.Stages = append(rt.Stages, st)
		}
	}
	rt.Stages = append(rt.Stages, obs.Stage{Name: "replied", At: now})
	if batch {
		s.metrics.observe("serve.http.jobs_batch_us", float64(us))
		s.metrics.observe("serve.http.batch_items", float64(len(items)))
	} else {
		s.metrics.observe("serve.http.jobs_us", float64(us))
		status = http.StatusServiceUnavailable
		if !draining {
			status = items[0].rep.status
		}
		if status == http.StatusOK {
			rt.JobID, rt.Decision = items[0].rep.resp.ID, string(items[0].rep.resp.Decision)
		}
	}
	s.traces.Add(rt)
	if lg := s.logger(); lg.Enabled(r.Context(), slog.LevelDebug) {
		if batch {
			lg.Debug("batch", "reqId", tr.reqID, "items", len(items), "us", us)
		} else {
			attrs := []any{"reqId", tr.reqID, "status", status, "us", us}
			if shardIdx >= 0 {
				attrs = append(attrs, "shard", shardIdx, "route", route)
			}
			if rt.Decision != "" {
				attrs = append(attrs, "id", rt.JobID, "decision", rt.Decision)
			}
			lg.Debug("submission", attrs...)
		}
	}
	if draining {
		writeError(w, http.StatusServiceUnavailable, reasonDraining, "draining")
		return nil, false
	}
	return items, true
}

// dispatch routes each item that has no verdict yet and submits each shard
// its group, one group after another on the request's goroutine; the trace
// rides the first group that gets its shard. The verdicts land in
// items[k].rep, and dispatch returns the placer route and shard of the last
// item routed. The groups are runs of one index slice sorted stably by
// shard, so a request allocates that one slice however many items it has.
func (s *Server) dispatch(items []batchItem, tr *submitTrace, hist string) (route string, shardIdx int) {
	// Keyed items route by key, so duplicate keys within one batch land on
	// the same shard in order and the later ones collapse onto the stored
	// verdict.
	order := make([]int, 0, len(items))
	for k := range items {
		if items[k].rep.status != 0 {
			continue // failed its parse
		}
		var sh *shard
		sh, route = s.placer.routeTraced(items[k].key)
		shardIdx = sh.idx
		items[k].shard = sh.idx
		order = append(order, k)
	}
	slices.SortStableFunc(order, func(a, b int) int { return items[a].shard - items[b].shard })
	traced := false
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && items[order[hi]].shard == items[order[lo]].shard {
			hi++
		}
		group := order[lo:hi:hi]
		lo = hi
		var gtr *submitTrace
		if !traced {
			gtr = tr
			tr.enqueued = time.Now()
		}
		if !s.shards[items[group[0]].shard].submit(items, group, gtr, hist) {
			// The shard is behind: backpressure its items, don't block.
			for _, k := range group {
				items[k].rep = submitReply{status: http.StatusTooManyRequests, err: "submission queue full", reason: reasonQueueFull}
			}
			continue
		}
		traced = true
		for _, k := range group {
			if rep := &items[k].rep; rep.status != http.StatusOK {
				rep.reason = cmp.Or(rep.reason, reasonInternal)
			}
		}
	}
	return route, shardIdx
}

// readItems reads a submission body of at most limit bytes and has parse
// turn it into items. A failure is the status and message to answer.
func readItems(w http.ResponseWriter, r *http.Request, limit int64,
	parse func(body []byte) ([]batchItem, int, string)) ([]batchItem, int, string) {
	rb := getWireBuf()
	defer putWireBuf(rb)
	var err error
	rb.b, err = readAllInto(rb.b, http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)
		}
		return nil, http.StatusBadRequest, err.Error()
	}
	return parse(rb.b)
}

// writeJobResponse renders a 200 verdict through the fast encoder into a
// pooled buffer, byte-identical to writeJSON's output; off-fast-path
// content falls back to encoding/json.
func writeJobResponse(w http.ResponseWriter, resp *JobResponse) {
	rb := getWireBuf()
	if b, ok := appendJobResponse(rb.b, resp); ok {
		rb.b = append(b, '\n')
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(rb.b)
		putWireBuf(rb)
		return
	}
	putWireBuf(rb)
	writeJSON(w, http.StatusOK, *resp)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 1 {
		writeError(w, http.StatusBadRequest, reasonBadRequest, "bad job id")
		return
	}
	resp, found := s.placer.shardFor(id).lookup(id)
	if !found {
		writeError(w, http.StatusNotFound, reasonNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStatsGet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.aggregateStats(s.gatherShardStats()))
}

// aggregateStats folds per-shard stats into the daemon-level response. The
// clock is the furthest shard's (a shard with no arrivals may trail), counts
// and telemetry sum, and WAL positions aggregate under the daemon's top
// directory. With one shard everything passes through unchanged, so the
// unsharded stats body is stable.
func (s *Server) aggregateStats(replies []shardSnapshot) StatsResponse {
	rep := StatsResponse{
		Scheduler: s.Scheduler(),
		M:         s.cfg.M,
		Draining:  s.draining.Load(),
		Ready:     s.Ready(),
		Degraded:  s.Degraded(),
		Recovery:  s.recovery,
	}
	if len(replies) == 1 {
		st := replies[0].stats
		rep.Now = st.Now
		rep.Live = st.Live
		rep.Pending = st.Pending
		rep.EngineError = st.EngineError
		rep.WAL = st.WAL
		rep.Recovery = st.Recovery
		rep.Telemetry = replies[0].summary
		return rep
	}
	rep.Shards = make([]ShardStats, len(replies))
	for i, sr := range replies {
		st := sr.stats
		rep.Shards[i] = st
		rep.Now = max(rep.Now, st.Now)
		rep.Live += st.Live
		rep.Pending += st.Pending
		if rep.EngineError == "" {
			rep.EngineError = st.EngineError
		}
		if st.WAL != nil {
			if rep.WAL == nil {
				rep.WAL = &WALStats{Dir: s.cfg.WALDir, Fsync: st.WAL.Fsync}
			}
			rep.WAL.Records += st.WAL.Records
			rep.WAL.Checkpoints += st.WAL.Checkpoints
			rep.WAL.LastCheckpointClock = max(rep.WAL.LastCheckpointClock, st.WAL.LastCheckpointClock)
		}
		if i == 0 {
			rep.Telemetry = sr.summary
		} else {
			rep.Telemetry = rep.Telemetry.Merge(sr.summary)
		}
	}
	return rep
}

// handleHealthz is liveness: the process is up and answering. Draining is a
// healthy state (the daemon is finishing committed work) — only a durability
// or engine failure makes the process unhealthy enough to restart.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if msg := s.Degraded(); msg != "" {
		writeError(w, http.StatusServiceUnavailable, reasonDegraded, msg)
		return
	}
	if msg := s.engineError(); msg != "" {
		writeError(w, http.StatusServiceUnavailable, reasonDegraded, msg)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: route work here only when a submission would be
// accepted. 503 during recovery replay, drain, and degraded operation; the
// body's machine-readable reason says which, and each 503 counts toward
// serve_not_ready_total{reason=...}.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.Ready() {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
		return
	}
	var reason string
	switch {
	case s.draining.Load():
		reason = reasonDraining
	case s.Degraded() != "" || s.engineError() != "":
		reason = reasonDegraded
	default:
		reason = reasonRecovering
	}
	s.metrics.inc("serve.not_ready."+reason, 1)
	writeError(w, http.StatusServiceUnavailable, reason, "not ready")
}

func (s *Server) handleDrainPost(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Drain())
}
