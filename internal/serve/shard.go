package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"dagsched/internal/dag"
	"dagsched/internal/fastjson"
	"dagsched/internal/profit"
	"dagsched/internal/sim"
	"dagsched/internal/telemetry"
	"dagsched/internal/workload"
)

// A shard is one engine of the serving tier: a goroutine that owns a
// sim.Session over its slice of the capacity, a Scheduler S instance whose
// (1+ε) band condition is evaluated against that slice, a telemetry
// registry, and (when durable) its own WAL and checkpoint. Shards share
// nothing mutable — the front door routes each submission to exactly one
// shard and every per-job effect stays inside it — so N shards scale the
// engine path without a lock anywhere on it.
//
// Job IDs are striped: shard i of N assigns i+1, i+1+N, i+2N, …, so IDs are
// globally unique, ascend within each shard (which sim.Session requires),
// and a job's owner is recomputable as (id-1) mod N. With one shard the
// stripe degenerates to 1, 2, 3, … — byte-identical to the unsharded
// daemon.

// occupier is the optional band-occupancy probe (core.SchedulerS).
type occupier interface {
	Occupancy() float64
}

// queueSizer is the optional queue-depth probe (core.SchedulerS).
type queueSizer interface {
	QueueSizes() (q, p int)
}

// pressureAlpha is the EWMA smoothing factor for the published pressure
// signal: heavy enough that one parked burst moves the placer, light enough
// that a transient spike does not pin a shard cold.
const pressureAlpha = 0.2

type shard struct {
	srv    *Server
	idx    int
	m      int  // this shard's processors (PartitionCapacity slice)
	stride int  // total shard count; the ID stripe step
	jump   bool // event-jump clock (resolveClock); false runs the ticker

	sched     sim.Scheduler
	adm       admitter // nil when the scheduler has no admission query
	canCommit bool     // scheduler implements sim.Committer (binding levels OK)

	sess   *sim.Session        // engine goroutine only
	reg    *telemetry.Registry // engine goroutine only
	lastID int                 // engine goroutine only; last ID this shard assigned

	// obsReg holds this shard's serving-path latency histograms and
	// observability-only counters (engine goroutine only; /metrics scrapes a
	// Clone taken through the mailbox). It is deliberately separate from reg:
	// reg's summary is part of every checkpoint and the /v1/stats body, both
	// byte-stable formats, while obsReg is process-local and never persisted.
	// nil disables every timer and observation on the engine path — the
	// zero-cost-when-nil idiom the obs-guard benchmark pins.
	obsReg *telemetry.Registry

	// Durability state, engine goroutine only (nil/empty without WALDir).
	walDir         string
	header         ReplayHeader // the durable header this shard writes
	wal            *wal
	hist           encodedHistory            // accepted job records, as checkpointed
	idem           map[string]StoredResponse // idempotency table (kept even without WAL)
	checkpoints    int64                     // lifetime checkpoint count
	lastCheckpoint time.Time
	lastCkptClock  int64
	ckptDirty      bool     // records appended since the last checkpoint
	ckptParts      [][]byte // checkpointFrame's output, reused across checkpoints

	// wireCache memoizes everything a scalar spec derives: the synthesized
	// DAG and profit function (shared across jobs — the DAG is immutable
	// after Build) and the id/release-independent tail of the instance wire
	// form (`,"graph":…,"profit":…}`), so the submit hot path skips DAG
	// synthesis entirely and the WAL path assembles a record by prefixing
	// two integers instead of re-marshaling a W-node graph per accepted
	// job. Engine goroutine only; bounded (wireCacheMax) and never
	// persisted — a miss just rebuilds.
	wireCache map[scalarSpec]*scalarEntry
	wireBuf   []byte // marshalJobWire's output for a cached shape, reused

	// graphs shares one synthesized DAG per (w, l) among all specs of that
	// (w, l), whatever their deadline, profit or commitment, so a wireCache
	// miss on a known (w, l) builds no graph. Engine goroutine only;
	// bounded by wireCacheMax like wireCache, and never persisted.
	graphs map[[2]int64]*dag.DAG

	recovery *RecoveryInfo // fixed at New; nil on a fresh start

	reqs       chan any
	engineDone chan struct{}
	engineErr  atomic.Pointer[string]
	quiesced   bool // engine goroutine only; set by the drain's first phase

	// Pressure signals published by the engine for the placer. pressure is
	// the float64 bits of the EWMA of band occupancy + parked fraction;
	// bandFull flags that the last admission verdict parked (or occupancy
	// reached 1), so the placer's second choice should spill past us.
	pressure atomic.Uint64
	bandFull atomic.Bool
}

// encodedHistory is a durable shard's accepted job records as the body of
// the checkpoint's "jobs" array: each record's WAL payload, the bytes the
// WAL wrote for it, comma-separated, in acceptance order. That is the whole
// invariant — history bytes = WAL job payloads in acceptance order = the
// checkpoint's jobs array — so a checkpoint writes the chunks as they are
// and encodes no job again. Chunks are never moved once written, and a
// record may span two. A new chunk holds a quarter of the history so far,
// within [histChunkMin, histChunkMax], so a short history carries at most
// the slack of a growing slice and a long one at most one chunk's. Engine
// goroutine only.
type encodedHistory struct {
	chunks [][]byte // every chunk but the last is full
	size   int      // bytes held
	n      int      // records held
}

const (
	histChunkMin = 4 << 10
	histChunkMax = 256 << 10
)

var histSep = []byte{','}

// add appends one record's JSON payload.
func (h *encodedHistory) add(payload []byte) {
	if h.n > 0 {
		h.write(histSep)
	}
	h.write(payload)
	h.n++
}

func (h *encodedHistory) write(p []byte) {
	for len(p) > 0 {
		k := len(h.chunks) - 1
		if k < 0 || len(h.chunks[k]) == cap(h.chunks[k]) {
			// slices.Grow hands out the allocation's whole size class.
			h.chunks = append(h.chunks, slices.Grow([]byte(nil), min(max(h.size/4, histChunkMin), histChunkMax)))
			k++
		}
		c := h.chunks[k]
		m := copy(c[len(c):cap(c)], p)
		h.chunks[k] = c[:len(c)+m]
		h.size += m
		p = p[m:]
	}
}

// fill appends decoded records as the WAL writes a job record: the bytes a
// record was read from when they are exactly that (WALJob.raw), else
// encoded with appendWALJob, or json.Marshal when it declines. It runs
// once, on a recovered history, so it then trims the last chunk to its
// length: a restarted shard carries no slack until it accepts another job.
func (h *encodedHistory) fill(recs []WALJob) error {
	var scratch []byte
	for k := range recs {
		if recs[k].raw != nil {
			h.add(recs[k].raw)
			continue
		}
		if b, ok := appendWALJob(scratch[:0], &recs[k]); ok {
			scratch = b
			h.add(b)
			continue
		}
		b, err := json.Marshal(&recs[k])
		if err != nil {
			return err
		}
		h.add(b)
	}
	if k := len(h.chunks) - 1; k >= 0 {
		h.chunks[k] = append([]byte(nil), h.chunks[k]...)
	}
	return nil
}

// baseID is lastID before the shard has assigned anything: one stride below
// its first ID, so the first assignment lands on idx+1.
func (sh *shard) baseID() int { return sh.idx + 1 - sh.stride }

// engineLoop is the goroutine that owns all of this shard's mutable state.
// With the ticker enabled it runs one of two clock disciplines: the fixed
// wall-clock ticker below, or the event-jump loop (clock.go) when the
// shard's session is event-safe.
func (sh *shard) engineLoop() {
	defer close(sh.engineDone)
	if sh.srv.cfg.TickInterval > 0 && sh.jump {
		sh.engineLoopJump()
		return
	}
	var tickC <-chan time.Time
	if sh.srv.cfg.TickInterval > 0 {
		ticker := time.NewTicker(sh.srv.cfg.TickInterval)
		defer ticker.Stop()
		tickC = ticker.C
	}
	for {
		select {
		case m := <-sh.reqs:
			if sh.handle(m) {
				return
			}
		case now := <-tickC:
			if sh.obsReg != nil {
				sh.obsReg.Inc("serve.ticker_wakeups", 1)
			}
			if sh.quiesced {
				continue // the clock is done moving; finalize fast-forwards
			}
			sh.advance(int64(time.Since(sh.srv.start) / sh.srv.cfg.TickInterval))
			if sh.wal != nil {
				if err := sh.wal.maybeSync(now); err != nil {
					sh.degrade("wal sync", err)
				}
				sh.maybeCheckpoint(now)
			}
		}
	}
}

// handle dispatches one mailbox message; it reports whether the engine
// should exit (after the drain's finalize phase).
func (sh *shard) handle(m any) bool {
	switch msg := m.(type) {
	case submitMsg:
		msg.reply <- sh.handleSubmit(msg.spec, msg.key, msg.tr)
	case batchMsg:
		msg.reply <- sh.handleBatch(msg.items, msg.tr)
	case lookupMsg:
		msg.reply <- sh.handleLookup(msg.id)
	case statsMsg:
		msg.reply <- sh.handleStats()
	case advanceMsg:
		if !sh.quiesced {
			sh.advance(msg.to)
		}
		close(msg.reply)
	case checkpointMsg:
		switch {
		case sh.quiesced:
			msg.reply <- errCheckpointDrained
		case sh.srv.degraded.Load() != nil:
			msg.reply <- fmt.Errorf("serve: degraded: %s", sh.srv.Degraded())
		default:
			err := sh.checkpointNow()
			if err != nil {
				sh.degrade("checkpoint", err)
			}
			msg.reply <- err
		}
	case quiesceMsg:
		// Drain phase 1: from here on this shard commits nothing new. Any
		// submission already in the mailbox is behind this message and will
		// be answered 503; reads keep working until finalize.
		sh.quiesced = true
		close(msg.reply)
	case finalizeMsg:
		// Drain phase 2: every shard has quiesced, so no late submission
		// can interleave into the log this shard is about to seal.
		msg.reply <- sh.finalize()
		return true
	}
	return false
}

// advance pushes the session to the given tick. A session error here is
// terminal for the shard (a scheduler broke its allocation contract); it is
// surfaced through /v1/stats.
func (sh *shard) advance(now int64) {
	if err := sh.sess.AdvanceTo(now); err != nil {
		msg := err.Error()
		sh.engineErr.Store(&msg)
	}
	sh.publishPressure()
}

// publishPressure refreshes the signals the placer reads: an EWMA of band
// occupancy plus the parked-per-processor fraction, and the band-full flag.
// Engine goroutine only; the placer reads the atomics.
func (sh *shard) publishPressure() {
	occ, parked := 0.0, 0
	if o, ok := sh.sched.(occupier); ok {
		occ = o.Occupancy()
	}
	if qs, ok := sh.sched.(queueSizer); ok {
		_, parked = qs.QueueSizes()
	}
	raw := occ + float64(parked)/float64(max(sh.m, 1))
	prev := math.Float64frombits(sh.pressure.Load())
	sh.pressure.Store(math.Float64bits(pressureAlpha*raw + (1-pressureAlpha)*prev))
	sh.bandFull.Store(occ >= 1)
}

// pressureScore is the placer's routing key: the engine-published EWMA plus
// the instantaneous mailbox backlog fraction. Safe from any goroutine.
func (sh *shard) pressureScore() float64 {
	return math.Float64frombits(sh.pressure.Load()) +
		float64(len(sh.reqs))/float64(cap(sh.reqs))
}

// degrade records the first durability failure at the server level (one
// degraded shard stops the whole daemon acknowledging — it could otherwise
// route around its own broken commitment) and counts it on this shard.
func (sh *shard) degrade(op string, err error) {
	sh.srv.degrade(sh.idx, op, err)
	sh.reg.Inc("serve.degraded_events", 1)
}

// handleSubmit is processSubmit plus the engine-path observability shell:
// mailbox queue-wait and total engine latency histograms, and the dequeue/
// commit stamps of the request trace. Every timer is gated on obsReg — with
// it nil the shell is two pointer checks, which is what keeps the obs-guard
// overhead budget honest.
func (sh *shard) handleSubmit(spec JobSpec, key string, tr *submitTrace) submitReply {
	if sh.obsReg == nil {
		return sh.processSubmit(spec, key, tr)
	}
	t0 := time.Now()
	if tr != nil {
		tr.dequeued = t0
		if !tr.enqueued.IsZero() {
			sh.obsReg.Observe("serve.mailbox_wait_us", float64(t0.Sub(tr.enqueued).Microseconds()))
		}
	}
	rep := sh.processSubmit(spec, key, tr)
	now := time.Now()
	if tr != nil {
		tr.committed = now
	}
	sh.obsReg.Observe("serve.submit_engine_us", float64(now.Sub(t0).Microseconds()))
	return rep
}

// handleBatch commits one placer group — every item a batch routed to this
// shard, in batch order — under a single WAL group-commit window: each item
// runs the full processSubmit path (idempotency, admission, WAL append,
// session arrival), but the per-record fsync of FsyncAlways is suspended
// until the whole group is written, so the group pays one flush.
// The records land contiguously in the WAL because this goroutine owns it.
// No verdict leaves the engine before the group sync succeeds, so the
// on-admission commitment still holds record by record; if the final sync
// fails, every acknowledged-in-group verdict is downgraded to 503 and the
// daemon degrades — nothing was promised, so nothing is broken.
func (sh *shard) handleBatch(items []batchItem, tr *submitTrace) batchReply {
	var t0 time.Time
	if sh.obsReg != nil {
		t0 = time.Now()
		if tr != nil {
			tr.dequeued = t0
			if !tr.enqueued.IsZero() {
				sh.obsReg.Observe("serve.mailbox_wait_us", float64(t0.Sub(tr.enqueued).Microseconds()))
			}
		}
	}
	replies := make([]submitReply, len(items))
	if sh.wal != nil {
		sh.wal.beginBatch()
	}
	for k, it := range items {
		replies[k] = sh.processSubmit(it.spec, it.key, nil)
	}
	if sh.wal != nil {
		if err := sh.wal.endBatch(); err != nil {
			sh.degrade("wal sync", err)
			for k := range replies {
				if replies[k].status == 200 {
					replies[k] = submitReply{status: 503, err: "degraded: " + sh.srv.Degraded(), reason: reasonDegraded}
				}
			}
		}
	}
	if sh.obsReg != nil {
		now := time.Now()
		if tr != nil {
			tr.committed = now
		}
		sh.obsReg.Observe("serve.batch_engine_us", float64(now.Sub(t0).Microseconds()))
	}
	return batchReply{replies: replies}
}

// reqIDOf is the request ID a durable record should carry: the trace's ID
// when the client supplied it, "" otherwise (server-generated IDs are
// ephemeral, keeping header-less WAL bytes unchanged).
func reqIDOf(tr *submitTrace) string {
	if tr == nil || !tr.persist {
		return ""
	}
	return tr.reqID
}

// scalarSpec is the scalar-spec cache key: the value fields of a JobSpec
// with no structured parts. Two equal scalarSpecs synthesize identical DAGs
// and profit curves, so everything derived from the spec — the built graph,
// the profit function, and the wire form minus id and release — is shared.
type scalarSpec struct {
	W          int64
	L          int64
	Deadline   int64
	Profit     float64
	Commitment string // per-job override; part of the wire tail
}

// scalarEntry is one cached scalar-spec shape. The DAG is immutable after
// Build (per-job runtime progress lives in dag.State), and profit.Step is a
// value, so sharing one graph and function across every job with the same
// spec is safe on the engine goroutine. tail is filled lazily by
// marshalJobWire on the first durable admission of the shape.
type scalarEntry struct {
	g         *dag.DAG
	fn        profit.Fn
	tail      []byte // wire form from ,"graph": onward; nil until first marshal
	tailPlain bool   // fastjson.RawPlain(tail), checked once when tail is set
}

// plainWire reports whether wire, which marshalJobWire rendered for this
// entry, is known to pass fastjson.RawPlain: the memoized tail was checked
// once, so only the integer prefix in front of it is checked per job.
func (e *scalarEntry) plainWire(wire []byte) bool {
	return e != nil && e.tailPlain && len(wire) > len(e.tail) && fastjson.RawPlain(wire[:len(wire)-len(e.tail)])
}

// wireCacheMax bounds the per-shard scalar cache; past it new shapes just
// rebuild (a high-rate client sends few distinct spec shapes, so the
// steady state is all hits).
const wireCacheMax = 4096

// buildSpec is spec.build with everything a scalar spec derives memoized
// per spec, and every synthesized graph per (w, l): a cache hit skips the
// whole DAG synthesis, which is the single largest per-submission
// allocation, and a miss synthesizes only a (w, l) the shard has not seen.
// Structured specs (explicit dag or curve) are not cached; an explicit dag
// is the client's own graph. Build errors are never cached (they are cheap
// and carry no derived state).
func (sh *shard) buildSpec(spec JobSpec) (*dag.DAG, profit.Fn, *scalarEntry, error) {
	if spec.DAG != nil || spec.Curve != nil || !spec.Profit.IsScalar() {
		g, fn, err := spec.build(sh.sharedGraph)
		return g, fn, nil, err
	}
	key := scalarSpec{W: spec.W, L: spec.L, Deadline: spec.Deadline, Profit: spec.Profit.Scalar, Commitment: spec.Commitment}
	if e, ok := sh.wireCache[key]; ok {
		return e.g, e.fn, e, nil
	}
	g, fn, err := spec.build(sh.sharedGraph)
	if err != nil {
		return nil, nil, nil, err
	}
	e := &scalarEntry{g: g, fn: fn}
	if len(sh.wireCache) < wireCacheMax {
		if sh.wireCache == nil {
			sh.wireCache = make(map[scalarSpec]*scalarEntry)
		}
		sh.wireCache[key] = e
	}
	return g, fn, e, nil
}

// sharedGraph is synthesizeDAG through the shard's per-(w, l) memo. A DAG
// is immutable after Build, so every job of the shape can run on it.
func (sh *shard) sharedGraph(w, l int64) (*dag.DAG, error) {
	key := [2]int64{w, l}
	if g, ok := sh.graphs[key]; ok {
		return g, nil
	}
	g, err := synthesizeDAG(w, l)
	if err != nil {
		return nil, err
	}
	if len(sh.graphs) < wireCacheMax {
		if sh.graphs == nil {
			sh.graphs = make(map[[2]int64]*dag.DAG)
		}
		sh.graphs[key] = g
	}
	return g, nil
}

// marshalJobWire renders job in the instance wire format, memoizing the
// graph/profit tail in the job's scalar cache entry. Byte-identical to
// workload.MarshalJob by construction: the cached tail is MarshalJob's own
// output for the same spec, and the id/release prefix is rendered with the
// same integer format (pinned by TestMarshalJobWireMatchesMarshalJob). A
// cached shape is rendered into the shard's reused wireBuf, so the result is
// valid only until the next call: the WAL append copies it into the record.
func (sh *shard) marshalJobWire(e *scalarEntry, job *sim.Job) (json.RawMessage, error) {
	if e == nil {
		return workload.MarshalJob(job)
	}
	if e.tail == nil {
		wire, err := workload.MarshalJob(job)
		if err != nil {
			return nil, err
		}
		i := bytes.Index(wire, []byte(`,"graph":`))
		if i < 0 {
			return wire, nil // unexpected shape: serve it, skip the memo
		}
		e.tail = wire[i:]
		e.tailPlain = fastjson.RawPlain(e.tail)
		return wire, nil
	}
	b := append(sh.wireBuf[:0], `{"id":`...)
	b = strconv.AppendInt(b, int64(job.ID), 10)
	b = append(b, `,"release":`...)
	b = strconv.AppendInt(b, job.Release, 10)
	b = append(b, e.tail...)
	sh.wireBuf = b
	return b, nil
}

// processSubmit resolves idempotent retries, takes the admit/reject decision,
// persists it to this shard's WAL (write-ahead: before the session commit,
// so an acknowledged verdict is never lost to a crash), and commits the
// arrival to the session.
func (sh *shard) processSubmit(spec JobSpec, key string, tr *submitTrace) submitReply {
	if sh.srv.draining.Load() || sh.quiesced {
		return submitReply{status: 503, err: "draining", reason: reasonDraining}
	}
	if dp := sh.srv.degraded.Load(); dp != nil {
		// The daemon cannot make new verdicts durable; stop acknowledging.
		return submitReply{status: 503, err: "degraded: " + *dp, reason: reasonDegraded}
	}
	if key != "" {
		if st, ok := sh.idem[key]; ok {
			st.Resp.Replayed = true
			sh.reg.Inc("serve.idempotent_replays", 1)
			return submitReply{status: st.Status, resp: st.Resp}
		}
	}
	var override sim.Commitment
	if spec.Commitment != "" {
		lvl, err := sim.ParseCommitment(spec.Commitment)
		if err != nil {
			sh.reg.Inc("serve.bad_request", 1)
			return submitReply{status: 400, err: err.Error(), reason: reasonBadRequest}
		}
		if lvl.Binding() && !sh.canCommit {
			sh.reg.Inc("serve.bad_request", 1)
			return submitReply{
				status: 400,
				err:    fmt.Sprintf("scheduler %q does not support commitment %q", sh.sched.Name(), spec.Commitment),
				reason: reasonBadRequest,
			}
		}
		override = lvl
	}
	g, fn, ce, err := sh.buildSpec(spec)
	if err != nil {
		sh.reg.Inc("serve.bad_request", 1)
		return submitReply{status: 400, err: err.Error(), reason: reasonBadRequest}
	}
	release := sh.sess.Now()
	id := sh.lastID + sh.stride
	job := &sim.Job{ID: id, Graph: g, Release: release, Profit: fn, Commitment: override}
	resp := JobResponse{ID: id, Release: release}
	resp.Decision, resp.Reason, resp.Plan = decideAdmission(sh.adm, job, sh.srv.policy)

	if resp.Decision == DecisionRejected {
		resp.ID = 0
		resp.Commitment = CommitmentNone
		if key != "" {
			// Make the verdict durable so a retry after a crash collapses
			// onto it instead of re-opening the decision.
			if sh.wal != nil {
				if _, err := sh.wal.append(WALReject{Type: "reject", Key: key, ReqID: reqIDOf(tr), Resp: resp}); err != nil {
					sh.degrade("wal append", err)
					return submitReply{status: 503, err: "degraded: " + sh.srv.Degraded(), reason: reasonDegraded}
				}
				sh.ckptDirty = true
			}
			sh.idem[key] = StoredResponse{Status: 200, Resp: resp}
		}
		sh.reg.Inc("serve.rejected", 1)
		return submitReply{status: 200, resp: resp}
	}

	resp.Commitment = commitmentString(job.Commitment.Resolve(sh.srv.policy), sh.wal != nil)
	if sh.wal != nil {
		wire, err := sh.marshalJobWire(ce, job)
		if err != nil {
			sh.reg.Inc("serve.bad_request", 1)
			return submitReply{status: 400, err: err.Error(), reason: reasonBadRequest}
		}
		rec := WALJob{Type: "job", Key: key, ReqID: reqIDOf(tr), Resp: resp, Job: wire, jobPlain: ce.plainWire(wire)}
		var ta time.Time
		if sh.obsReg != nil {
			ta = time.Now()
		}
		payload, err := sh.wal.append(rec)
		if err != nil {
			// Not durable, so not committed and not acknowledged: the
			// session never sees the job and the client may retry safely.
			sh.degrade("wal append", err)
			return submitReply{status: 503, err: "degraded: " + sh.srv.Degraded(), reason: reasonDegraded}
		}
		if sh.obsReg != nil {
			sh.obsReg.Observe("serve.wal_append_us", float64(time.Since(ta).Microseconds()))
		}
		if tr != nil {
			tr.walAppended = time.Now()
		}
		sh.hist.add(payload)
		sh.ckptDirty = true
	}
	if err := sh.sess.Arrive(job); err != nil {
		// Unreachable by construction (fresh ascending ID, release = Now);
		// surfaced as a server error rather than swallowed. With a WAL the
		// logged record now disagrees with the engine, so degrade too.
		sh.reg.Inc("serve.arrive_error", 1)
		if sh.wal != nil {
			sh.degrade("arrive after wal append", err)
		}
		return submitReply{status: 500, err: err.Error(), reason: reasonInternal}
	}
	sh.lastID = id
	sh.reg.Inc("serve.accepted", 1)
	sh.reg.Inc("serve."+string(resp.Decision), 1)
	if key != "" {
		sh.idem[key] = StoredResponse{Status: 200, Resp: resp}
	}
	sh.publishPressure()
	if resp.Decision == DecisionParked {
		// Direct evidence the band is full — occupancy alone can miss a
		// single wide job saturating one band.
		sh.bandFull.Store(true)
	}
	return submitReply{status: 200, resp: resp}
}

func (sh *shard) handleLookup(id int) lookupReply {
	stat, state := sh.sess.Lookup(id)
	if state == sim.JobStateUnknown {
		return lookupReply{}
	}
	return lookupReply{found: true, resp: statusResponse(id, stat, state)}
}

// handleStats renders this shard's /v1/stats block plus its raw telemetry
// summary (for the server-level aggregate). It runs on the engine goroutine,
// or directly from a handler once the engine has exited and the state is
// sealed.
func (sh *shard) handleStats() shardStatsReply {
	sh.reg.SetGauge("serve.queue_depth", float64(len(sh.reqs)))
	summary := sh.reg.Summary()
	occ, parked := 0.0, 0
	if o, ok := sh.sched.(occupier); ok {
		occ = o.Occupancy()
	}
	if qs, ok := sh.sched.(queueSizer); ok {
		_, parked = qs.QueueSizes()
	}
	st := ShardStats{
		Shard:         sh.idx,
		M:             sh.m,
		Now:           sh.sess.Now(),
		Live:          sh.sess.Live(),
		Pending:       sh.sess.Pending(),
		Accepted:      summary.Counters["serve.accepted"],
		Admitted:      summary.Counters["serve.admitted"],
		Parked:        summary.Counters["serve.parked"],
		Rejected:      summary.Counters["serve.rejected"],
		BandOccupancy: occ,
		ParkedDepth:   parked,
		MailboxDepth:  len(sh.reqs),
		Pressure:      math.Float64frombits(sh.pressure.Load()),
		Recovery:      sh.recovery,
	}
	if ep := sh.engineErr.Load(); ep != nil {
		st.EngineError = *ep
	}
	if sh.wal != nil {
		st.WAL = &WALStats{
			Dir:                 sh.walDir,
			Fsync:               string(sh.srv.cfg.Fsync),
			Records:             sh.wal.records,
			Checkpoints:         sh.checkpoints,
			LastCheckpointClock: sh.lastCkptClock,
		}
	}
	// The /metrics scrape walks histogram buckets, which the engine mutates;
	// hand it an independent clone taken on this goroutine.
	return shardStatsReply{stats: st, summary: summary, obs: sh.obsReg.Clone()}
}

// maybeCheckpoint takes a checkpoint when the cadence has elapsed and the
// WAL holds records since the last one. Skipped while degraded: a checkpoint
// from state the WAL may not fully cover could seal the inconsistency in.
func (sh *shard) maybeCheckpoint(now time.Time) {
	if sh.srv.cfg.CheckpointInterval < 0 || !sh.ckptDirty || sh.srv.degraded.Load() != nil {
		return
	}
	if now.Sub(sh.lastCheckpoint) < sh.srv.cfg.CheckpointInterval {
		return
	}
	if err := sh.checkpointNow(); err != nil {
		sh.degrade("checkpoint", err)
	}
}

// checkpointNow folds this shard's accepted history, idempotency table,
// telemetry summary, and session fingerprint into an atomically replaced
// checkpoint.json in the shard's WAL directory, then truncates its WAL back
// to the header. The history's bytes are written as they are; only the
// head and tail around them are encoded. Engine goroutine only (or before it
// starts).
func (sh *shard) checkpointNow() error {
	var t0 time.Time
	if sh.obsReg != nil {
		t0 = time.Now()
	}
	if err := sh.wal.sync(); err != nil {
		return err
	}
	sh.checkpoints++
	cp := Checkpoint{
		Type:        "checkpoint",
		Header:      sh.header,
		Clock:       sh.sess.Now(),
		NextID:      sh.lastID,
		Idem:        sh.idem,
		Summary:     sh.reg.Summary(),
		Fingerprint: sh.sess.Fingerprint(),
		Checkpoints: sh.checkpoints,
	}
	parts, err := checkpointFrame(sh.ckptParts[:0], &cp, &sh.hist)
	if err != nil {
		return err
	}
	err = writeFileAtomic(sh.walDir, checkpointFileName, parts...)
	clear(parts)
	sh.ckptParts = parts[:0]
	if err != nil {
		return err
	}
	if err := sh.wal.reset(cp.Header); err != nil {
		return err
	}
	sh.lastCheckpoint = time.Now()
	sh.lastCkptClock = cp.Clock
	sh.ckptDirty = false
	sh.reg.Inc("serve.checkpoints", 1)
	if sh.obsReg != nil {
		sh.obsReg.Observe("serve.checkpoint_us", float64(time.Since(t0).Microseconds()))
	}
	return nil
}

// openDurable recovers any durable state in dir into this shard's fresh
// session and opens its WAL for appending. Only a directory with no
// checkpoint yet — a fresh one — gets a checkpoint at start, which leaves it
// normalized. A recovered directory is already a checkpoint plus the WAL
// written since, which is what a running shard leaves between checkpoints,
// so a start does not rewrite the history: the recovered records stay in
// the WAL, and the next interval checkpoint (one interval from now) or the
// drain writes the checkpoint. Runs before the engine goroutine starts,
// concurrently with the other shards' recovery: they share nothing it
// touches.
func (sh *shard) openDurable(dir string) error {
	sh.walDir = dir
	var t0 time.Time
	if sh.obsReg != nil {
		t0 = time.Now()
	}
	rs, err := loadState(dir, sh.header, sh.baseID())
	if err != nil {
		return err
	}
	if rs != nil {
		if err := rs.replayInto(sh.sess, sh.adm, sh.reg, sh.srv.policy); err != nil {
			return err
		}
		sh.idem = rs.idem
		sh.lastID = rs.nextID
		sh.checkpoints = rs.checkpoints
		sh.recovery = rs.info()
		sh.reg.Inc("serve.recoveries", 1)
		if sh.obsReg != nil {
			sh.obsReg.Observe("serve.recovery_duration_us", float64(time.Since(t0).Microseconds()))
			sh.obsReg.Inc("serve.recovery_replayed", int64(len(rs.jobs)))
		}
		if err := sh.hist.fill(rs.jobs); err != nil {
			return err
		}
		if recoveredHistoryHook != nil {
			recoveredHistoryHook(dir, &sh.hist, rs.jobs)
		}
		// The decoded records, and the file buffers their bytes view, are
		// garbage from here on.
		rs.jobs = nil
	}
	w, err := openWAL(dir, sh.srv.cfg.Fsync, sh.srv.cfg.FsyncInterval)
	if err != nil {
		return fmt.Errorf("serve: wal: %w", err)
	}
	w.obs = sh.obsReg
	sh.wal = w
	sh.publishPressure()
	if rs != nil && rs.hasCheckpoint && rs.walHeader {
		sh.lastCheckpoint = time.Now()
		sh.lastCkptClock = rs.checkpointClk
		sh.ckptDirty = !rs.sealed
		return nil
	}
	sh.ckptDirty = true // force the normalizing checkpoint even on a fresh dir
	if err := sh.checkpointNow(); err != nil {
		w.close()
		sh.wal = nil
		return err
	}
	return nil
}

// recoveredHistoryHook, when set, sees every recovered shard's history right
// after fill, with its directory and the records it was filled from. Tests
// set it to check the bytes fill adopted against a fresh encoding; it is nil
// otherwise. Shards recover concurrently, so it must be safe for that.
var recoveredHistoryHook func(dir string, h *encodedHistory, recs []WALJob)

// finalize is the drain's second phase for this shard: fast-forward the
// session until every committed job has completed or expired, seal the
// durable state, and return the shard Result. The caller guarantees every
// shard has quiesced first, so nothing can append behind the seal.
func (sh *shard) finalize() *sim.Result {
	if err := sh.sess.RunToEnd(); err != nil {
		msg := err.Error()
		sh.engineErr.Store(&msg)
	}
	res := sh.sess.Finish()
	sh.reg.Inc("serve.drains", 1)
	if sh.wal != nil {
		// Seal the drained state: a restart over this directory recovers the
		// completed history instead of replaying the whole session.
		if sh.srv.degraded.Load() == nil {
			if err := sh.checkpointNow(); err != nil {
				sh.degrade("final checkpoint", err)
			}
		}
		if err := sh.wal.close(); err != nil {
			sh.degrade("wal close", err)
		}
	}
	return res
}
