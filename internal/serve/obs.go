package serve

import (
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"dagsched/internal/obs"
	"dagsched/internal/telemetry"
	"dagsched/internal/trace"
)

// serverObs holds the HTTP-layer observability state: request latency
// histograms, not-ready counters, and drain-phase timings. Unlike the
// per-shard registries (engine goroutine only), handlers hit this from many
// goroutines, so a mutex guards the registry. All methods are nil-safe.
type serverObs struct {
	mu  sync.Mutex
	reg telemetry.Registry
}

func (o *serverObs) inc(name string, delta int64) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.reg.Inc(name, delta)
	o.mu.Unlock()
}

func (o *serverObs) observe(name string, v float64) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.reg.Observe(name, v)
	o.mu.Unlock()
}

func (o *serverObs) snapshot() *telemetry.Registry {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.reg.Clone()
}

// The metric inventory: every family /metrics exposes, with its exposition
// name, help text, and kind. The golden test pins these — adding a family is
// a deliberate, reviewed change to the scrape contract.
var (
	descReady    = obs.Desc{Name: "serve_ready", Help: "1 when the daemon is accepting work (recovery done, not draining, durability intact).", Kind: obs.Gauge}
	descDraining = obs.Desc{Name: "serve_draining", Help: "1 once a drain has started.", Kind: obs.Gauge}
	descDegraded = obs.Desc{Name: "serve_degraded", Help: "1 when a durability failure has degraded the daemon.", Kind: obs.Gauge}
	descShards   = obs.Desc{Name: "serve_shards", Help: "Configured engine shard count.", Kind: obs.Gauge}
	descUptime   = obs.Desc{Name: "serve_uptime_seconds", Help: "Seconds since the daemon started.", Kind: obs.Gauge}

	descNotReady = obs.Desc{Name: "serve_not_ready_total", Help: "Readiness probes answered 503, by reason.", Kind: obs.Counter}
	descPlacer   = obs.Desc{Name: "serve_placer_decisions_total", Help: "Placer routing decisions: keyed affinity, lowest pressure, second-choice spill.", Kind: obs.Counter}
	descTraces   = obs.Desc{Name: "serve_request_traces_total", Help: "Request traces captured (the /debug/requests ring keeps the most recent).", Kind: obs.Counter}

	descHTTPUs     = obs.Desc{Name: "serve_http_request_us", Help: "End-to-end HTTP latency of the submission route, in microseconds.", Kind: obs.Histogram}
	descDrainUs    = obs.Desc{Name: "serve_drain_phase_us", Help: "Drain phase durations (quiesce all shards, then finalize), in microseconds.", Kind: obs.Histogram}
	descBatchItems = obs.Desc{Name: "serve_batch_items", Help: "Items per POST /v1/jobs:batch request.", Kind: obs.Histogram}

	descAccepted   = obs.Desc{Name: "serve_accepted_total", Help: "Submissions committed to a shard's session.", Kind: obs.Counter}
	descVerdicts   = obs.Desc{Name: "serve_submissions_total", Help: "Admission verdicts acknowledged, by shard and verdict.", Kind: obs.Counter}
	descIdem       = obs.Desc{Name: "serve_idempotent_replays_total", Help: "Retries answered from the idempotency table.", Kind: obs.Counter}
	descBadReq     = obs.Desc{Name: "serve_bad_request_total", Help: "Submissions rejected for malformed specs.", Kind: obs.Counter}
	descDegrEvents = obs.Desc{Name: "serve_degraded_events_total", Help: "Durability failures observed, by shard.", Kind: obs.Counter}
	descCkpts      = obs.Desc{Name: "serve_checkpoints_total", Help: "Checkpoints taken, by shard (monotone across restarts).", Kind: obs.Counter}
	descRecoveries = obs.Desc{Name: "serve_recoveries_total", Help: "Times this shard's durable state was recovered at start.", Kind: obs.Counter}
	descDrains     = obs.Desc{Name: "serve_drains_total", Help: "Completed drains, by shard.", Kind: obs.Counter}
	descReplayed   = obs.Desc{Name: "serve_recovery_replayed_total", Help: "Job records replayed during crash recovery, by shard.", Kind: obs.Counter}

	descBandOcc   = obs.Desc{Name: "serve_band_occupancy", Help: "Scheduler S band occupancy of the shard's capacity slice (0..1+).", Kind: obs.Gauge}
	descParkedDep = obs.Desc{Name: "serve_parked_depth", Help: "Jobs parked in P awaiting band capacity.", Kind: obs.Gauge}
	descMailbox   = obs.Desc{Name: "serve_mailbox_depth", Help: "Requests queued in the shard's mailbox.", Kind: obs.Gauge}
	descPressure  = obs.Desc{Name: "serve_pressure_ewma", Help: "The EWMA pressure signal the placer routes on.", Kind: obs.Gauge}
	descClock     = obs.Desc{Name: "serve_session_clock", Help: "The shard's simulated-time clock, in ticks.", Kind: obs.Gauge}
	descLive      = obs.Desc{Name: "serve_live_jobs", Help: "Jobs currently live in the shard's session.", Kind: obs.Gauge}
	descPending   = obs.Desc{Name: "serve_pending_jobs", Help: "Committed jobs not yet completed or expired.", Kind: obs.Gauge}
	descWALRecs   = obs.Desc{Name: "serve_wal_records", Help: "WAL records appended by this process, by shard.", Kind: obs.Gauge}

	descTickerWakes = obs.Desc{Name: "serve_ticker_wakeups_total", Help: "Engine ticker wakeups, by shard (zero under the event-jump clock).", Kind: obs.Counter}
	descClockJumps  = obs.Desc{Name: "serve_clock_jumps_total", Help: "Event-jump timer fires, by shard (zero under the ticker clock).", Kind: obs.Counter}
	descJumpTicks   = obs.Desc{Name: "serve_clock_jump_ticks", Help: "Simulated ticks advanced per event-jump timer fire.", Kind: obs.Histogram}

	descSubmitUs = obs.Desc{Name: "serve_submit_engine_us", Help: "Engine-path submission latency (dequeue to commit), in microseconds.", Kind: obs.Histogram}
	descBatchUs  = obs.Desc{Name: "serve_batch_engine_us", Help: "Engine-path latency of one batch group (dequeue to group commit), in microseconds.", Kind: obs.Histogram}
	descWaitUs   = obs.Desc{Name: "serve_mailbox_wait_us", Help: "Mailbox queue wait (handler enqueue to engine dequeue), in microseconds.", Kind: obs.Histogram}
	descAppendUs = obs.Desc{Name: "serve_wal_append_us", Help: "WAL append latency including any per-record fsync, in microseconds.", Kind: obs.Histogram}
	descFsyncUs  = obs.Desc{Name: "serve_wal_fsync_us", Help: "WAL fsync latency, in microseconds.", Kind: obs.Histogram}
	descCkptUs   = obs.Desc{Name: "serve_checkpoint_us", Help: "Checkpoint duration (fold, atomic replace, WAL reset), in microseconds.", Kind: obs.Histogram}
	descRecovUs  = obs.Desc{Name: "serve_recovery_duration_us", Help: "Crash-recovery replay duration at start, in microseconds.", Kind: obs.Histogram}
)

// Machine-readable error reasons: the "reason" field of the unified error
// envelope every 4xx/5xx body carries (errorResponse, per-item batch
// statuses, /readyz). The first three double as serve_not_ready_total's
// reason label.
const (
	reasonRecovering = "recovering"
	reasonDraining   = "draining"
	reasonDegraded   = "degraded"
	reasonBadRequest = "bad-request"
	reasonNotFound   = "not-found"
	reasonTooLarge   = "too-large"
	reasonQueueFull  = "queue-full"
	reasonInternal   = "internal"
)

func boolGauge(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// buildExposition renders the whole scrape from the per-shard stats replies
// (each carrying a cloned observability registry taken on its engine
// goroutine) plus the server-level state. Per-shard families carry a
// shard="<i>" label; server-level families carry none.
func (s *Server) buildExposition(replies []shardStatsReply) *obs.Exposition {
	e := obs.NewExposition()

	e.AddInt(descReady, boolGauge(s.Ready()))
	e.AddInt(descDraining, boolGauge(s.draining.Load()))
	e.AddInt(descDegraded, boolGauge(s.Degraded() != ""))
	e.AddInt(descShards, int64(len(s.shards)))
	e.Add(descUptime, time.Since(s.start).Seconds())

	srvReg := s.metrics.snapshot()
	for _, reason := range []string{reasonDegraded, reasonDraining, reasonRecovering} {
		e.AddInt(descNotReady, srvReg.Counter("serve.not_ready."+reason), "reason", reason)
	}
	e.AddInt(descPlacer, s.placer.keyed.Load(), "decision", routeKeyed)
	e.AddInt(descPlacer, s.placer.pressure.Load(), "decision", routePressure)
	e.AddInt(descPlacer, s.placer.spill.Load(), "decision", routeSpill)
	e.AddInt(descTraces, s.traces.Total())
	e.AddHist(descHTTPUs, srvReg.Hist("serve.http.jobs_us"), "route", "jobs")
	e.AddHist(descHTTPUs, srvReg.Hist("serve.http.jobs_batch_us"), "route", "jobs_batch")
	e.AddHist(descBatchItems, srvReg.Hist("serve.http.batch_items"))
	e.AddHist(descDrainUs, srvReg.Hist("serve.drain.quiesce_us"), "phase", "quiesce")
	e.AddHist(descDrainUs, srvReg.Hist("serve.drain.finalize_us"), "phase", "finalize")

	for i, rep := range replies {
		shard := strconv.Itoa(i)
		c := rep.summary.Counters
		e.AddInt(descAccepted, c["serve.accepted"], "shard", shard)
		e.AddInt(descVerdicts, c["serve.admitted"], "shard", shard, "verdict", string(DecisionAdmitted))
		e.AddInt(descVerdicts, c["serve.parked"], "shard", shard, "verdict", string(DecisionParked))
		e.AddInt(descVerdicts, c["serve.rejected"], "shard", shard, "verdict", string(DecisionRejected))
		e.AddInt(descIdem, c["serve.idempotent_replays"], "shard", shard)
		e.AddInt(descBadReq, c["serve.bad_request"], "shard", shard)
		e.AddInt(descDegrEvents, c["serve.degraded_events"], "shard", shard)
		e.AddInt(descCkpts, c["serve.checkpoints"], "shard", shard)
		e.AddInt(descRecoveries, c["serve.recoveries"], "shard", shard)
		e.AddInt(descDrains, c["serve.drains"], "shard", shard)
		e.AddInt(descReplayed, rep.obs.Counter("serve.recovery_replayed"), "shard", shard)
		e.AddInt(descTickerWakes, rep.obs.Counter("serve.ticker_wakeups"), "shard", shard)
		e.AddInt(descClockJumps, rep.obs.Counter("serve.clock_jumps"), "shard", shard)

		st := rep.stats
		e.Add(descBandOcc, st.BandOccupancy, "shard", shard)
		e.AddInt(descParkedDep, int64(st.ParkedDepth), "shard", shard)
		e.AddInt(descMailbox, int64(st.MailboxDepth), "shard", shard)
		e.Add(descPressure, st.Pressure, "shard", shard)
		e.AddInt(descClock, st.Now, "shard", shard)
		e.AddInt(descLive, int64(st.Live), "shard", shard)
		e.AddInt(descPending, int64(st.Pending), "shard", shard)
		var walRecords int64
		if st.WAL != nil {
			walRecords = st.WAL.Records
		}
		e.AddInt(descWALRecs, walRecords, "shard", shard)

		e.AddHist(descSubmitUs, rep.obs.Hist("serve.submit_engine_us"), "shard", shard)
		e.AddHist(descBatchUs, rep.obs.Hist("serve.batch_engine_us"), "shard", shard)
		e.AddHist(descWaitUs, rep.obs.Hist("serve.mailbox_wait_us"), "shard", shard)
		e.AddHist(descJumpTicks, rep.obs.Hist("serve.clock_jump_ticks"), "shard", shard)
		e.AddHist(descAppendUs, rep.obs.Hist("serve.wal_append_us"), "shard", shard)
		e.AddHist(descFsyncUs, rep.obs.Hist("serve.wal_fsync_us"), "shard", shard)
		e.AddHist(descCkptUs, rep.obs.Hist("serve.checkpoint_us"), "shard", shard)
		e.AddHist(descRecovUs, rep.obs.Hist("serve.recovery_duration_us"), "shard", shard)
	}
	return e
}

// gatherShardStats collects every shard's stats reply through its mailbox
// (falling back to a direct read once an engine has exited and its state is
// sealed). Shared by /v1/stats and /metrics.
func (s *Server) gatherShardStats() []shardStatsReply {
	replies := make([]shardStatsReply, len(s.shards))
	for i, sh := range s.shards {
		msg := statsMsg{reply: make(chan shardStatsReply, 1)}
		rep, ok := ask(sh, msg.reply, msg)
		if !ok {
			rep = sh.handleStats() // engine exited; state is sealed and safe to read
		}
		replies[i] = rep
	}
	return replies
}

// handleMetrics serves GET /metrics in the Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	e := s.buildExposition(s.gatherShardStats())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = e.Write(w)
}

// handleDebugRequests serves GET /debug/requests: the request-trace ring as a
// Perfetto (Chrome trace-event) JSON document, one track per request with a
// span per pipeline stage.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	ct := trace.RequestSpans(s.traces.Snapshot())
	w.Header().Set("Content-Type", "application/json")
	_ = ct.WriteJSON(w)
}

// DebugHandler returns the diagnostics mux for Config/-debug-addr: /metrics,
// /debug/requests, and net/http/pprof. It is meant for a second listener so
// profile captures never compete with serving traffic, but every route is
// safe to mount anywhere (scrapes go through the shard mailboxes like any
// other read).
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
