// Command spaa-serve runs the scheduler as a long-lived HTTP daemon: job
// specs POSTed to /v1/jobs (or in bulk to /v1/jobs:batch, up to -max-batch
// specs per request) get an immediate admit/reject verdict from the serving
// scheduler's admission test, and simulated time advances with the wall
// clock. With -wal-dir every accepted arrival is written once to its shard's
// write-ahead log, which survives a crash and re-simulates bit-identically
// offline through serve.ReplayDir (-fsync=off keeps it at page-cache cost
// when only the record is wanted). With an event-safe scheduler the daemon
// idles on an event-jump timer instead of a fixed ticker (-clock overrides
// the discipline), so a quiet shard burns no CPU between events.
//
// -commitment selects the admission contract: the default on-admission makes
// verdicts durable but non-binding, while the binding policies (delta,
// on-arrival) guarantee every admitted job runs to completion — it is never
// expired or displaced, even past its deadline. Job specs may also carry a
// per-job "commitment" field overriding the daemon policy, and "profit" may
// be a structured non-increasing function ({"type":"step"|"linear"|"exp"|
// "piecewise", ...}) instead of a scalar.
//
// Observability: GET /metrics on the serving address exposes the Prometheus
// text scrape; -debug-addr opens a second listener with /metrics,
// /debug/requests (recent submissions as a Perfetto trace), and
// net/http/pprof, so profile captures never compete with serving traffic.
// Operational records go to stderr as structured logs (-log-format text or
// json, -log-level debug..error); -log-level=debug logs every submission
// with its request ID and shard.
//
// SIGTERM or SIGINT drains gracefully: new submissions are rejected with
// 503, committed jobs run to completion in simulated time, and the final
// aggregate Result is printed to stdout.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dagsched/internal/cliflags"
	"dagsched/internal/serve"
)

// newLogger builds the daemon's stderr logger from the -log-format and
// -log-level flags. The Result JSON contract is untouched: logs go to
// stderr, the drained Result alone goes to stdout.
func newLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: want debug, info, warn, or error", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q: want text or json", format)
	}
}

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address")
		debugAddr = flag.String("debug-addr", "", "diagnostics listen address: /metrics, /debug/requests, and net/http/pprof (empty: disabled)")
		m         = flag.Int("m", 1, "number of identical processors")
		shards    = flag.Int("shards", 1, "engine shards behind the pressure-aware placer (1 ≤ shards ≤ m)")
		sched     = flag.String("sched", "s", "scheduler: "+strings.Join(cliflags.SchedulerNames, ", "))
		commit    = flag.String("commitment", serve.CommitmentOnAdmission, "commitment policy: none, on-admission, on-arrival, or delta (binding policies guarantee admitted jobs finish)")
		eps       = flag.Float64("eps", 1.0, "epsilon for the paper schedulers")
		speedStr  = flag.String("speed", "1", "machine speed (int, p/q, or float)")
		tick      = flag.Duration("tick", serve.DefaultTickInterval, "wall-clock duration of one simulated tick")
		queue     = flag.Int("queue", 64, "submission mailbox depth (full queue answers 429)")
		walDir    = flag.String("wal-dir", "", "write-ahead log directory; enables durable commitment and crash recovery")
		fsyncStr  = flag.String("fsync", "always", "WAL fsync policy: always, interval, or off")
		fsyncInt  = flag.Duration("fsync-interval", serve.DefaultFsyncInterval, "flush cadence under -fsync=interval")
		ckptInt   = flag.Duration("checkpoint-interval", serve.DefaultCheckpointInterval, "checkpoint cadence (negative: only at drain)")
		maxBody   = flag.Int64("max-body", serve.DefaultMaxBodyBytes, "largest POST /v1/jobs body in bytes (413 above)")
		maxBatch  = flag.Int("max-batch", serve.DefaultMaxBatchItems, "largest POST /v1/jobs:batch item count (413 above)")
		clockStr  = flag.String("clock", "auto", "idle clock discipline: auto, ticker, or jump")
		logFormat = flag.String("log-format", "text", "structured log format on stderr: text or json")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, or error (debug logs every submission)")
		traceDeep = flag.Int("trace-depth", serve.DefaultTraceDepth, "request traces kept for /debug/requests")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		cliflags.FatalUsage("spaa-serve", fmt.Errorf("unexpected arguments: %v", flag.Args()))
	}

	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		cliflags.FatalUsage("spaa-serve", err)
	}
	speed, err := cliflags.ParseSpeed(*speedStr)
	if err != nil {
		cliflags.FatalUsage("spaa-serve", err)
	}
	if err := cliflags.ValidateShards(*shards, *m); err != nil {
		cliflags.FatalUsage("spaa-serve", err)
	}
	fsync, err := serve.ParseFsyncPolicy(*fsyncStr)
	if err != nil {
		cliflags.FatalUsage("spaa-serve", err)
	}
	if err := cliflags.ValidateMaxBatch(*maxBatch); err != nil {
		cliflags.FatalUsage("spaa-serve", err)
	}
	clock, err := serve.ParseClockMode(*clockStr)
	if err != nil {
		cliflags.FatalUsage("spaa-serve", err)
	}
	cfg := serve.Config{
		M:                  *m,
		Shards:             *shards,
		Sched:              *sched,
		Commitment:         *commit,
		Eps:                *eps,
		Speed:              speed,
		TickInterval:       *tick,
		QueueDepth:         *queue,
		WALDir:             *walDir,
		Fsync:              fsync,
		FsyncInterval:      *fsyncInt,
		CheckpointInterval: *ckptInt,
		MaxBodyBytes:       *maxBody,
		MaxBatchItems:      *maxBatch,
		Clock:              clock,
		Logger:             logger,
		TraceDepth:         *traceDeep,
	}
	srv, err := serve.New(cfg)
	if err != nil {
		cliflags.Fail("spaa-serve", err)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, syscall.SIGTERM, syscall.SIGINT)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	logger.Info("listening",
		"addr", *addr, "scheduler", srv.Scheduler(), "m", *m, "shards", srv.Shards())

	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{Addr: *debugAddr, Handler: srv.DebugHandler()}
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "addr", *debugAddr, "err", err)
			}
		}()
		logger.Info("debug listener", "addr", *debugAddr)
	}

	select {
	case sig := <-sigC:
		logger.Info("draining", "signal", sig.String())
	case err := <-serveErr:
		cliflags.Fail("spaa-serve", err)
	}

	res := srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("shutdown", "err", err)
	}
	if debugSrv != nil {
		if err := debugSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("debug shutdown", "err", err)
		}
	}
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		cliflags.Fail("spaa-serve", err)
	}
	fmt.Println(string(out))
}
