// Package serve is the scheduler-as-a-service layer: a long-running daemon
// that wraps the simulation engine's step-driven Session in a concurrent-safe,
// clock-driven loop behind an HTTP/JSON API.
//
// Architecture: the daemon is N engine shards behind a pressure-aware placer
// (N = Config.Shards; 1 by default). Each shard is a goroutine that owns its
// own sim.Session over a partitioned slice of the capacity, its own Scheduler
// S instance, telemetry registry, and — when durable — its own WAL and
// checkpoint. HTTP handlers never touch shard state: the placer picks a shard
// (by idempotency-key hash, or by the lowest published pressure with a
// second-choice spill when the best shard's band is full) and the handler
// sends a typed message over that shard's bounded mailbox. A full mailbox is
// backpressure (429 without blocking); a draining server answers 503. A
// wall-clock ticker inside each shard advances its session, so simulated
// ticks track real time while the ordering of submissions against ticks stays
// whatever each mailbox serialized.
//
// With Config.WALDir set, every accepted arrival is written once, to its
// shard's WAL (a header record, then one framed record per arrival; shard i
// of N owns the IDs ≡ i+1 mod N). Because each shard stamps server-assigned
// IDs on its own stripe and runs the exact code path batch Run uses,
// ReplayDir — which re-simulates each shard's durable history offline over
// the same capacity partition — reproduces the serving session's merged
// Result bit-identically. Under FsyncOff the WAL is the offline-analysis
// record at page-cache cost.
package serve

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dagsched"
	"dagsched/internal/cliflags"
	"dagsched/internal/core"
	"dagsched/internal/obs"
	"dagsched/internal/rational"
	"dagsched/internal/sim"
	"dagsched/internal/telemetry"
)

// Config parameterizes a serving daemon.
type Config struct {
	// M is the number of processors; must be ≥ 1.
	M int
	// Shards splits the daemon into that many engine shards, each running
	// its own scheduler over a PartitionCapacity slice of M (lower-indexed
	// shards hold the remainder when M is not divisible). 0 or 1 means one
	// shard — byte-identical to the unsharded daemon. Must satisfy
	// cliflags.ValidateShards: 1 ≤ Shards ≤ M.
	Shards int
	// Sched selects the scheduler (cliflags roster); empty means "s".
	Sched string
	// Eps is the ε parameter for the paper schedulers (0 means 1.0).
	Eps float64
	// Speed is the machine speed; the zero value means 1.
	Speed rational.Rat
	// TickInterval is the wall time one simulated tick spans. 0 means the
	// 10ms default; negative disables the ticker entirely (the session then
	// advances only on drain — deterministic tests use this).
	TickInterval time.Duration
	// QueueDepth bounds each shard's request mailbox; a full mailbox is
	// answered with 429. 0 means 64. The depth is per shard, so a sharded
	// daemon holds Shards×QueueDepth queued submissions at most.
	QueueDepth int
	// WALDir, when non-empty, makes the daemon crash-safe: every
	// acknowledged submission is framed, checksummed, and appended to a
	// write-ahead log before it is committed, engine state is checkpointed
	// periodically, and a restart over the same directory recovers the
	// pre-crash session bit-identically (or refuses to start if it cannot).
	// With one shard the directory holds wal.log and checkpoint.json
	// directly; with N > 1 it holds shard-0/ … shard-(N-1)/ subdirectories,
	// one durable pair per shard, recovered independently. The layout is
	// part of the durable configuration: reopening a directory with a
	// different shard count refuses to start. The directory is created if
	// missing.
	WALDir string
	// Fsync selects the WAL flush policy; zero means FsyncAlways.
	Fsync FsyncPolicy
	// FsyncInterval is the flush cadence under FsyncInterval; 0 means
	// 100ms. Flushes piggyback on the engine ticker, so with the ticker
	// disabled the interval policy only flushes at checkpoints and drain.
	FsyncInterval time.Duration
	// CheckpointInterval is the wall-time cadence of engine-state
	// checkpoints (which also truncate the WAL). 0 means 30s; negative
	// checkpoints only at drain. Checkpoints ride the engine ticker, so a
	// disabled ticker also disables periodic checkpoints (tests drive
	// Checkpoint explicitly).
	CheckpointInterval time.Duration
	// MaxBodyBytes caps the POST /v1/jobs body; oversized requests are
	// answered 413. 0 means 1 MiB. The /v1/jobs:batch body is capped at
	// MaxBatchItems × MaxBodyBytes.
	MaxBodyBytes int64
	// MaxBatchItems caps the item count of one POST /v1/jobs:batch request;
	// larger batches are answered 413. 0 means 1024. Must satisfy
	// cliflags.ValidateMaxBatch.
	MaxBatchItems int
	// Clock selects how a shard advances simulated time when the ticker is
	// enabled (TickInterval > 0). ClockAuto — the default — uses event-jump
	// advancement when the shard's session is event-safe under the
	// sim.RunAuto routing rules (no faults, no probes, an event-safe
	// scheduler and policy) and the fixed wall-clock ticker otherwise.
	// ClockTicker forces the ticker; ClockJump requires event safety and
	// New refuses to start without it. Both modes produce bit-identical
	// session state for the same submission sequence — the jump loop bursts
	// every deferred tick before any observable state is touched — so the
	// choice is purely about idle CPU. Ignored when TickInterval < 0.
	Clock ClockMode
	// Logger receives the daemon's structured serving-path records (request
	// IDs and shard indices on every one). nil discards them, which keeps
	// embedded and test servers quiet; cmd/spaa-serve wires a handler per its
	// -log-format and -log-level flags.
	Logger *slog.Logger
	// TraceDepth bounds the in-memory ring of completed request traces
	// (/debug/requests exports it as Perfetto spans). 0 means 256.
	TraceDepth int
	// Commitment selects the daemon-wide commitment policy: "none",
	// "on-admission" (the default), "on-arrival", or "delta". A job spec may
	// override it per job via its "commitment" field. Under a binding policy
	// (on-arrival, delta) an admitted job is promised completion — the
	// scheduler never abandons it past its commit point, even past its
	// deadline — and under on-arrival a job that cannot be admitted at
	// release is rejected outright instead of parked. Binding policies
	// require a scheduler that supports commitment (Scheduler S); New
	// refuses other rosters. The policy is part of the durable header: a WAL
	// directory written under one policy refuses to recover under another.
	Commitment string
}

// DefaultTickInterval is the wall-clock duration of one simulated tick.
const DefaultTickInterval = 10 * time.Millisecond

// DefaultFsyncInterval is the flush cadence under FsyncInterval.
const DefaultFsyncInterval = 100 * time.Millisecond

// DefaultCheckpointInterval is the cadence of engine-state checkpoints.
const DefaultCheckpointInterval = 30 * time.Second

// DefaultMaxBodyBytes caps the POST /v1/jobs body.
const DefaultMaxBodyBytes = 1 << 20

// DefaultMaxBatchItems caps the POST /v1/jobs:batch item count.
const DefaultMaxBatchItems = 1024

// DefaultTraceDepth is the request-trace ring size (Config.TraceDepth).
const DefaultTraceDepth = 256

// Commitment values for Config.Commitment, JobSpec.Commitment, and
// JobResponse.Commitment: the strength of the promise attached to an
// admission verdict, in the sense of the commitment models of Eberle, Megow
// and Schewior ("Commitment is No Burden"). The first two are durability
// levels; the last two additionally bind the scheduler.
const (
	// CommitmentNone: the verdict carries no promise — it does not survive a
	// crash of the daemon and the job may be abandoned at its deadline.
	CommitmentNone = "none"
	// CommitmentOnAdmission: the verdict was persisted to the WAL before it
	// was acknowledged; recovery re-admits the job or refuses to start. No
	// scheduling promise: an admitted job may still be abandoned.
	CommitmentOnAdmission = "on-admission"
	// CommitmentOnArrival: the release-time verdict is final. An admitted
	// job is guaranteed to finish (never abandoned, even past its deadline);
	// a job that cannot be admitted at release is rejected outright, never
	// parked for a second chance.
	CommitmentOnArrival = "on-arrival"
	// CommitmentDelta: δ-commitment — the promise attaches when the job is
	// admitted to run (at arrival, or later from the parked pool while still
	// δ-fresh). From that point the job is guaranteed to finish.
	CommitmentDelta = "delta"
)

// commitmentSetter is the optional scheduler-wide commitment knob
// (core.SchedulerS). Binding policies require it.
type commitmentSetter interface {
	SetCommitment(c sim.Commitment) error
}

// applyCommitment configures sched for the policy a durable header or serving
// config names. Empty and non-binding policies need no scheduler support;
// binding ones require the commitmentSetter knob.
func applyCommitment(sched sim.Scheduler, policy string) error {
	if policy == "" {
		return nil
	}
	lvl, err := sim.ParseCommitment(policy)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if !lvl.Binding() {
		return nil
	}
	cs, ok := sched.(commitmentSetter)
	if !ok {
		return fmt.Errorf("serve: scheduler %q does not support commitment policy %q", sched.Name(), policy)
	}
	return cs.SetCommitment(lvl)
}

// commitmentString maps a job's effective commitment level to the wire value
// an accepted verdict carries. Binding levels name their scheduling promise
// whether or not the daemon is durable; the default on-admission level
// reports the durability of the verdict itself, so a WAL-less daemon answers
// "none" exactly as it did before policies existed.
func commitmentString(lvl sim.Commitment, durable bool) string {
	switch lvl {
	case sim.CommitmentOnArrival, sim.CommitmentDelta:
		return string(lvl)
	case sim.CommitmentNone:
		return CommitmentNone
	default:
		if durable {
			return CommitmentOnAdmission
		}
		return CommitmentNone
	}
}

// admitter is the optional standalone admission query (core.SchedulerS).
type admitter interface {
	Admission(v sim.JobView) core.Decision
}

// Server is one serving session: N shards behind a placer. Create with New,
// expose Handler over HTTP, stop with Drain.
type Server struct {
	cfg    Config
	policy sim.Commitment // parsed Config.Commitment
	shards []*shard
	placer *placer

	recovery *RecoveryInfo // aggregated across shards; nil on a fresh start

	ready     atomic.Bool
	draining  atomic.Bool
	degraded  atomic.Pointer[string]
	drainOnce sync.Once
	result    *sim.Result // set inside drainOnce

	log     *slog.Logger   // Config.Logger; use logger(), which is nil-safe
	metrics *serverObs     // HTTP-layer counters/histograms (mutex-guarded)
	traces  *obs.TraceRing // completed request traces for /debug/requests

	start time.Time
}

// discardLog swallows records; the fallback when no Config.Logger is wired
// (embedded servers, tests constructing Server directly).
var discardLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// logger returns the server's structured logger, never nil.
func (s *Server) logger() *slog.Logger {
	if s.log != nil {
		return s.log
	}
	return discardLog
}

// New validates the configuration, builds the shards and their schedulers —
// recovering each shard's pre-crash session from Config.WALDir when one is
// there, several shards at once — and starts the engine goroutines.
// With a WAL directory, New returns only once every shard's recovery has
// replayed its durable history and verified it against the checkpoint
// fingerprint and every acknowledged admission verdict; a daemon that cannot
// honor its commitments on any shard refuses to start rather than serve from
// diverged state.
func New(cfg Config) (*Server, error) {
	s, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	if s.cfg.WALDir != "" {
		if err := s.openDurable(); err != nil {
			return nil, err
		}
		if s.recovery != nil {
			s.logger().Info("recovered durable state",
				"dir", s.cfg.WALDir, "shards", s.cfg.Shards,
				"jobs", s.recovery.Jobs, "walJobs", s.recovery.WALJobs,
				"clock", s.recovery.Clock, "tornBytes", s.recovery.TornBytes)
		}
	}
	s.startEngines()
	return s, nil
}

// newServer validates the configuration, fills in its defaults, and builds
// the shards with their fresh sessions: the part of New before recovery.
func newServer(cfg Config) (*Server, error) {
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Shards != 1 {
		if err := cliflags.ValidateShards(cfg.Shards, cfg.M); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	if cfg.Sched == "" {
		cfg.Sched = "s"
	}
	if cfg.Eps == 0 {
		cfg.Eps = 1.0
	}
	if cfg.TickInterval == 0 {
		cfg.TickInterval = DefaultTickInterval
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	}
	if cfg.QueueDepth < 1 {
		return nil, fmt.Errorf("serve: queue depth %d, need ≥ 1", cfg.QueueDepth)
	}
	if cfg.Fsync == "" {
		cfg.Fsync = FsyncAlways
	}
	if _, err := ParseFsyncPolicy(string(cfg.Fsync)); err != nil {
		return nil, err
	}
	if cfg.FsyncInterval == 0 {
		cfg.FsyncInterval = DefaultFsyncInterval
	}
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = DefaultCheckpointInterval
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxBatchItems == 0 {
		cfg.MaxBatchItems = DefaultMaxBatchItems
	}
	if err := cliflags.ValidateMaxBatch(cfg.MaxBatchItems); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if cfg.Clock == "" {
		cfg.Clock = ClockAuto
	}
	if _, err := ParseClockMode(string(cfg.Clock)); err != nil {
		return nil, err
	}
	if cfg.TraceDepth == 0 {
		cfg.TraceDepth = DefaultTraceDepth
	}
	if cfg.Commitment == "" {
		cfg.Commitment = CommitmentOnAdmission
	}
	policy, err := sim.ParseCommitment(cfg.Commitment)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	part := cliflags.PartitionCapacity(cfg.M, cfg.Shards)
	s := &Server{cfg: cfg, policy: policy, start: time.Now()}
	s.log = cfg.Logger
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s.metrics = &serverObs{}
	s.traces = obs.NewTraceRing(cfg.TraceDepth)
	for i := 0; i < cfg.Shards; i++ {
		sched, err := cliflags.MakeScheduler(cfg.Sched, cfg.Eps, false)
		if err != nil {
			return nil, err
		}
		if policy.Binding() {
			if err := applyCommitment(sched, cfg.Commitment); err != nil {
				return nil, err
			}
		}
		simCfg := dagsched.NewConfig(
			dagsched.WithM(part[i]),
			dagsched.WithSpeed(cfg.Speed),
		)
		sess, err := sim.NewSession(simCfg, nil, sched)
		if err != nil {
			return nil, err
		}
		jump, err := resolveClock(cfg, sess)
		if err != nil {
			return nil, err
		}
		sh := &shard{
			jump:       jump,
			srv:        s,
			idx:        i,
			m:          part[i],
			stride:     cfg.Shards,
			sched:      sched,
			sess:       sess,
			reg:        &telemetry.Registry{},
			obsReg:     &telemetry.Registry{},
			lastID:     i + 1 - cfg.Shards, // first assigned ID is i+1
			header:     shardHeaderOf(cfg, i, part[i]),
			idem:       make(map[string]StoredResponse),
			reqs:       make(chan any, cfg.QueueDepth),
			engineDone: make(chan struct{}),
		}
		sh.adm, _ = sched.(admitter)
		_, sh.canCommit = sched.(sim.Committer)
		s.shards = append(s.shards, sh)
	}
	s.placer = newPlacer(s.shards)
	return s, nil
}

// startEngines starts the engine goroutines: the part of New after
// recovery.
func (s *Server) startEngines() {
	s.ready.Store(true)
	for _, sh := range s.shards {
		go sh.engineLoop()
	}
}

// openDurable lays out the WAL directory for the configured shard count and
// recovers every shard. One shard uses the directory flat (the unsharded
// layout); N > 1 uses shard-<i>/ subdirectories. A directory whose layout
// disagrees with the configuration — flat files under a sharded config,
// shard subdirectories under an unsharded one, or more shard directories
// than configured — refuses to start: recovering a shard's history under a
// different partition would silently re-decide admissions.
func (s *Server) openDurable() error {
	dir := s.cfg.WALDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: wal dir: %w", err)
	}
	stray, err := strayShardDirs(dir, s.cfg.Shards)
	if err != nil {
		return err
	}
	if len(stray) > 0 {
		return fmt.Errorf("serve: wal dir %s holds %s but the daemon is configured for %d shard(s); refusing to recover under a different partition",
			dir, strings.Join(stray, ", "), s.cfg.Shards)
	}
	if s.cfg.Shards == 1 {
		if err := s.shards[0].openDurable(dir); err != nil {
			return err
		}
		s.recovery = mergeRecovery(s.shards)
		return nil
	}
	for _, name := range []string{walFileName, checkpointFileName} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return fmt.Errorf("serve: wal dir %s holds unsharded %s but the daemon is configured for %d shards; refusing to recover under a different partition",
				dir, name, s.cfg.Shards)
		}
	}
	for i := range s.shards {
		if err := os.MkdirAll(filepath.Join(dir, shardDirName(i)), 0o755); err != nil {
			return fmt.Errorf("serve: wal dir: %w", err)
		}
	}
	// Shards share nothing mutable during recovery (each has its own
	// session, scheduler, registries, history and WAL directory), so they
	// recover concurrently.
	err = eachShard(len(s.shards), func(i int) error {
		if err := s.shards[i].openDurable(filepath.Join(dir, shardDirName(i))); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		for _, sh := range s.shards {
			if sh.wal != nil {
				sh.wal.close()
			}
		}
		return err
	}
	for _, sh := range s.shards {
		if ri := sh.recovery; ri != nil {
			s.logger().Info("shard recovered", "shard", sh.idx,
				"jobs", ri.Jobs, "walJobs", ri.WALJobs, "clock", ri.Clock, "tornBytes", ri.TornBytes)
		}
	}
	s.recovery = mergeRecovery(s.shards)
	return nil
}

// eachShard runs fn(0) … fn(n-1) on at most GOMAXPROCS goroutines, waits
// for all of them, and returns the error of the lowest i that failed (nil
// when none did): the one fan-out of recovery and sharded replay. Each fn
// holds one shard's file buffers and decoded history, so the cap keeps peak
// memory to the shards that can run at once. fn wraps its own error, so the
// caller gets the same text whichever shard finishes first.
func eachShard(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(n, runtime.GOMAXPROCS(0)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// shardDirName is the per-shard subdirectory under a sharded WAL directory.
func shardDirName(i int) string { return "shard-" + strconv.Itoa(i) }

// strayShardDirs lists shard-<i> subdirectories of dir that the configured
// shard count does not cover (all of them when shards == 1).
func strayShardDirs(dir string, shards int) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: wal dir: %w", err)
	}
	var stray []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		rest, ok := strings.CutPrefix(e.Name(), "shard-")
		if !ok {
			continue
		}
		idx, err := strconv.Atoi(rest)
		if err != nil {
			continue
		}
		if shards == 1 || idx >= shards {
			stray = append(stray, e.Name())
		}
	}
	return stray, nil
}

// mergeRecovery aggregates the per-shard recovery reports for the daemon
// banner and the /v1/stats aggregate; nil when no shard recovered anything.
func mergeRecovery(shards []*shard) *RecoveryInfo {
	var out *RecoveryInfo
	for _, sh := range shards {
		ri := sh.recovery
		if ri == nil {
			continue
		}
		if out == nil {
			out = &RecoveryInfo{Recovered: true}
		}
		out.CheckpointJobs += ri.CheckpointJobs
		out.WALJobs += ri.WALJobs
		out.TornBytes += ri.TornBytes
		out.Jobs += ri.Jobs
		out.CheckpointClock = max(out.CheckpointClock, ri.CheckpointClock)
		out.Clock = max(out.Clock, ri.Clock)
	}
	return out
}

// Scheduler returns the serving scheduler's name.
func (s *Server) Scheduler() string { return s.shards[0].sched.Name() }

// Shards returns the shard count.
func (s *Server) Shards() int { return len(s.shards) }

// Draining reports whether the server has stopped accepting jobs.
func (s *Server) Draining() bool { return s.draining.Load() }

// Ready reports whether the server is accepting work: recovery has finished,
// no drain has started, and durability is intact on every shard. /readyz
// mirrors it.
func (s *Server) Ready() bool {
	return s.ready.Load() && !s.draining.Load() &&
		s.degraded.Load() == nil && s.engineError() == ""
}

// Degraded returns the first durability failure ("" when healthy): a WAL or
// checkpoint write some shard could not make durable. A degraded daemon
// rejects new submissions on every shard — routing around one shard's broken
// commitment would hide it — but keeps serving reads and can still drain.
func (s *Server) Degraded() string {
	if p := s.degraded.Load(); p != nil {
		return *p
	}
	return ""
}

// degrade records the first durability failure at the server level; called
// from shard engine goroutines. The log record always carries the shard
// index, so an operator can tell which shard-<i>/ directory is sick even on
// a single-shard daemon (whose degraded message keeps its unprefixed form).
func (s *Server) degrade(shardIdx int, op string, err error) {
	msg := op + ": " + err.Error()
	if len(s.shards) > 1 {
		msg = fmt.Sprintf("shard %d: %s", shardIdx, msg)
	}
	s.logger().Error("durability degraded", "shard", shardIdx, "op", op, "err", err)
	s.degraded.CompareAndSwap(nil, &msg)
}

// engineError returns the first shard's terminal engine error ("" when none).
func (s *Server) engineError() string {
	for _, sh := range s.shards {
		if ep := sh.engineErr.Load(); ep != nil {
			return *ep
		}
	}
	return ""
}

// Recovery describes the durable state this daemon recovered at start,
// aggregated across shards; nil on a fresh start or without a WAL directory.
// Per-shard reports are in /v1/stats.
func (s *Server) Recovery() *RecoveryInfo { return s.recovery }

// Checkpoint forces an engine-state checkpoint on every shard through its
// mailbox, all shards at once, and returns the failure of the lowest-index
// shard that failed. It errors when the server has no WAL directory, is
// degraded, or has drained. Deterministic-time embeddings and tests use it;
// a live daemon checkpoints on its own cadence (Config.CheckpointInterval).
func (s *Server) Checkpoint() error {
	if s.cfg.WALDir == "" {
		return fmt.Errorf("serve: no WAL directory configured")
	}
	// Post to every mailbox before waiting on any reply, so each shard
	// checkpoints on its own engine goroutine while the others do.
	replies := make([]chan error, len(s.shards))
	for i, sh := range s.shards {
		replies[i] = make(chan error, 1)
		select {
		case sh.reqs <- checkpointMsg{reply: replies[i]}:
		case <-sh.engineDone:
			replies[i] <- errCheckpointDrained
		}
	}
	var first error
	for i, sh := range s.shards {
		var err error
		select {
		case err = <-replies[i]:
		case <-sh.engineDone:
			select {
			case err = <-replies[i]:
			default:
				err = errCheckpointDrained
			}
		}
		if first == nil {
			first = err
		}
	}
	return first
}

var errCheckpointDrained = errors.New("serve: checkpoint after drain")

// Drain stops admission, fast-forwards every shard until its committed jobs
// have completed or expired, seals the shards, and returns the merged final
// Result. Simulated time is decoupled from wall time here: committed jobs
// finish at their simulated ticks immediately rather than in real time.
//
// The drain is two-phase so a signal mid-drain can never interleave a late
// submission into a finalized log. Phase 1 quiesces: every shard acknowledges
// that it has stopped committing (submissions already in its mailbox are
// behind the quiesce message and get 503). Only after every shard has
// quiesced does phase 2 finalize each shard — run to end, seal the WAL,
// return its Result. Between the phases shards keep serving reads.
//
// Drain is idempotent and safe from any goroutine; later calls return the
// same Result.
func (s *Server) Drain() *sim.Result {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		s.logger().Info("drain started", "shards", len(s.shards))
		t0 := time.Now()
		quiesced := make([]chan struct{}, len(s.shards))
		for i, sh := range s.shards {
			quiesced[i] = make(chan struct{})
			sh.reqs <- quiesceMsg{reply: quiesced[i]}
		}
		for _, c := range quiesced {
			<-c
		}
		t1 := time.Now()
		s.metrics.observe("serve.drain.quiesce_us", float64(t1.Sub(t0).Microseconds()))
		finals := make([]chan *sim.Result, len(s.shards))
		for i, sh := range s.shards {
			finals[i] = make(chan *sim.Result, 1)
			sh.reqs <- finalizeMsg{reply: finals[i]}
		}
		results := make([]*sim.Result, len(s.shards))
		for i := range finals {
			results[i] = <-finals[i]
		}
		s.result = mergeResults(results)
		s.metrics.observe("serve.drain.finalize_us", float64(time.Since(t1).Microseconds()))
		s.logger().Info("drain finished",
			"completed", s.result.Completed, "expired", s.result.Expired,
			"profit", s.result.TotalProfit, "ticks", s.result.Ticks)
	})
	return s.result
}

// Advance drives every shard's session clock to the given tick through its
// engine mailbox, returning once all shards have processed it. It exists for
// deterministic-time embeddings and tests running with the ticker disabled
// (TickInterval < 0); with a live ticker the wall clock usually outruns it
// and the call degenerates to a no-op. Advancing a drained server is a no-op.
func (s *Server) Advance(to int64) {
	for _, sh := range s.shards {
		msg := advanceMsg{to: to, reply: make(chan struct{})}
		select {
		case sh.reqs <- msg:
		case <-sh.engineDone:
			continue
		}
		select {
		case <-msg.reply:
		case <-sh.engineDone:
		}
	}
}

// Messages between HTTP handlers and the shard engine goroutines.

type submitMsg struct {
	spec  JobSpec
	key   string       // idempotency key; "" means none
	tr    *submitTrace // request-scoped trace; nil disables per-request stamps
	reply chan submitReply
}

// submitTrace threads one submission's request-scoped observability through
// the mailbox: the request ID, whether durable records should carry it
// (client-supplied), and the per-stage timestamps. The HTTP handler stamps
// enqueued before the mailbox send; the engine stamps the rest before the
// reply; the handler reads them after receiving it — the reply channel
// orders every access, so no lock is needed.
type submitTrace struct {
	reqID       string
	persist     bool // client-supplied X-Request-Id: record in the WAL
	enqueued    time.Time
	dequeued    time.Time
	walAppended time.Time
	committed   time.Time
}

type submitReply struct {
	status int // HTTP status
	resp   JobResponse
	err    string
	reason string // machine-readable error class for the unified envelope
}

// batchItem is one spec of a batched submission, carrying its position in
// the client's batch so per-item verdicts come back in order.
type batchItem struct {
	spec JobSpec
	key  string // per-item idempotency key; "" means none
	idx  int    // position in the client's batch
}

// batchMsg carries one placer group — every item of a batch routed to the
// same shard, in batch order — over a single mailbox crossing. The engine
// commits the group under one WAL fsync window and replies with per-item
// verdicts aligned to items.
type batchMsg struct {
	items []batchItem
	tr    *submitTrace // group-level trace; nil disables stamps
	reply chan batchReply
}

type batchReply struct {
	replies []submitReply // aligned to batchMsg.items
}

type lookupMsg struct {
	id    int
	reply chan lookupReply
}

type lookupReply struct {
	found bool
	resp  StatusResponse
}

type statsMsg struct {
	reply chan shardStatsReply
}

type shardStatsReply struct {
	stats   ShardStats
	summary telemetry.Summary
	obs     *telemetry.Registry // clone of the shard's obsReg; nil when disabled
}

type advanceMsg struct {
	to    int64
	reply chan struct{}
}

type checkpointMsg struct {
	reply chan error
}

// quiesceMsg is the drain's first phase: the shard stops committing
// submissions and acknowledges by closing reply.
type quiesceMsg struct {
	reply chan struct{}
}

// finalizeMsg is the drain's second phase: the shard runs to end, seals its
// durable state, replies with its Result, and exits its engine loop.
type finalizeMsg struct {
	reply chan *sim.Result
}

// decideAdmission runs the serving admission query for a prospective job:
// the verdict string, the scheduler's reason, and the virtualization plan.
// Schedulers without an admission test accept every valid job. Shared by the
// submission path and crash recovery, which re-derives every logged verdict.
// policy is the daemon-wide commitment level; under an effective on-arrival
// commitment a job the scheduler would park is rejected instead — the
// release-time verdict is final, so there is no "maybe later".
func decideAdmission(adm admitter, j *sim.Job, policy sim.Commitment) (DecisionString, string, *PlanInfo) {
	if adm == nil {
		return DecisionAccepted, "", nil
	}
	view := sim.JobView{ID: j.ID, Release: j.Release, W: j.Graph.TotalWork(), L: j.Graph.Span(), Profit: j.Profit, Commitment: j.Commitment}
	d := adm.Admission(view)
	plan := &PlanInfo{Alloc: d.Plan.Alloc, X: d.Plan.X, Density: d.Plan.Density, Good: d.Plan.Good}
	switch {
	case d.Admit:
		return DecisionAdmitted, "", plan
	case d.Reason == "not-delta-good":
		// The job can never pass the freshness test either: it is infeasible
		// for S at any later point, so it is not committed (and not logged —
		// the WAL holds accepted arrivals).
		return DecisionRejected, d.Reason, plan
	case j.Commitment.Resolve(policy) == sim.CommitmentOnArrival:
		// Would be parked, but the arrival verdict must be final: reject
		// without committing the job to the session.
		return DecisionRejected, d.Reason, plan
	default:
		// Parked in P: committed, and eligible for admission when a
		// completion or recovery frees band capacity.
		return DecisionParked, d.Reason, plan
	}
}
