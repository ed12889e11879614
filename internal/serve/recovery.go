package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"dagsched/internal/cliflags"
	"dagsched/internal/fastjson"
	"dagsched/internal/rational"
	"dagsched/internal/sim"
	"dagsched/internal/telemetry"
	"dagsched/internal/workload"
)

// Recovery rebuilds the pre-crash engine from the checkpoint plus the WAL
// suffix. The engine is deterministic — its state is a pure function of the
// accepted arrivals, their clocks, and how far the session advanced — so the
// checkpoint stores that closure (the job history in wire form, the clock,
// the idempotency table, the serving telemetry summary) together with the
// session's Fingerprint at the checkpointed clock. Recovery re-feeds the
// history through a fresh sim.Session exactly as the serving loop did,
// re-asserting every logged admission verdict along the way, and then checks
// the recomputed fingerprint against the stored one: a mismatch means the
// recovered state is not bit-identical to the pre-crash engine and the
// daemon refuses to start rather than break an acknowledged commitment.

// ReplayHeader is the first record of every WAL and the header of every
// checkpoint: everything needed to reconstruct the serving configuration
// offline. Speed is the rational in its "p/q" (or bare "p") string form,
// which ParseSpeed round-trips. Shards is the shard count, absent for the
// unsharded layout; in a shard's header Shard is its 0-based index and M
// its capacity slice.
type ReplayHeader struct {
	Type   string  `json:"type"` // always "header"
	M      int     `json:"m"`
	Sched  string  `json:"sched"`
	Eps    float64 `json:"eps"`
	Speed  string  `json:"speed"`
	Shards int     `json:"shards,omitempty"`
	Shard  int     `json:"shard,omitempty"`
	// Commitment is the daemon-wide commitment policy, present only when it
	// is binding (delta or on-arrival). The non-binding policies do not
	// change admission or the schedule, so they stay off the header and old
	// durable directories replay unchanged.
	Commitment string `json:"commitment,omitempty"`
}

// WALJob is the WAL record of one accepted submission: the instance-wire job
// plus the acknowledged response. Decision and commitment live inside Resp;
// recovery re-derives the decision and refuses to start on a mismatch.
// ReqID carries the client's X-Request-Id so the durable record is joinable
// with client-side traces; it is recorded only when the client supplied one
// (a server-generated ID is ephemeral), which keeps the WAL bytes of
// header-less traffic identical to the pre-observability format.
type WALJob struct {
	Type  string          `json:"type"` // always "job"
	Key   string          `json:"key,omitempty"`
	ReqID string          `json:"reqId,omitempty"`
	Resp  JobResponse     `json:"resp"`
	Job   json.RawMessage `json:"job"`

	// jobPlain records that Job is known to pass fastjson.RawPlain, so
	// appendWALJob need not scan it again. Set only by the submit path
	// (scalarEntry.plainWire); never encoded.
	jobPlain bool
	// raw is the record as it was read — the whole WAL payload, or its
	// span of a checkpoint's jobs array — when those bytes are exactly what
	// the WAL encoder writes for it (adopt); nil otherwise. Set only by
	// recovery: a checkpoint copies such bytes as they are.
	raw []byte
}

// WALReject is the WAL record of a keyed rejected submission. Nothing was
// committed to the session, but the verdict is durable so a client retry
// after a crash collapses onto it instead of re-opening the decision.
type WALReject struct {
	Type  string      `json:"type"` // always "reject"
	Key   string      `json:"key"`
	ReqID string      `json:"reqId,omitempty"`
	Resp  JobResponse `json:"resp"`
}

// StoredResponse is one idempotency-table entry: the exact outcome the
// original submission was acknowledged with.
type StoredResponse struct {
	Status int         `json:"status"`
	Resp   JobResponse `json:"resp"`
}

// Checkpoint is the durable snapshot of the serving engine at one clock: the
// deterministic closure of its state plus the fingerprint that pins it.
type Checkpoint struct {
	Type        string                    `json:"type"` // always "checkpoint"
	Header      ReplayHeader              `json:"header"`
	Clock       int64                     `json:"clock"`
	NextID      int                       `json:"nextId"`
	Jobs        []WALJob                  `json:"jobs,omitempty"`
	Idem        map[string]StoredResponse `json:"idem,omitempty"`
	Summary     telemetry.Summary         `json:"summary"`
	Fingerprint uint64                    `json:"fingerprint"`
	Checkpoints int64                     `json:"checkpoints"` // lifetime count, monotone across restarts
}

// RecoveryInfo summarizes what a daemon start found on disk; surfaced in
// /v1/stats and the spaa-serve startup banner.
type RecoveryInfo struct {
	Recovered       bool  `json:"recovered"` // prior durable state existed
	CheckpointClock int64 `json:"checkpointClock"`
	CheckpointJobs  int   `json:"checkpointJobs"`
	WALJobs         int   `json:"walJobs"` // post-checkpoint job records replayed
	TornBytes       int64 `json:"tornBytes"`
	Jobs            int   `json:"jobs"`  // accepted jobs restored in total
	Clock           int64 `json:"clock"` // session clock after replay
}

// recoveredState is the merged durable history: checkpoint prefix plus WAL
// suffix, deduplicated and ready to replay.
type recoveredState struct {
	header         ReplayHeader
	jobs           []WALJob
	idem           map[string]StoredResponse
	summary        telemetry.Summary
	checkpointJobs int // jobs[:checkpointJobs] are covered by the checkpoint
	checkpointClk  int64
	checkpointFP   uint64
	hasCheckpoint  bool
	clock          int64 // replay target: max(checkpoint clock, last release)
	nextID         int
	checkpoints    int64
	tornBytes      int64
	suffixRejects  int // keyed rejects in the WAL suffix (counter restore)
	// walRecords[k] is the WAL record number of jobs[checkpointJobs+k], for
	// the error that names a malformed one.
	walRecords []int
	// walHeader: the WAL begins with its header record, as a checkpoint's
	// reset leaves it.
	walHeader bool
	// sealed: the directory is what a start-up checkpoint would leave — a
	// checkpoint and an intact WAL holding only its header record — so
	// nothing was replayed from the WAL and a start need not rewrite it.
	sealed bool
	// ckpt locates the history in the checkpoint file, and verbatim says
	// the directory is what a running shard leaves: a checkpoint whose jobs
	// array is located, a WAL behind its header, and the history on disk
	// exactly as the WAL encoder writes it, with every job record of the
	// WAL in it once. Then the next checkpoint streams the history from
	// the two files as they are (see checkpoint.go).
	ckpt     ckptFile
	verbatim bool
}

// headerOf renders a serving config as the durable header record: the
// daemon-level view (total M; Shards only when the session is sharded, so an
// unsharded header keeps its historical bytes).
func headerOf(cfg Config) ReplayHeader {
	speed := cfg.Speed
	if speed.Num == 0 {
		speed = rational.FromInt(1) // the zero value means speed 1
	}
	h := ReplayHeader{Type: "header", M: cfg.M, Sched: cfg.Sched, Eps: cfg.Eps, Speed: speed.String()}
	if cfg.Shards > 1 {
		h.Shards = cfg.Shards
	}
	// Only a binding policy changes admission, so only a binding policy is
	// pinned in the durable header; the default keeps its historical bytes.
	if lvl, err := sim.ParseCommitment(cfg.Commitment); err == nil && lvl.Binding() {
		h.Commitment = cfg.Commitment
	}
	return h
}

// shardHeaderOf renders the durable header one shard writes: the shard's
// capacity slice and 0-based index under a sharded config, plain headerOf
// otherwise. The header pins the partition — recovering a shard under a
// different shard count or slice fails checkHeader.
func shardHeaderOf(cfg Config, idx, mi int) ReplayHeader {
	h := headerOf(cfg)
	if cfg.Shards > 1 {
		h.M = mi
		h.Shard = idx
	}
	return h
}

// configFromHeader inverts headerOf: the serving configuration a durable
// header was written under.
func configFromHeader(h ReplayHeader) (Config, error) {
	speed, err := cliflags.ParseSpeed(h.Speed)
	if err != nil {
		return Config{}, err
	}
	return Config{M: h.M, Sched: h.Sched, Eps: h.Eps, Speed: speed, Shards: h.Shards, Commitment: h.Commitment}, nil
}

// checkHeader rejects durable state written under a different serving
// configuration: replaying it under the wrong scheduler or machine would
// silently re-decide every admission.
func checkHeader(h, want ReplayHeader, src string) error {
	if h != want {
		return fmt.Errorf("serve: %s written by config %+v, daemon configured %+v; refusing to recover", src, h, want)
	}
	return nil
}

// loadState reads dir's checkpoint and WAL, truncating a torn WAL tail, and
// merges them into the durable history. A directory with neither file is a
// fresh start (nil state). want is the header the durable records must carry
// (a per-shard header under a sharded layout); baseID seeds the ID watermark
// one stride below the owner's first assignable ID, so the checkpoint-vs-WAL
// dedup works on any stripe (0 for the unsharded daemon).
//
// Every record is scanned once. The job members of the records it keeps are
// delimited here and validated as eachJob decodes them; the job member of a
// record it skips is validated here.
func loadState(dir string, want ReplayHeader, baseID int) (*recoveredState, error) {
	rs := newRecoveredState(baseID)
	cpData, err := os.ReadFile(filepath.Join(dir, checkpointFileName))
	switch {
	case os.IsNotExist(err):
		// No checkpoint yet.
	case err != nil:
		return nil, err
	default:
		if err := rs.readCheckpoint(cpData, want); err != nil {
			return nil, err
		}
	}
	payloads, torn, err := scanWAL(filepath.Join(dir, walFileName))
	if err != nil {
		return nil, fmt.Errorf("serve: wal: %w", err)
	}
	rs.tornBytes = torn
	walVerbatim, err := rs.readWAL(payloads, want)
	if err != nil {
		return nil, err
	}
	if !rs.hasCheckpoint && len(payloads) == 0 {
		return nil, nil // nothing durable yet: fresh start
	}
	rs.sealed = rs.hasCheckpoint && rs.walHeader && torn == 0 && len(payloads) == 1
	rs.verbatim = rs.verbatim && rs.walHeader && walVerbatim
	for _, wj := range rs.jobs[rs.checkpointJobs:] {
		if wj.Resp.Release > rs.clock {
			rs.clock = wj.Resp.Release
		}
	}
	return rs, nil
}

func newRecoveredState(baseID int) *recoveredState {
	return &recoveredState{idem: make(map[string]StoredResponse), nextID: baseID}
}

// readCheckpoint decodes a checkpoint file's contents into the history's
// prefix, and says whether a checkpoint can copy its jobs array as it is.
func (rs *recoveredState) readCheckpoint(data []byte, want ReplayHeader) error {
	size := len(data)
	nl := size > 0 && data[size-1] == '\n'
	if nl {
		data = data[:size-1]
	}
	payload, err := parseFrame(data)
	if err != nil {
		return fmt.Errorf("serve: checkpoint corrupt: %w", err)
	}
	var cp Checkpoint
	body, err := decodeCheckpoint(payload, &cp)
	if err != nil {
		return fmt.Errorf("serve: checkpoint: %w", err)
	}
	if cp.Type != "checkpoint" {
		return fmt.Errorf("serve: checkpoint file holds type %q", cp.Type)
	}
	if err := checkHeader(cp.Header, want, "checkpoint"); err != nil {
		return err
	}
	rs.hasCheckpoint = true
	rs.header = cp.Header
	rs.jobs = cp.Jobs
	rs.checkpointJobs = len(cp.Jobs)
	rs.checkpointClk = cp.Clock
	rs.checkpointFP = cp.Fingerprint
	rs.clock = cp.Clock
	rs.nextID = cp.NextID
	rs.summary = cp.Summary
	rs.checkpoints = cp.Checkpoints
	for k, v := range cp.Idem {
		rs.idem[k] = v
	}
	const prefix = 9 // the frame's "crc32c-hex8 "
	rs.ckpt = ckptFile{size: int64(size), start: int64(prefix + body.start), end: int64(prefix + body.end), n: len(cp.Jobs)}
	rs.verbatim = nl && body.known && !slices.ContainsFunc(cp.Jobs, func(wj WALJob) bool { return wj.raw == nil })
	return nil
}

// readWAL merges the WAL's record payloads behind the checkpoint: job
// records it does not cover join the history, keyed verdicts the
// idempotency table. It reports whether a checkpoint can copy the WAL's job
// records as they are: each one the copy would take (jobPrefix) is a record
// the history holds, as the WAL encoder writes it.
func (rs *recoveredState) readWAL(payloads [][]byte, want ReplayHeader) (verbatim bool, err error) {
	rs.jobs = slices.Grow(rs.jobs, len(payloads))
	verbatim = true
	for n, payload := range payloads {
		// Every record decodes as a WALJob: job records, nearly every line,
		// through the fast decoder; a reject record carries the same key,
		// reqId and resp fields; the header is re-read as a ReplayHeader.
		var wj WALJob
		if err := decodeWALJob(payload, &wj); err != nil {
			return false, fmt.Errorf("serve: wal record %d: %w", n+1, err)
		}
		if wj.Type == "job" && wj.Resp.ID > rs.nextID {
			verbatim = verbatim && wj.raw != nil
			rs.jobs = append(rs.jobs, wj)
			rs.walRecords = append(rs.walRecords, n+1)
			rs.nextID = wj.Resp.ID
			if wj.Key != "" {
				rs.idem[wj.Key] = StoredResponse{Status: 200, Resp: wj.Resp}
			}
			continue
		}
		// Not replayed, so nothing else will validate its job member.
		if len(wj.Job) > 0 && !json.Valid(wj.Job) {
			return false, fmt.Errorf("serve: wal record %d: %w", n+1, json.Unmarshal(payload, new(WALJob)))
		}
		// A record the copy would take for a job the history does not hold:
		// one the checkpoint covers (crash between rename and reset).
		verbatim = verbatim && !bytes.HasPrefix(payload, jobPrefix)
		switch wj.Type {
		case "header":
			var h ReplayHeader
			if err := json.Unmarshal(payload, &h); err != nil {
				return false, fmt.Errorf("serve: wal header: %w", err)
			}
			if err := checkHeader(h, want, "wal"); err != nil {
				return false, err
			}
			if n == 0 {
				rs.walHeader = true
			}
		case "job":
			// Covered by the checkpoint (crash between rename and reset).
		case "reject":
			if _, ok := rs.idem[wj.Key]; ok {
				continue // covered by the checkpoint
			}
			rs.idem[wj.Key] = StoredResponse{Status: 200, Resp: wj.Resp}
			rs.suffixRejects++
		default:
			return false, fmt.Errorf("serve: wal record %d has unknown type %q", n+1, wj.Type)
		}
	}
	return verbatim, nil
}

// replayInto re-feeds the durable history through a fresh session exactly as
// the serving loop did: advance the clock to each arrival's release, re-run
// the admission query, commit. Every re-derived verdict must match the
// acknowledged one — an admitted job that would no longer be admitted is a
// broken commitment and aborts recovery — and at the checkpoint boundary the
// recomputed session fingerprint must equal the stored one bit for bit.
func (rs *recoveredState) replayInto(sess *sim.Session, adm admitter, reg *telemetry.Registry, policy sim.Commitment) error {
	restoreSummary(reg, rs.summary)
	err := rs.eachJob(func(n int, wj *WALJob, job *sim.Job) error {
		if n == rs.checkpointJobs && rs.hasCheckpoint {
			if err := rs.checkBoundary(sess); err != nil {
				return err
			}
		}
		if err := sess.AdvanceTo(job.Release); err != nil {
			return fmt.Errorf("serve: recovery replay: %w", err)
		}
		decision, reason, _ := decideAdmission(adm, job, policy)
		if decision != wj.Resp.Decision {
			return fmt.Errorf(
				"serve: recovery: job %d was acknowledged %q but replay decides %q (reason %q) — commitment violated, refusing to start",
				job.ID, wj.Resp.Decision, decision, reason)
		}
		if want := commitmentString(job.Commitment.Resolve(policy), true); wj.Resp.Commitment != want {
			return fmt.Errorf(
				"serve: recovery: job %d was acknowledged with commitment %q but replay derives %q — commitment violated, refusing to start",
				job.ID, wj.Resp.Commitment, want)
		}
		if err := sess.Arrive(job); err != nil {
			return fmt.Errorf("serve: recovery job %d: %w", job.ID, err)
		}
		if n >= rs.checkpointJobs {
			reg.Inc("serve.accepted", 1)
			reg.Inc("serve."+string(decision), 1)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(rs.jobs) == rs.checkpointJobs && rs.hasCheckpoint {
		if err := rs.checkBoundary(sess); err != nil {
			return err
		}
	}
	if err := sess.AdvanceTo(rs.clock); err != nil {
		return fmt.Errorf("serve: recovery replay: %w", err)
	}
	reg.Inc("serve.rejected", int64(rs.suffixRejects))
	return nil
}

// eachJob decodes the durable history in order through one jobDecoder and
// hands each record with its job to fn: the one replay decode path, shared
// by crash recovery and ReplayDir. Jobs are decoded as they are replayed,
// so a finished job's graph is garbage before the history ends. The decode
// is also what validates each record's job member (see loadState).
func (rs *recoveredState) eachJob(fn func(n int, wj *WALJob, job *sim.Job) error) error {
	var dec jobDecoder
	for n := range rs.jobs {
		job, err := dec.decode(rs.jobs[n].Job)
		if err != nil {
			return rs.jobError(n, err)
		}
		if err := fn(n, &rs.jobs[n], job); err != nil {
			return err
		}
	}
	return nil
}

// jobError is the error for job n of the history, which did not decode. A
// job member that is not JSON at all makes its record malformed: the error
// names the checkpoint or the WAL record and carries encoding/json's error,
// as a whole-record json.Unmarshal reports it (the job member is the only
// part of the record left unvalidated, and SkipStructure delimited it
// exactly). Anything else — a missing job member too — is the job's own
// error. A history with several faults may name a
// different one first than a decoder that validated every record before
// replaying any.
func (rs *recoveredState) jobError(n int, err error) error {
	if raw := rs.jobs[n].Job; len(raw) > 0 && !json.Valid(raw) {
		jerr := json.Unmarshal(raw, new(json.RawMessage))
		if n < rs.checkpointJobs {
			return fmt.Errorf("serve: checkpoint: %w", jerr)
		}
		return fmt.Errorf("serve: wal record %d: %w", rs.walRecords[n-rs.checkpointJobs], jerr)
	}
	return fmt.Errorf("serve: recovery job %d: %w", n+1, err)
}

// checkBoundary advances to the checkpointed clock and asserts the replayed
// session reached the exact state the checkpoint fingerprinted.
func (rs *recoveredState) checkBoundary(sess *sim.Session) error {
	if err := sess.AdvanceTo(rs.checkpointClk); err != nil {
		return fmt.Errorf("serve: recovery replay: %w", err)
	}
	if fp := sess.Fingerprint(); fp != rs.checkpointFP {
		return fmt.Errorf(
			"serve: recovery: state fingerprint %016x at clock %d diverges from checkpoint %016x — refusing to start",
			fp, rs.checkpointClk, rs.checkpointFP)
	}
	return nil
}

// restoreSummary folds a checkpointed telemetry summary back into a fresh
// serving registry so counters survive restarts.
func restoreSummary(reg *telemetry.Registry, s telemetry.Summary) {
	for name, v := range s.Counters {
		reg.Inc(name, v)
	}
	for name, v := range s.Gauges {
		reg.SetGauge(name, v)
	}
}

// info renders the recovered state for /v1/stats and the startup banner.
func (rs *recoveredState) info() *RecoveryInfo {
	return &RecoveryInfo{
		Recovered:       true,
		CheckpointClock: rs.checkpointClk,
		CheckpointJobs:  rs.checkpointJobs,
		WALJobs:         len(rs.jobs) - rs.checkpointJobs,
		TornBytes:       rs.tornBytes,
		Jobs:            len(rs.jobs),
		Clock:           rs.clock,
	}
}

// ReplayDir re-simulates a WAL directory offline — checkpoint plus log
// suffix, exactly the history a recovering daemon replays — with the batch
// engine and returns the Result. A sharded directory (shard-<i>/ subdirs) is
// replayed shard by shard over the same capacity partition and merged.
// Because each shard stamps releases from its own clock and assigns
// ascending IDs on its stripe under its lock, the batch run
// over each shard's history reproduces that shard's Result bit-identically,
// so ReplayDir of a drained directory equals the drained Result (modulo the
// Result.Engine label, which names the engine that executed). The chaos
// harness uses it to compare a crash-recover-drain lifecycle against a
// crash-free run over the same history.
func ReplayDir(dir string) (*sim.Result, error) {
	if fi, err := os.Stat(filepath.Join(dir, shardDirName(0))); err == nil && fi.IsDir() {
		return replayShardedDir(dir)
	}
	res, err := replayOneDir(dir, 1 /* stride */, 0 /* idx */)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// replayShardedDir replays every shard-<i>/ of a sharded WAL directory,
// through eachShard's bounded fan-out, and merges the Results. The shard
// count comes from the first shard's durable header; every declared shard
// must have its subdirectory, which is checked before anything is sized by
// the count.
func replayShardedDir(dir string) (*sim.Result, error) {
	hdr0, err := readAnyHeader(filepath.Join(dir, shardDirName(0)))
	if err != nil {
		return nil, err
	}
	n := hdr0.Shards
	if n < 2 {
		return nil, fmt.Errorf("serve: %s: shard-0 header declares %d shards", dir, n)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	present := make(map[int]bool, len(entries))
	for _, e := range entries {
		if i, err := strconv.Atoi(strings.TrimPrefix(e.Name(), "shard-")); err == nil && e.IsDir() && e.Name() == shardDirName(i) {
			present[i] = true
		}
	}
	for i := 0; i < n; i++ { // stops at the first missing shard: within len(entries)+1 steps
		if !present[i] {
			return nil, fmt.Errorf("serve: replay shard %d: %s holds no %s", i, dir, shardDirName(i))
		}
	}
	results := make([]*sim.Result, n)
	err = eachShard(n, func(i int) error {
		var err error
		if results[i], err = replayOneDir(filepath.Join(dir, shardDirName(i)), n, i); err != nil {
			return fmt.Errorf("serve: replay shard %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mergeResults(results), nil
}

// replayOneDir replays one durable directory (the unsharded layout, or one
// shard's subdirectory) with the batch engine.
func replayOneDir(dir string, stride, idx int) (*sim.Result, error) {
	hdr, err := readAnyHeader(dir)
	if err != nil {
		return nil, err
	}
	if stride > 1 && (hdr.Shards != stride || hdr.Shard != idx) {
		return nil, fmt.Errorf("serve: header declares shard %d of %d, expected %d of %d",
			hdr.Shard, hdr.Shards, idx, stride)
	}
	speed, err := cliflags.ParseSpeed(hdr.Speed)
	if err != nil {
		return nil, err
	}
	rs, err := loadState(dir, hdr, idx+1-stride)
	if err != nil {
		return nil, err
	}
	if rs == nil {
		return nil, fmt.Errorf("serve: %s holds no durable state", dir)
	}
	jobs := make([]*sim.Job, 0, len(rs.jobs))
	if err := rs.eachJob(func(_ int, _ *WALJob, j *sim.Job) error {
		jobs = append(jobs, j)
		return nil
	}); err != nil {
		return nil, err
	}
	sched, err := cliflags.MakeScheduler(hdr.Sched, hdr.Eps, false)
	if err != nil {
		return nil, err
	}
	if err := applyCommitment(sched, hdr.Commitment); err != nil {
		return nil, err
	}
	return sim.RunAuto(sim.Config{M: hdr.M, Speed: speed}, jobs, sched)
}

// mergeResults folds per-shard Results into the daemon-level aggregate.
// Additive fields sum; Ticks is the latest shard's end; Jobs concatenate
// sorted by ID (globally unique across the stripes). Deterministic for a
// given result slice, and used identically by the drain path and ReplayDir,
// so a drained Result and its offline replay compare bit-exact. A single
// result passes through untouched.
func mergeResults(rs []*sim.Result) *sim.Result {
	if len(rs) == 1 {
		return rs[0]
	}
	out := &sim.Result{
		Scheduler: rs[0].Scheduler,
		Speed:     rs[0].Speed,
		Engine:    rs[0].Engine,
	}
	for _, r := range rs {
		if r.Engine != out.Engine {
			out.Engine = "sharded"
		}
		out.M += r.M
		out.Ticks = max(out.Ticks, r.Ticks)
		out.TotalProfit += r.TotalProfit
		out.OfferedProfit += r.OfferedProfit
		out.Completed += r.Completed
		out.Expired += r.Expired
		out.BusyProcTicks += r.BusyProcTicks
		out.IdleProcTicks += r.IdleProcTicks
		out.Jobs = append(out.Jobs, r.Jobs...)
	}
	slices.SortFunc(out.Jobs, func(a, b sim.JobStat) int { return a.ID - b.ID })
	return out
}

// readAnyHeader extracts the serving header from the checkpoint or, failing
// that, the WAL's first record. The checkpoint's header is read from the
// file's first bytes without decoding the rest; loadState later verifies
// the whole frame and refuses a header that disagrees with this one.
func readAnyHeader(dir string) (ReplayHeader, error) {
	var zero ReplayHeader
	if f, err := os.Open(filepath.Join(dir, checkpointFileName)); err == nil {
		prefix := make([]byte, 4096)
		n, _ := io.ReadFull(f, prefix)
		f.Close()
		if h, ok := checkpointHeaderPrefix(prefix[:n]); ok {
			return h, nil
		}
		// Off the canonical shape (or a header past the prefix): verify and
		// decode the whole checkpoint.
		data, err := os.ReadFile(filepath.Join(dir, checkpointFileName))
		if err != nil {
			return zero, err
		}
		line := data
		if n := len(line); n > 0 && line[n-1] == '\n' {
			line = line[:n-1]
		}
		payload, err := parseFrame(line)
		if err != nil {
			return zero, fmt.Errorf("serve: checkpoint corrupt: %w", err)
		}
		var cp Checkpoint
		if _, err := decodeCheckpoint(payload, &cp); err != nil {
			return zero, err
		}
		return cp.Header, nil
	}
	payloads, _, err := scanWAL(filepath.Join(dir, walFileName))
	if err != nil {
		return zero, err
	}
	if len(payloads) == 0 {
		return zero, fmt.Errorf("serve: %s holds no durable state", dir)
	}
	var h ReplayHeader
	if err := json.Unmarshal(payloads[0], &h); err != nil {
		return zero, err
	}
	if h.Type != "header" {
		return zero, fmt.Errorf("serve: wal starts with type %q, want header", h.Type)
	}
	return h, nil
}

// jobDecoder decodes the instance-wire job records of a recovered history
// for replay, interning job shapes. Every record the server writes is
// `{"id":N,"release":R` plus a tail, and equal scalar specs write the same
// tail byte for byte (marshalJobWire), so a history of a million jobs holds
// a handful of distinct tails. The first record with a given tail goes
// through workload.UnmarshalJob with its full validation; later records
// with the same tail reuse that job's immutable *dag.DAG and profit.Fn —
// the sharing the live scalar-spec cache already relies on — and differ
// only in ID and release. Only tails internableTail admits (none can
// override the id or release) enter the map, so a hit needs no further
// check; anything else, and any negative release (so the error is
// UnmarshalJob's), decodes on its own. Behind the tails, a job decoded on
// its own shares its graph through a workload.GraphTable: the profit or
// commitment makes far more distinct tails than there are graphs. Both
// maps are bounded like the live cache: past wireCacheMax entries, new
// ones just decode.
type jobDecoder struct {
	shapes map[string]*sim.Job  // tail → first job decoded with it
	graphs *workload.GraphTable // nil until the first decode
}

func (d *jobDecoder) decode(raw []byte) (*sim.Job, error) {
	id, release, tail, ok := fastjson.SplitJobWire(raw)
	ok = ok && release >= 0 && int64(int(id)) == id
	if ok {
		if first, hit := d.shapes[string(tail)]; hit {
			return &sim.Job{ID: int(id), Release: release, Graph: first.Graph, Profit: first.Profit, Commitment: first.Commitment}, nil
		}
	}
	if d.graphs == nil {
		d.graphs = workload.NewGraphTable(wireCacheMax)
	}
	j, err := d.graphs.UnmarshalJob(raw)
	if err != nil || !ok || len(d.shapes) >= wireCacheMax || j.ID != int(id) || j.Release != release || !internableTail(tail) {
		return j, err
	}
	if d.shapes == nil {
		d.shapes = make(map[string]*sim.Job)
	}
	d.shapes[string(tail)] = j
	return j, nil
}
