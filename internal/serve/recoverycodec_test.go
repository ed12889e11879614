package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dagsched/internal/cliflags"
	"dagsched/internal/dag"
	"dagsched/internal/fastjson"
	"dagsched/internal/profit"
	"dagsched/internal/sim"
	"dagsched/internal/telemetry"
	"dagsched/internal/workload"
)

// wireOf renders a job in the instance wire format, failing the test on
// error.
func wireOf(t testing.TB, j *sim.Job) json.RawMessage {
	t.Helper()
	b, err := workload.MarshalJob(j)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// codecJobs returns job wire records covering the shapes recovery meets:
// a scalar step job, structured profits, and per-job commitments.
func codecJobs(t testing.TB) []json.RawMessage {
	t.Helper()
	b := dag.NewBuilder()
	a := b.AddNode(2)
	c := b.AddNode(3)
	b.AddEdge(a, c)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	step, _ := profit.NewStep(10, 40)
	lin, _ := profit.NewLinearDecay(6, 8, 16)
	exp, _ := profit.NewExpDecay(5.5, 2, 7, 30)
	pw, _ := profit.NewPiecewiseConstant([]int64{5, 9}, []float64{3, 1.25})
	return []json.RawMessage{
		wireOf(t, &sim.Job{ID: 1, Release: 0, Graph: g, Profit: step}),
		wireOf(t, &sim.Job{ID: 2, Release: 3, Graph: g, Profit: lin, Commitment: sim.CommitmentDelta}),
		wireOf(t, &sim.Job{ID: 3, Release: 3, Graph: g, Profit: exp, Commitment: sim.CommitmentOnArrival}),
		wireOf(t, &sim.Job{ID: 4, Release: 9, Graph: g, Profit: pw}),
	}
}

// codecCheckpoints returns checkpoints covering every branch of the
// encoder: omitted jobs/idem, keyed records with request IDs, plan floats
// with 16 and 17 significant digits and in exponent form, non-plain strings
// that push a record (or the whole checkpoint) to encoding/json, structured
// profits, and delta/on-arrival commitments.
func codecCheckpoints(t testing.TB) []Checkpoint {
	t.Helper()
	jobs := codecJobs(t)
	hdr := ReplayHeader{Type: "header", M: 8, Sched: "s", Eps: 0.5, Speed: "3/2", Shards: 2, Shard: 1, Commitment: CommitmentDelta}
	plan17 := &PlanInfo{Alloc: 3, X: 0.1 + 0.2, Density: 2.0 / 3, Good: true}            // 17 and 16 digits
	planExp := &PlanInfo{Alloc: 1, X: 1e21, Density: 1.2345678901234567e-7}              // exponent forms
	planMix := &PlanInfo{Alloc: 12, X: 123456789.12345678, Density: 0.07547169811320754} // long mantissas
	recs := []WALJob{
		{Type: "job", Resp: JobResponse{ID: 1, Release: 0, Decision: DecisionAdmitted, Commitment: CommitmentOnAdmission, Plan: plan17}, Job: jobs[0]},
		{Type: "job", Key: "user-7/a", ReqID: "req-0001", Resp: JobResponse{ID: 2, Release: 3, Decision: DecisionParked, Reason: "band-full", Commitment: CommitmentDelta, Plan: planExp}, Job: jobs[1]},
		{Type: "job", Key: "k3", Resp: JobResponse{ID: 3, Release: 3, Decision: DecisionAdmitted, Commitment: CommitmentOnArrival, Plan: planMix}, Job: jobs[2]},
		{Type: "job", ReqID: "r4", Resp: JobResponse{ID: 4, Release: 9, Decision: DecisionAccepted}, Job: jobs[3]},
	}
	fallbacks := []WALJob{
		{Type: "job", Key: `quote"d`, Resp: JobResponse{ID: 5, Release: 9, Decision: DecisionAdmitted}, Job: jobs[0]},
		{Type: "job", Key: "ключ", Resp: JobResponse{ID: 6, Release: 9, Decision: DecisionAdmitted}, Job: jobs[0]},
		{Type: "job", Resp: JobResponse{ID: 7, Release: 9, Decision: DecisionParked, Reason: "a<b&c"}, Job: jobs[0]},
		{Type: "job", Resp: JobResponse{ID: 8, Release: 9, Decision: DecisionAdmitted}, Job: json.RawMessage(`{"id":8, "release":9}`)},
	}
	idem := map[string]StoredResponse{
		"user-7/a": {Status: 200, Resp: recs[1].Resp},
		"rej":      {Status: 200, Resp: JobResponse{Release: 4, Decision: DecisionRejected, Reason: "not-delta-good", Commitment: CommitmentNone, Plan: plan17}},
	}
	summary := telemetry.Summary{
		Counters: map[string]int64{"serve.accepted": 4, "serve.admitted": 2},
		Gauges:   map[string]float64{"serve.queue_depth": 0.5},
		Hists:    map[string]telemetry.HistSummary{"h": {Count: 2, Min: 1, Max: 3, P50: 1, P99: 3}},
	}
	return []Checkpoint{
		{Type: "checkpoint", Header: ReplayHeader{Type: "header", M: 4, Sched: "s", Eps: 1, Speed: "1"}},
		{Type: "checkpoint", Header: hdr, Clock: 12, NextID: 4, Jobs: recs, Idem: idem, Summary: summary, Fingerprint: math.MaxUint64, Checkpoints: 3},
		{Type: "checkpoint", Header: hdr, Clock: 12, NextID: 8, Jobs: append(append([]WALJob(nil), recs...), fallbacks...), Fingerprint: 1 << 63, Checkpoints: 1},
		{Type: "checkpoint", Header: hdr, Jobs: []WALJob{}, Idem: map[string]StoredResponse{}, Summary: summary},
		{Type: "check<point", Header: hdr, Jobs: recs[:1]},
	}
}

// TestAppendCheckpointMatchesMarshal pins the framed line a checkpoint
// writes — head, the history, tail — to json.Marshal byte for byte: the
// on-disk checkpoint is one encoder's output whichever path wrote it. The
// history is encoded from cp.Jobs, as the normalizing checkpoint at start
// encodes it, and streamed from a checkpoint holding a prefix of it and a
// WAL holding the rest, as every later checkpoint streams it.
func TestAppendCheckpointMatchesMarshal(t *testing.T) {
	cps := codecCheckpoints(t)
	// Records longer than the stream's buffers, so every copy crosses them.
	big := cps[1]
	pad := strings.Repeat("x", 2*ckptBufSize+5)
	for k := 1; k <= 2; k++ {
		big.Jobs = append(slices.Clone(big.Jobs), WALJob{Type: "job", Resp: JobResponse{ID: 4 + k, Release: 9, Decision: DecisionAdmitted},
			Job: json.RawMessage(fmt.Sprintf(`{"id":%d,"release":9,"pad":"%s"}`, 4+k, pad))})
	}
	for n, cp := range append(cps, big) {
		want, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		wantLine := frameRecord(want)
		for k := 0; k <= len(cp.Jobs); k++ {
			dir := t.TempDir()
			got, err := streamCheckpoint(dir, cp, k)
			if err != nil {
				t.Fatalf("case %d, %d records checkpointed: %v", n, k, err)
			}
			if !bytes.Equal(got, wantLine) {
				t.Errorf("case %d, %d records checkpointed: streamed\n got %s\nwant %s", n, k, got, wantLine)
			}
		}
	}
}

// streamCheckpoint writes cp into dir as a running shard writes its
// checkpoints and returns the file: cp.Jobs[:k] encoded into a first
// checkpoint, cp.Jobs[k:] appended to the WAL behind its header with a
// keyed reject among them, then cp streamed from the two. It checks that
// each checkpoint locates its jobs array where the file holds it.
func streamCheckpoint(dir string, cp Checkpoint, k int) ([]byte, error) {
	var c ckptStream
	path := filepath.Join(dir, checkpointFileName)
	first := cp
	first.Jobs = nil // write must not read it
	src, err := c.write(dir, &first, k, func(c *ckptStream) error { return c.encodeJobs(cp.Jobs[:k]) })
	if err != nil {
		return nil, err
	}
	if err := checkJobsSpan(path, src, cp.Jobs[:k]); err != nil {
		return nil, err
	}
	w, err := openWAL(dir, FsyncOff, 0)
	if err != nil {
		return nil, err
	}
	defer w.close()
	if err := w.reset(cp.Header); err != nil {
		return nil, err
	}
	for j := k; j < len(cp.Jobs); j++ {
		if j == k+1 {
			if err := w.append(WALReject{Type: "reject", Key: "r", Resp: JobResponse{Decision: DecisionRejected}}); err != nil {
				return nil, err
			}
		}
		if err := w.append(cp.Jobs[j]); err != nil {
			return nil, err
		}
	}
	if err := w.commit(); err != nil {
		return nil, err
	}
	whole := cp
	whole.Jobs = nil
	out, err := c.write(dir, &whole, len(cp.Jobs), func(c *ckptStream) error {
		if err := c.copyCheckpointJobs(path, src); err != nil {
			return err
		}
		return c.copyWALJobs(filepath.Join(dir, walFileName), len(cp.Jobs)-k)
	})
	if err != nil {
		return nil, err
	}
	if err := checkJobsSpan(path, out, cp.Jobs); err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}

// checkJobsSpan reports whether the checkpoint at path holds recs, as
// json.Marshal writes them, where loc says and as many as it says.
func checkJobsSpan(path string, loc ckptFile, recs []WALJob) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var want []byte
	for k := range recs {
		b, err := json.Marshal(recs[k])
		if err != nil {
			return err
		}
		if k > 0 {
			want = append(want, ',')
		}
		want = append(want, b...)
	}
	if loc.size != int64(len(data)) || loc.n != len(recs) || !bytes.Equal(data[loc.start:loc.end], want) {
		return fmt.Errorf("checkpoint located %+v in %d bytes: %q, want %d records %q", loc, len(data), data[loc.start:loc.end], len(recs), want)
	}
	return nil
}

// The record-level decode recovery runs: the record scan (decodeWALJob,
// decodeCheckpoint), which delimits job members without validating them,
// then the job decode (eachJob), which validates them as it decodes. The
// parity tests below hold the two together to refWAL and refCheckpoint, the
// same decode done with encoding/json alone: every record decoded whole by
// json.Unmarshal, then each kept job by workload.UnmarshalJob.

// replayedJobs decodes rs's history as replay does.
func replayedJobs(rs *recoveredState) ([]*sim.Job, error) {
	var jobs []*sim.Job
	err := rs.eachJob(func(_ int, _ *WALJob, j *sim.Job) error {
		jobs = append(jobs, j)
		return nil
	})
	return jobs, err
}

// recovered is everything a decode recovers, in one value the parity tests
// compare whole: the checkpoint it amounts to (Jobs the history's records,
// Idem the idempotency table), the keyed rejects the WAL added, and the
// decoded jobs.
type recovered struct {
	cp      Checkpoint
	rejects int
	jobs    []*sim.Job
}

// recoveredOf is what rs holds after readCheckpoint or readWAL, with jobs
// its decoded history.
func recoveredOf(rs *recoveredState, jobs []*sim.Job) recovered {
	return recovered{
		cp: Checkpoint{
			Type: "checkpoint", Header: rs.header, Clock: rs.checkpointClk, NextID: rs.nextID,
			Jobs: rs.jobs, Idem: rs.idem, Summary: rs.summary,
			Fingerprint: rs.checkpointFP, Checkpoints: rs.checkpoints,
		},
		rejects: rs.suffixRejects,
		jobs:    jobs,
	}
}

// normalized drops adopted bytes and treats empty and absent collections as
// one, for comparing decoded values.
func (r recovered) normalized() recovered {
	r.cp.Jobs = withoutRaw(r.cp.Jobs)
	if len(r.cp.Jobs) == 0 {
		r.cp.Jobs = nil
	}
	if len(r.cp.Idem) == 0 {
		r.cp.Idem = nil
	}
	return r
}

// recoverWAL runs recovery's decode over a WAL's record payloads, keeping
// job records with IDs above baseID.
func recoverWAL(payloads [][]byte, baseID int) (recovered, error) {
	rs := newRecoveredState(baseID)
	if _, err := rs.readWAL(payloads, ReplayHeader{}); err != nil {
		return recovered{}, err
	}
	jobs, err := replayedJobs(rs)
	return recoveredOf(rs, jobs), err
}

// recoverCheckpoint runs recovery's decode over a checkpoint payload written
// under want.
func recoverCheckpoint(payload []byte, want ReplayHeader) (recovered, error) {
	rs := newRecoveredState(0)
	if err := rs.readCheckpoint(frameRecord(payload), want); err != nil {
		return recovered{}, err
	}
	jobs, err := replayedJobs(rs)
	return recoveredOf(rs, jobs), err
}

// refJobs decodes kept records' jobs with workload.UnmarshalJob.
func refJobs(recs []WALJob) ([]*sim.Job, error) {
	var jobs []*sim.Job
	for n := range recs {
		j, err := workload.UnmarshalJob(recs[n].Job)
		if err != nil {
			return nil, fmt.Errorf("serve: recovery job %d: %w", n+1, err)
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// refWAL is recoverWAL with encoding/json alone.
func refWAL(payloads [][]byte, baseID int) (recovered, error) {
	r := recovered{cp: Checkpoint{Type: "checkpoint", NextID: baseID, Idem: map[string]StoredResponse{}}}
	for n, p := range payloads {
		var wj WALJob
		if err := json.Unmarshal(p, &wj); err != nil {
			return recovered{}, fmt.Errorf("serve: wal record %d: %w", n+1, err)
		}
		switch {
		case wj.Type == "job" && wj.Resp.ID > r.cp.NextID:
			r.cp.Jobs = append(r.cp.Jobs, wj)
			r.cp.NextID = wj.Resp.ID
			if wj.Key != "" {
				r.cp.Idem[wj.Key] = StoredResponse{Status: 200, Resp: wj.Resp}
			}
		case wj.Type == "job":
		case wj.Type == "header":
			var h ReplayHeader
			if err := json.Unmarshal(p, &h); err != nil {
				return recovered{}, fmt.Errorf("serve: wal header: %w", err)
			}
			if err := checkHeader(h, ReplayHeader{}, "wal"); err != nil {
				return recovered{}, err
			}
		case wj.Type == "reject":
			if _, ok := r.cp.Idem[wj.Key]; !ok {
				r.cp.Idem[wj.Key] = StoredResponse{Status: 200, Resp: wj.Resp}
				r.rejects++
			}
		default:
			return recovered{}, fmt.Errorf("serve: wal record %d has unknown type %q", n+1, wj.Type)
		}
	}
	var err error
	r.jobs, err = refJobs(r.cp.Jobs)
	return r, err
}

// refCheckpoint is recoverCheckpoint with encoding/json alone.
func refCheckpoint(payload []byte, want ReplayHeader) (recovered, error) {
	var cp Checkpoint
	if err := json.Unmarshal(payload, &cp); err != nil {
		return recovered{}, fmt.Errorf("serve: checkpoint: %w", err)
	}
	if cp.Type != "checkpoint" {
		return recovered{}, fmt.Errorf("serve: checkpoint file holds type %q", cp.Type)
	}
	if err := checkHeader(cp.Header, want, "checkpoint"); err != nil {
		return recovered{}, err
	}
	jobs, err := refJobs(cp.Jobs)
	return recovered{cp: cp, jobs: jobs}, err
}

// checkAdopted fails when a record recovery adopts as it was read is not
// byte for byte what the WAL encoder, and json.Marshal, write for the
// decoded record.
func checkAdopted(t testing.TB, recs []WALJob) {
	t.Helper()
	for k := range recs {
		if recs[k].raw == nil {
			continue
		}
		fresh := recs[k]
		fresh.raw = nil
		want, err := json.Marshal(&fresh)
		if err != nil {
			t.Fatalf("record %d: %v", k, err)
		}
		enc, err := encodeWALJob(nil, &fresh)
		if !bytes.Equal(recs[k].raw, want) || err != nil || !bytes.Equal(enc, want) {
			t.Fatalf("record %d adopted as %s; json.Marshal writes %s (the WAL encoder %s, %v)", k, recs[k].raw, want, enc, err)
		}
	}
}

// withoutRaw returns recs with the adopted bytes dropped, for comparing
// decoded values.
func withoutRaw(recs []WALJob) []WALJob {
	out := slices.Clone(recs)
	for k := range out {
		out[k].raw = nil
	}
	return out
}

// sameRecovery compares a recovery decode with its encoding/json reference:
// on success the whole recovered state, on failure that both refuse and,
// when exactErr, with the same error text.
func sameRecovery(t testing.TB, what string, got recovered, err error, want recovered, wantErr error, exactErr bool) {
	t.Helper()
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%s: recovery err=%v; encoding/json err=%v", what, err, wantErr)
	case err != nil:
		if exactErr && err.Error() != wantErr.Error() {
			t.Fatalf("%s: recovery refused with\n  %v\nencoding/json with\n  %v", what, err, wantErr)
		}
	default:
		checkAdopted(t, got.cp.Jobs)
		if g, w := got.normalized(), want.normalized(); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: recovered\n got %+v\nwant %+v", what, g, w)
		}
	}
}

// sameWALRecord holds decodeWALJob, the record scan, to json.Unmarshal of
// the whole record. A record both decode must decode to the same value. The
// scan may accept a record json.Unmarshal refuses only when the job member,
// the one part it delimits without validating, is itself not valid JSON;
// recovery refuses such a record when it decodes or checks that member.
func sameWALRecord(t testing.TB, data []byte) {
	t.Helper()
	var got, want WALJob
	err := decodeWALJob(data, &got)
	wantErr := json.Unmarshal(data, &want)
	switch {
	case err != nil && wantErr == nil:
		t.Fatalf("decodeWALJob(%q): %v; json.Unmarshal accepts it", data, err)
	case err == nil && wantErr != nil && json.Valid(got.Job):
		t.Fatalf("decodeWALJob(%q) accepted it with a valid job member; json.Unmarshal: %v", data, wantErr)
	case err == nil && wantErr == nil:
		checkAdopted(t, []WALJob{got})
		if got.raw = nil; !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeWALJob(%q) = %+v; json.Unmarshal: %+v", data, got, want)
		}
	}
}

// sameCheckpointRecord is sameWALRecord for decodeCheckpoint: a checkpoint
// both decode decodes to the same value — header, clock, next ID,
// fingerprint, checkpoint count, idempotency table, summary and every job
// record — and the scan accepts one json.Unmarshal refuses only when some
// job member is not valid JSON.
func sameCheckpointRecord(t testing.TB, data []byte) {
	t.Helper()
	var got, want Checkpoint
	_, err := decodeCheckpoint(data, &got)
	wantErr := json.Unmarshal(data, &want)
	switch {
	case err != nil && wantErr == nil:
		t.Fatalf("decodeCheckpoint(%q): %v; json.Unmarshal accepts it", data, err)
	case err == nil && wantErr != nil:
		if !slices.ContainsFunc(got.Jobs, func(wj WALJob) bool { return !json.Valid(wj.Job) }) {
			t.Fatalf("decodeCheckpoint(%q) accepted it with every job member valid; json.Unmarshal: %v", data, wantErr)
		}
	case err == nil:
		checkAdopted(t, got.Jobs)
		if got.Jobs = withoutRaw(got.Jobs); !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeCheckpoint(%q)\n got %+v\nwant %+v", data, got, want)
		}
	}
}

// TestDecodeCheckpointMatchesUnmarshal: on every encoder case the record
// scan decodes the whole checkpoint as json.Unmarshal does, and recovery's
// decode — record scan plus job decode — recovers the same state from it
// as encoding/json: header, clock, next ID, fingerprint, checkpoint count,
// idempotency table, summary, records and jobs. The fast path (not the
// whole-checkpoint fallback) scans every case whose head it can read, a
// record off its shape (escaped strings, case 2) included, locates the
// jobs array, and adopts every record, each being json.Marshal's output.
func TestDecodeCheckpointMatchesUnmarshal(t *testing.T) {
	for n, cp := range codecCheckpoints(t) {
		payload, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		sameCheckpointRecord(t, payload)
		got, err := recoverCheckpoint(payload, cp.Header)
		want, wantErr := refCheckpoint(payload, cp.Header)
		sameRecovery(t, fmt.Sprintf("case %d", n), got, err, want, wantErr, true)
		var fast Checkpoint
		body, ok := parseCheckpointFast(payload, &fast)
		if ok != (n != 4) || ok != body.known {
			t.Errorf("case %d: parseCheckpointFast ok=%v, body %+v", n, ok, body)
		}
		for k := range fast.Jobs {
			if ok && fast.Jobs[k].raw == nil {
				t.Errorf("case %d: record %d not adopted", n, k)
			}
		}
		if ok && len(cp.Jobs) > 0 {
			if _, rest, _ := bytes.Cut(payload, []byte(`,"jobs":[`)); !bytes.HasPrefix(rest, payload[body.start:body.end]) || payload[body.end] != ']' {
				t.Errorf("case %d: jobs array located at %+v", n, body)
			}
		}
		if h, ok := checkpointHeaderPrefix(frameRecord(payload)); ok != (n != 4) || ok && h != cp.Header {
			t.Errorf("case %d: checkpointHeaderPrefix = %+v, %v", n, h, ok)
		}
	}
}

// TestDecodeWALJobMatchesUnmarshal: every WAL job record the encoder
// writes, plus hand-made records off the canonical shape, is decoded by
// recovery — record scan plus job decode — exactly as encoding/json
// decodes it: same accept/reject with the same error, same recovered
// state. Each record is read both as a record recovery replays and as one
// the checkpoint already covers, whose job member nothing decodes and which
// must still be refused when malformed; and the record scan on its own
// decodes it as json.Unmarshal does (sameWALRecord).
func TestDecodeWALJobMatchesUnmarshal(t *testing.T) {
	var recs []string
	cps := codecCheckpoints(t)
	for _, rec := range cps[2].Jobs { // the canonical records, then the fallbacks
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, string(b))
	}
	canonical := len(cps[1].Jobs)
	job := string(cps[2].Jobs[0].Job)
	resp := `{"id":1,"release":0,"decision":"admitted","commitment":"on-admission"}`
	recs = append(recs,
		`{"type":"job","resp":{"release":1,"decision":"admitted"},"job":{"id":1}} `,
		` {"type":"job","resp":{"release":1,"decision":"admitted"},"job":{}}`,
		`{"TYPE":"job","resp":{"release":1,"decision":"admitted"},"job":{}}`,
		`{"type":"job","resp":{"release":1,"decision":"admitted"},"job":{},"type":"reject"}`,
		`{"type":"job","resp":{"release":1,"decision":"admitted","plan":null},"job":{}}`,
		`{"type":"job","resp":{"release":1,"decision":"admitted","plan":{"alloc":1,"x":1e400,"density":0,"good":true}},"job":{}}`,
		`{"type":"job","resp":{"release":1,"decision":"admitted","plan":{"alloc":1,"x":-0,"density":1E-3,"good":false}},"job":{}}`,
		`{"type":"job","resp":{"release":1,"decision":"admitted"},"job":{"a":[1,2,{"b":"é\n"}],"c":null}}`,
		`{"type":"job","resp":{"release":1,"decision":"admitted"},"job":{"a":01}}`,
		`{"type":"job","resp":{"release":1,"decision":"admitted"},"job":{"a":"`+"\x01"+`"}}`,
		`{"type":"job","resp":{"release":1,"decision":"admitted"},"job":[1,]}`,
		`{"type":"job","resp":{"release":1,"decision":"admitted"},"job":{}}x`,
		`{"type":"job","resp":{"id":1,"release":99999999999999999999,"decision":"admitted"},"job":{}}`,
		`{"type":"job","resp":{"release":1,"decision":"admitted","replayed":false},"job":tru}`,
		`{"type":"job","key":"a\"b","resp":{"release":1,"decision":"admitted"},"job":{}}`,
		`{"type":"job","resp":{"release":1,"decision":"admitted"}}`,
		`[]`,
		``,
		// Malformed job members the structural scan delimits: only the job
		// decode (or, for a covered record, the check in readWAL) sees them.
		`{"type":"job","resp":`+resp+`,"job":{"id":1,"release":0,"graph":{"work":[1],"edges":[]},"profit":{"kind":"step","value":1,"deadline":4]}}`,
		`{"type":"job","resp":`+resp+`,"job":{"id":1,"release":0,"graph":{"work":[1 2],"edges":[]}}}`,
		`{"type":"job","resp":`+resp+`,"job":{"id":1,"release":0,"x":"\q"}}`,
		`{"type":"job","resp":`+resp+`,"job":{"id":1,"release":0,"x":[}]}}`,
		`{"type":"job","resp":`+resp+`,"job":{"id":1,"release":0,"x":"}"}`,
		`{"type":"job","resp":`+resp+`,"job":{"id":1,"release":0,,}}`,
		// Well-formed records whose bytes are not what the encoder writes:
		// decoded on the fast path, but re-encoded, not adopted.
		`{"type":"job","resp":{"id":1,"release":0,"decision":"admitted","plan":{"alloc":1,"x":0.50,"density":1,"good":true}},"job":`+job+`}`,
		`{"type":"job","resp":{"id":1,"release":0,"decision":"admitted","plan":{"alloc":1,"x":1e2,"density":1,"good":true}},"job":`+job+`}`,
		`{"type":"job","resp":{"id":1,"release":-0,"decision":"admitted"},"job":`+job+`}`,
		`{"type":"job","resp":{"id":1,"release":0,"decision":"admitted","reason":""},"job":`+job+`}`,
		`{"type":"job","resp":{"id":1,"release":0,"decision":"admitted","replayed":false},"job":`+job+`}`,
		`{"type":"job","key":"","resp":`+resp+`,"job":`+job+`}`,
		`{"type":"job","key":"a<b","resp":`+resp+`,"job":`+job+`}`,
		`{"type":"job","resp":`+resp+`,"job":{"id":1, "release":0}}`,
		`{"type":"job","resp":`+resp+`,"job":{"id":1,"release":0,"x":"a&b"}}`,
		`{"type":"job","resp":`+resp+`,"job":`+strings.Replace(job, `,`, `, `, 1)+`}`,
		`{"type":"job","resp":`+resp+`,"job":`+strings.Replace(job, `,`, `,"note":"a&b",`, 1)+`}`,
	)
	for n, rec := range recs {
		for _, base := range []int{-1, math.MaxInt} {
			payloads := [][]byte{[]byte(rec)}
			got, err := recoverWAL(payloads, base)
			want, wantErr := refWAL(payloads, base)
			sameRecovery(t, fmt.Sprintf("%q (base %d)", rec, base), got, err, want, wantErr, true)
		}
		sameWALRecord(t, []byte(rec))
		var fast WALJob
		end, ok := parseWALJobFast([]byte(rec), 0, &fast)
		if n < canonical && (!ok || end != len(rec) || fast.raw == nil) {
			t.Errorf("%q: canonical record fell back or was not adopted", rec)
		}
	}
}

// TestSplitJobWire: the id/release prefix is parsed strictly, and only
// tails holding graph, profit and an optional commitment — nothing that
// could override id or release — are internable.
func TestSplitJobWire(t *testing.T) {
	tail := `,"graph":{"work":[1],"edges":[]},"profit":{"kind":"step","value":1,"deadline":4}}`
	id, rel, got, ok := fastjson.SplitJobWire([]byte(`{"id":12,"release":34` + tail))
	if !ok || id != 12 || rel != 34 || string(got) != tail {
		t.Fatalf("fastjson.SplitJobWire = %d, %d, %q, %v", id, rel, got, ok)
	}
	for _, rec := range []string{`{"release":2,"id":1` + tail, `{"id":1, "release":2` + tail, `{"id":1.0,"release":2` + tail, `{"id":-`} {
		if _, _, _, ok := fastjson.SplitJobWire([]byte(rec)); ok {
			t.Errorf("fastjson.SplitJobWire(%q) accepted", rec)
		}
	}
	open := strings.TrimSuffix(tail, "}")
	for _, tl := range []string{tail, open + `,"commitment":"delta"}`} {
		if !internableTail([]byte(tl)) {
			t.Errorf("internableTail(%q) = false", tl)
		}
	}
	for _, tl := range []string{
		open + `,"id":5}`,
		open + `,"ID":5}`,
		open + `,"release":5}`,
		tail + ` `,
		`,"profit":{"kind":"step","value":1,"deadline":4},"graph":{"work":[1],"edges":[]}}`,
		`,"graph":{"work":[1],"edges":[]}}`,
		`,"graph":{"work":[1],"edges":[]},"profit":{"kind":"step","value":1,"deadline":4]}`,
	} {
		if internableTail([]byte(tl)) {
			t.Errorf("internableTail(%q) = true", tl)
		}
	}
}

// TestInternedReplayMatchesPerJobDecode: a history in which several
// explicit-DAG jobs carry identical graph and profit bytes replays through
// the interning decoder to the same session Fingerprint as a replay that
// decodes every record on its own, and the interned jobs really share one
// graph.
func TestInternedReplayMatchesPerJobDecode(t *testing.T) {
	dir := t.TempDir()
	srv, _ := newDurableServer(t, dir, func(c *Config) { c.Fsync = FsyncInterval })
	explicit := `{"dag":{"work":[2,1,3],"edges":[[0,1],[0,2]]},"curve":{"kind":"linear","value":6,"flat":8,"zeroAt":30}}`
	for i := 0; i < 12; i++ {
		body := explicit
		if i%4 == 3 {
			body = `{"w":9,"l":3,"deadline":30,"profit":2}`
		}
		postLocal(t, srv, "/v1/jobs", body)
		if i%3 == 2 {
			srv.Advance(int64(2 * i))
		}
		if i == 5 {
			if err := srv.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap := snapshotDir(t, dir)
	srv.Drain()

	rs, err := loadState(snap, shardHeaderOf(Config{M: 4, Sched: "s", Eps: 1}, 0, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rs == nil || len(rs.jobs) != 12 {
		t.Fatalf("loaded state = %+v", rs)
	}
	var dec jobDecoder
	var graphs []*dag.DAG
	for _, wj := range rs.jobs {
		j, err := dec.decode(wj.Job)
		if err != nil {
			t.Fatal(err)
		}
		want, err := workload.UnmarshalJob(wj.Job)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(j, want) {
			t.Fatalf("interned job %+v, per-job decode %+v", j, want)
		}
		graphs = append(graphs, j.Graph)
	}
	if graphs[0] != graphs[1] || graphs[0] != graphs[10] || graphs[3] != graphs[11] || len(dec.shapes) != 2 {
		t.Fatalf("explicit-DAG jobs did not share a graph (%d shapes)", len(dec.shapes))
	}

	newSession := func() (*sim.Session, sim.Scheduler) {
		cfg, err := configFromHeader(rs.header)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := cliflags.MakeScheduler(cfg.Sched, cfg.Eps, false)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := sim.NewSession(sim.Config{M: cfg.M, Speed: cfg.Speed}, nil, sched)
		if err != nil {
			t.Fatal(err)
		}
		return sess, sched
	}
	interned, sched := newSession()
	adm, _ := sched.(admitter)
	if err := rs.replayInto(interned, adm, &telemetry.Registry{}, sim.CommitmentDefault); err != nil {
		t.Fatal(err)
	}
	perJob, _ := newSession()
	for _, wj := range rs.jobs {
		j, err := workload.UnmarshalJob(wj.Job)
		if err != nil {
			t.Fatal(err)
		}
		if err := perJob.AdvanceTo(j.Release); err != nil {
			t.Fatal(err)
		}
		if err := perJob.Arrive(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := perJob.AdvanceTo(rs.clock); err != nil {
		t.Fatal(err)
	}
	if a, b := interned.Fingerprint(), perJob.Fingerprint(); a != b {
		t.Fatalf("interned replay fingerprint %016x, per-job decode %016x", a, b)
	}
}

// TestReadAnyHeaderPrefix: the header comes from the checkpoint's first
// bytes, and a checkpoint whose prefix is off the canonical shape still
// yields its header through the full decode.
func TestReadAnyHeaderPrefix(t *testing.T) {
	dir := t.TempDir()
	srv, _ := newDurableServer(t, dir, nil)
	submitTo(srv.placer.route(""), JobSpec{W: 8, L: 2, Deadline: 30, Profit: ScalarProfit(2)}, "")
	srv.Drain()
	want := headerOf(Config{M: 4, Sched: "s", Eps: 1})
	h, err := readAnyHeader(dir)
	if err != nil || h != want {
		t.Fatalf("readAnyHeader = %+v, %v; want %+v", h, err, want)
	}
	// Re-encode the checkpoint with indentation: off the prefix grammar.
	path := filepath.Join(dir, checkpointFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := parseFrame(bytes.TrimSuffix(data, []byte("\n")))
	if err != nil {
		t.Fatal(err)
	}
	var cp Checkpoint
	if err := json.Unmarshal(payload, &cp); err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(cp, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, frameRecord(bytes.ReplaceAll(indented, []byte("\n"), nil)), 0o644); err != nil {
		t.Fatal(err)
	}
	if h, err := readAnyHeader(dir); err != nil || h != want {
		t.Fatalf("readAnyHeader (fallback) = %+v, %v; want %+v", h, err, want)
	}
	if _, err := ReplayDir(dir); err != nil {
		t.Fatalf("ReplayDir over a non-canonical checkpoint: %v", err)
	}
}

// TestRecoveredHistoryAdoptsRecords: recovering a crash image the daemon
// wrote — scalar and explicit-DAG specs, structured profits, keyed and
// traced submissions, a checkpoint and a WAL suffix — adopts every job
// record as it was read, re-encodes none, and locates the checkpoint's jobs
// array, so a start writes no checkpoint and the first one streams exactly
// the checkpoint's jobs array followed by the WAL's job payloads.
func TestRecoveredHistoryAdoptsRecords(t *testing.T) {
	dir := t.TempDir()
	srv, _ := newDurableServer(t, dir, nil)
	bodies := []string{
		`{"w":32,"l":4,"deadline":40,"profit":10}`,
		`{"dag":{"work":[2,1,3],"edges":[[0,1],[0,2]]},"curve":{"kind":"linear","value":6,"flat":8,"zeroAt":30}}`,
		`{"w":9,"l":3,"deadline":30,"profit":2.5}`,
		`{"dag":{"work":[1,1],"edges":[[0,1]]},"deadline":25,"profit":1.25,"commitment":"delta"}`,
	}
	for i := 0; i < 12; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(bodies[i%len(bodies)]))
		if i%3 == 0 {
			req.Header.Set("Idempotency-Key", fmt.Sprintf("user-%d/job", i))
			req.Header.Set("X-Request-Id", fmt.Sprintf("req-%d", i))
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s: %d %s", bodies[i%len(bodies)], rec.Code, rec.Body.Bytes())
		}
		srv.Advance(int64(i))
		if i == 6 {
			if err := srv.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	crash := snapshotDir(t, dir)
	srv.Drain()

	rs, err := loadState(crash, shardHeaderOf(Config{M: 4, Sched: "s", Eps: 1}, 0, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rs.checkpointJobs == 0 || len(rs.jobs) == rs.checkpointJobs {
		t.Fatalf("image holds %d checkpoint and %d WAL jobs, want both", rs.checkpointJobs, len(rs.jobs)-rs.checkpointJobs)
	}
	for k := range rs.jobs {
		if rs.jobs[k].raw == nil {
			t.Errorf("job record %d not adopted: %+v", k, rs.jobs[k])
		}
	}
	checkAdopted(t, rs.jobs)
	if !rs.verbatim {
		t.Fatal("a daemon-written crash image is not streamable as it is")
	}

	path := filepath.Join(crash, checkpointFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, _ := bytes.Cut(data, []byte(`,"jobs":[`))
	want, _, _ := bytes.Cut(rest, []byte(`],"summary"`))
	if i := bytes.Index(want, []byte(`],"idem"`)); i >= 0 {
		want = want[:i]
	}
	if got := data[rs.ckpt.start:rs.ckpt.end]; !bytes.Equal(got, want) || rs.ckpt.n != rs.checkpointJobs || rs.ckpt.size != int64(len(data)) {
		t.Fatalf("checkpoint located at %+v: %s\nits jobs array is %s", rs.ckpt, got, want)
	}
	want = slices.Clone(want)
	payloads, _, err := scanWAL(filepath.Join(crash, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if bytes.HasPrefix(p, []byte(`{"type":"job"`)) {
			want = append(append(want, ','), p...)
		}
	}

	srv2, _ := newDurableServer(t, crash, nil)
	if now, _ := os.ReadFile(path); !bytes.Equal(now, data) {
		t.Fatal("a start over a crash image rewrote its checkpoint")
	}
	if err := srv2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	srv2.Drain()
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, append(append([]byte(`,"jobs":[`), want...), ']')) {
		t.Fatalf("the first checkpoint after recovery holds\n %s\nthe image's records are\n %s", data, want)
	}
}
