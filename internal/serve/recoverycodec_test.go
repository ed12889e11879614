package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
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

// TestAppendCheckpointMatchesMarshal pins the framed line checkpointNow
// writes — head, the encoded history as it is, tail — to json.Marshal byte
// for byte: the on-disk checkpoint is one encoder's output whichever path
// wrote it. The history is filled from cp.Jobs as recovery fills it, and
// also from the payloads the WAL writes for the same records, as the serving
// path fills it.
func TestAppendCheckpointMatchesMarshal(t *testing.T) {
	for n, cp := range codecCheckpoints(t) {
		want, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		var filled, appended encodedHistory
		if err := filled.fill(cp.Jobs); err != nil {
			t.Fatal(err)
		}
		w := &wal{batch: true} // buffers only: this wal has no file
		for k := range cp.Jobs {
			payload, err := w.append(cp.Jobs[k])
			if err != nil {
				t.Fatal(err)
			}
			appended.add(payload)
		}
		for name, hist := range map[string]*encodedHistory{"fill": &filled, "wal": &appended} {
			jobs := cp.Jobs
			cp.Jobs = nil // checkpointFrame must not read it
			parts, err := checkpointFrame(nil, &cp, hist)
			cp.Jobs = jobs
			if err != nil {
				t.Fatalf("case %d %s: checkpointFrame: %v", n, name, err)
			}
			if got, wantLine := bytes.Join(parts, nil), frameRecord(want); !bytes.Equal(got, wantLine) {
				t.Errorf("case %d %s: checkpointFrame\n got %s\nwant %s", n, name, got, wantLine)
			}
		}
	}
}

// TestEncodedHistoryChunks: records span chunk boundaries without loss, and
// no chunk but the last has room left.
func TestEncodedHistoryChunks(t *testing.T) {
	var h encodedHistory
	var want []byte
	rec := bytes.Repeat([]byte("x"), 1000)
	for k := 0; k < 2000; k++ {
		rec[0] = byte('a' + k%26)
		if k > 0 {
			want = append(want, ',')
		}
		want = append(want, rec[:1+k%len(rec)]...)
		h.add(rec[:1+k%len(rec)])
	}
	if got := bytes.Join(h.chunks, nil); !bytes.Equal(got, want) || h.size != len(want) || h.n != 2000 {
		t.Fatalf("history holds %d bytes (size %d, %d records), want %d bytes, 2000 records", len(got), h.size, h.n, len(want))
	}
	for k, c := range h.chunks {
		if k < len(h.chunks)-1 && len(c) != cap(c) {
			t.Errorf("chunk %d of %d: %d of %d bytes used", k, len(h.chunks), len(c), cap(c))
		}
		if cap(c) > histChunkMax {
			t.Errorf("chunk %d: capacity %d over the %d cap", k, cap(c), histChunkMax)
		}
	}
}

// TestDecodeCheckpointMatchesUnmarshal: the checkpoint decoder agrees with
// json.Unmarshal on every encoder case, and the fast path (not the
// fallback) is what decodes the canonical ones.
func TestDecodeCheckpointMatchesUnmarshal(t *testing.T) {
	for n, cp := range codecCheckpoints(t) {
		payload, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		var want, got Checkpoint
		if err := json.Unmarshal(payload, &want); err != nil {
			t.Fatal(err)
		}
		if err := decodeCheckpoint(payload, &got); err != nil {
			t.Fatalf("case %d: decodeCheckpoint: %v", n, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: decodeCheckpoint\n got %+v\nwant %+v", n, got, want)
		}
		var fast Checkpoint
		if ok := parseCheckpointFast(payload, &fast); ok != (n < 2 || n == 3) {
			t.Errorf("case %d: parseCheckpointFast ok=%v", n, ok)
		}
		if h, ok := checkpointHeaderPrefix(frameRecord(payload)); ok != (n != 4) || ok && h != cp.Header {
			t.Errorf("case %d: checkpointHeaderPrefix = %+v, %v", n, h, ok)
		}
	}
}

// TestDecodeWALJobMatchesUnmarshal: every WAL job record the encoder
// writes, plus hand-made records off the canonical shape, decodes exactly
// as json.Unmarshal decodes it — same accept/reject, same value.
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
	)
	for n, rec := range recs {
		var want, got WALJob
		wantErr := json.Unmarshal([]byte(rec), &want)
		gotErr := decodeWALJob([]byte(rec), &got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("%q: decodeWALJob err=%v, json.Unmarshal err=%v", rec, gotErr, wantErr)
			continue
		}
		if wantErr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%q: decodeWALJob\n got %+v\nwant %+v", rec, got, want)
		}
		var fast WALJob
		end, ok := parseWALJobFast([]byte(rec), 0, &fast)
		if n < canonical && (!ok || end != len(rec)) {
			t.Errorf("%q: canonical record fell back", rec)
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
	submitDirect(t, srv, JobSpec{W: 8, L: 2, Deadline: 30, Profit: ScalarProfit(2)}, "")
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
