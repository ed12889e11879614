package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dagsched/internal/workload"
)

// TestStructuredProfitEquivalentToScalar: a {"type":"step"} profit object
// with the same value and horizon as a v1 scalar spec must produce the
// identical verdict, ID sequence aside.
func TestStructuredProfitEquivalentToScalar(t *testing.T) {
	_, ts := newTestServer(t, Config{M: 4})
	code, scalar := postJob(t, ts, `{"w":32,"l":4,"deadline":40,"profit":10}`)
	if code != 200 || scalar.Decision != DecisionAdmitted {
		t.Fatalf("scalar submit: code=%d resp=%+v", code, scalar)
	}
	code, structured := postJob(t, ts, `{"w":32,"l":4,"profit":{"type":"step","value":10,"deadline":40}}`)
	if code != 200 || structured.Decision != DecisionAdmitted {
		t.Fatalf("structured submit: code=%d resp=%+v", code, structured)
	}
	if *scalar.Plan != *structured.Plan {
		t.Fatalf("plans differ: scalar %+v structured %+v", scalar.Plan, structured.Plan)
	}
	if scalar.Commitment != structured.Commitment {
		t.Fatalf("commitments differ: %q vs %q", scalar.Commitment, structured.Commitment)
	}
}

// TestStructuredProfitShapes covers each profit-function kind end to end on
// the sequential endpoint, plus one via the batch endpoint.
func TestStructuredProfitShapes(t *testing.T) {
	_, ts := newTestServer(t, Config{M: 4})
	for _, body := range []string{
		`{"w":32,"l":4,"profit":{"type":"step","value":10,"deadline":40}}`,
		`{"w":32,"l":4,"profit":{"type":"linear","value":10,"flat":5,"zeroAt":40}}`,
		`{"w":32,"l":4,"profit":{"type":"exp","value":10,"flat":4,"halfLife":8,"cutoff":40}}`,
		`{"w":32,"l":4,"profit":{"type":"piecewise","until":[10,40],"values":[8,3]}}`,
	} {
		code, jr := postJob(t, ts, body)
		if code != 200 {
			t.Fatalf("submit %s: code=%d", body, code)
		}
		if jr.Decision != DecisionAdmitted && jr.Decision != DecisionParked {
			t.Fatalf("submit %s: decision %q", body, jr.Decision)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/jobs:batch", "application/json", strings.NewReader(
		`[{"w":16,"l":2,"profit":{"type":"linear","value":4,"flat":1,"zeroAt":30}},{"w":16,"l":2,"deadline":30,"profit":4}]`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Items) != 2 {
		t.Fatalf("batch items = %d", len(br.Items))
	}
	for i, it := range br.Items {
		if it.Status != 200 {
			t.Fatalf("batch item %d: %+v", i, it)
		}
	}
}

// TestStructuredProfitRejections pins the 400 surface of the v2 profit
// field: conflicts, unknown parameters, bad kinds, non-monotone shapes.
func TestStructuredProfitRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{M: 4})
	for _, tc := range []struct{ name, body string }{
		{"deadline conflict", `{"w":16,"l":2,"deadline":30,"profit":{"type":"step","value":3,"deadline":40}}`},
		{"missing type", `{"w":16,"l":2,"profit":{"value":3,"deadline":40}}`},
		{"unknown kind", `{"w":16,"l":2,"profit":{"type":"cubic","value":3,"deadline":40}}`},
		{"unknown param", `{"w":16,"l":2,"profit":{"type":"step","value":3,"deadline":40,"bogus":1}}`},
		{"curve and structured profit", `{"w":16,"l":2,"curve":{"kind":"step","value":3,"deadline":40},"profit":{"type":"step","value":3,"deadline":40}}`},
		{"increasing piecewise", `{"w":16,"l":2,"profit":{"type":"piecewise","until":[10,40],"values":[3,8]}}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, er := postRaw(t, ts, tc.body, nil)
			if code != 400 {
				t.Fatalf("code = %d, want 400 (%+v)", code, er)
			}
			if er.Reason != reasonBadRequest {
				t.Fatalf("reason = %q, want %q", er.Reason, reasonBadRequest)
			}
		})
	}
}

// TestProfitValueRoundTrip pins the wire forms of workload.ProfitValue: a
// scalar marshals as a bare number (the v1 bytes), a structured value as its
// tagged object, and both round-trip.
func TestProfitValueRoundTrip(t *testing.T) {
	scalar, err := json.Marshal(ScalarProfit(2.5))
	if err != nil {
		t.Fatal(err)
	}
	if string(scalar) != "2.5" {
		t.Fatalf("scalar marshals as %s, want the bare number", scalar)
	}
	pv := workload.StructuredProfit(workload.ProfitSpec{Kind: "linear", Value: 10, Flat: 5, ZeroAt: 40})
	data, err := json.Marshal(pv)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"type":"linear","value":10,"flat":5,"zeroAt":40}`
	if string(data) != want {
		t.Fatalf("structured marshals as %s, want %s", data, want)
	}
	var back ProfitValue
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.IsScalar() || back.Spec.Kind != "linear" || back.Spec.ZeroAt != 40 {
		t.Fatalf("round-trip = %+v", back)
	}
}

// TestCommitmentOverridePerJob: per-job commitment overrides the daemon
// policy in both directions, and bad values 400 with the envelope.
func TestCommitmentOverridePerJob(t *testing.T) {
	_, ts := newTestServer(t, Config{M: 4})

	code, jr := postJob(t, ts, `{"w":32,"l":4,"deadline":40,"profit":10,"commitment":"delta"}`)
	if code != 200 || jr.Decision != DecisionAdmitted {
		t.Fatalf("delta submit: code=%d resp=%+v", code, jr)
	}
	if jr.Commitment != CommitmentDelta {
		t.Fatalf("commitment = %q, want delta", jr.Commitment)
	}

	// The daemon default is on-admission; without a WAL that demotes to none.
	code, jr = postJob(t, ts, `{"w":32,"l":4,"deadline":40,"profit":10}`)
	if code != 200 || jr.Commitment != CommitmentNone {
		t.Fatalf("default submit: code=%d commitment=%q, want none", code, jr.Commitment)
	}

	code, er := postRaw(t, ts, `{"w":32,"l":4,"deadline":40,"profit":10,"commitment":"always"}`, nil)
	if code != 400 || er.Reason != reasonBadRequest {
		t.Fatalf("bad commitment: code=%d body=%+v", code, er)
	}
}

// TestCommitmentPolicyDaemonWide: -commitment=delta makes every admitted
// job's verdict carry the binding contract without any per-job field.
func TestCommitmentPolicyDaemonWide(t *testing.T) {
	_, ts := newTestServer(t, Config{M: 4, Commitment: CommitmentDelta})
	code, jr := postJob(t, ts, `{"w":32,"l":4,"deadline":40,"profit":10}`)
	if code != 200 || jr.Commitment != CommitmentDelta {
		t.Fatalf("code=%d commitment=%q, want delta", code, jr.Commitment)
	}
	// A per-job opt-out demotes the verdict back to none.
	code, jr = postJob(t, ts, `{"w":32,"l":4,"deadline":40,"profit":10,"commitment":"none"}`)
	if code != 200 || jr.Commitment != CommitmentNone {
		t.Fatalf("opt-out: code=%d commitment=%q, want none", code, jr.Commitment)
	}
}

// TestCommitmentOnArrivalRejectsInsteadOfParking: under the strictest policy
// a would-be-parked job is refused outright — parked means "maybe later",
// which on-arrival forbids.
func TestCommitmentOnArrivalRejectsInsteadOfParking(t *testing.T) {
	srv, ts := newTestServer(t, Config{M: 4, Commitment: CommitmentOnArrival})
	var parked, rejected int
	for i := 0; i < 6; i++ {
		code, jr := postJob(t, ts, `{"w":16,"l":2,"deadline":14,"profit":1}`)
		if code != 200 {
			t.Fatalf("submit %d: code=%d", i, code)
		}
		switch jr.Decision {
		case DecisionParked:
			parked++
		case DecisionRejected:
			rejected++
			if jr.Commitment != CommitmentNone {
				t.Fatalf("rejected job reports commitment %q", jr.Commitment)
			}
		}
	}
	if parked != 0 {
		t.Fatalf("%d jobs parked under on-arrival; refusal must be final", parked)
	}
	if rejected == 0 {
		t.Fatal("workload too light: nothing was refused")
	}
	_ = srv
}

// TestCommitmentUnsupportedScheduler: a binding policy on a scheduler that
// cannot promise completion must fail loudly — at construction for the
// daemon-wide flag, per request for the per-job override.
func TestCommitmentUnsupportedScheduler(t *testing.T) {
	if _, err := New(Config{M: 2, TickInterval: -1, Sched: "edf", Commitment: CommitmentDelta}); err == nil {
		t.Fatal("New accepted -commitment=delta on a scheduler without commitment support")
	}

	srv, err := New(Config{M: 2, TickInterval: -1, Sched: "edf"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()
	code, er := postRaw(t, ts, `{"w":4,"l":2,"deadline":30,"profit":1,"commitment":"delta"}`, nil)
	if code != 400 || er.Reason != reasonBadRequest {
		t.Fatalf("per-job delta on edf: code=%d body=%+v", code, er)
	}
	// Non-binding overrides are fine anywhere.
	if code, _ := postJob(t, ts, `{"w":4,"l":2,"deadline":30,"profit":1,"commitment":"none"}`); code != 200 {
		t.Fatalf("per-job none on edf: code=%d", code)
	}
}

// TestV2SpecsSurviveRecovery: structured profits and per-job commitment
// overrides round-trip through the WAL, the checkpoint, crash recovery, and
// idempotent retries, and the recovered drain still matches the offline
// replay of the durable directory bit for bit.
func TestV2SpecsSurviveRecovery(t *testing.T) {
	dir := t.TempDir()
	delta := func(cfg *Config) { cfg.Commitment = CommitmentDelta }
	srv, _ := newDurableServer(t, dir, delta)

	structured := JobSpec{W: 32, L: 4, Profit: workload.StructuredProfit(
		workload.ProfitSpec{Kind: "linear", Value: 10, Flat: 5, ZeroAt: 40})}
	optOut := JobSpec{W: 8, L: 2, Deadline: 25, Profit: ScalarProfit(3), Commitment: CommitmentNone}
	scalar := JobSpec{W: 6, L: 2, Deadline: 30, Profit: ScalarProfit(2)}

	repS := submitDirect(t, srv, structured, "key-structured")
	if repS.status != 200 || repS.resp.Decision != DecisionAdmitted || repS.resp.Commitment != CommitmentDelta {
		t.Fatalf("structured submit: %+v", repS)
	}
	srv.Advance(2)
	if rep := submitDirect(t, srv, optOut, "key-optout"); rep.status != 200 || rep.resp.Commitment != CommitmentNone {
		t.Fatalf("opt-out submit: %+v", rep)
	}
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	srv.Advance(4)
	if rep := submitDirect(t, srv, scalar, ""); rep.status != 200 || rep.resp.Commitment != CommitmentDelta {
		t.Fatalf("scalar submit: %+v", rep)
	}

	snap := snapshotDir(t, dir)
	srv.Drain()

	srv2, _ := newDurableServer(t, snap, delta)
	rec := srv2.Recovery()
	if rec == nil || !rec.Recovered || rec.Jobs != 3 {
		t.Fatalf("recovery info = %+v, want 3 recovered jobs", rec)
	}
	// Idempotent retries collapse onto the stored verdicts, commitment and
	// profit shape intact.
	retry := submitDirect(t, srv2, structured, "key-structured")
	if retry.status != 200 || !retry.resp.Replayed || retry.resp.Commitment != CommitmentDelta || retry.resp.ID != repS.resp.ID {
		t.Fatalf("structured retry: %+v", retry)
	}
	if retry := submitDirect(t, srv2, optOut, "key-optout"); !retry.resp.Replayed || retry.resp.Commitment != CommitmentNone {
		t.Fatalf("opt-out retry: %+v", retry)
	}

	res := srv2.Drain()
	assertReplayIdentical(t, snap, res)
}

// TestRecoveryRefusesCommitmentDowngrade: durable state written under a
// binding policy cannot be replayed into a weaker contract — neither by
// tampering a job's acknowledged commitment nor by restarting the daemon
// with a weaker -commitment.
func TestRecoveryRefusesCommitmentDowngrade(t *testing.T) {
	dir := t.TempDir()
	delta := func(cfg *Config) { cfg.Commitment = CommitmentDelta }
	srv, drain := newDurableServer(t, dir, delta)
	if rep := submitDirect(t, srv, JobSpec{W: 32, L: 4, Deadline: 40, Profit: ScalarProfit(10)}, ""); rep.resp.Commitment != CommitmentDelta {
		t.Fatalf("submit: %+v", rep)
	}
	snap := snapshotDir(t, dir)
	drain()

	// Restarting with a weaker policy is config drift: refused outright.
	if _, err := New(Config{M: 4, TickInterval: -1, WALDir: snap, CheckpointInterval: -1}); err == nil ||
		!strings.Contains(err.Error(), "refusing to recover") {
		t.Fatalf("weaker restart: err = %v, want refusal", err)
	}

	// Tampering the acknowledged commitment itself trips the replay check.
	path := filepath.Join(snap, walFileName)
	payloads, _, err := scanWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, p := range payloads {
		if bytes.Contains(p, []byte(`"type":"job"`)) {
			p = bytes.Replace(p, []byte(`"commitment":"delta"`), []byte(`"commitment":"none"`), 1)
		}
		out.Write(frameRecord(p))
	}
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{M: 4, TickInterval: -1, WALDir: snap, CheckpointInterval: -1, Commitment: CommitmentDelta})
	if err == nil || !strings.Contains(err.Error(), "commitment violated") {
		t.Fatalf("tampered commitment: err = %v, want commitment violation", err)
	}
}
