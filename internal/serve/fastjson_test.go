package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"dagsched/internal/dag"
	"dagsched/internal/sim"
	"dagsched/internal/workload"
)

// TestFastParseMatchesEncodingJSON drives the fast-path parser and the
// encoding/json decoder over the same bodies: everywhere the fast path
// claims a spec (ok=true) the two must agree exactly, and bodies it must
// not claim (fallback cases) must return ok=false.
func TestFastParseMatchesEncodingJSON(t *testing.T) {
	fastable := []string{
		`{}`,
		`{"w":16,"l":2,"deadline":40,"profit":3}`,
		`{"w":16,"l":2}`,
		`{"profit":0.125,"deadline":9}`,
		`{"deadline":40,"profit":3,"w":16,"l":2}`, // key order free
		`  {"w":1,"l":1}  trailing garbage`,       // Decode reads one value
		"\t{\n\"w\": 7 ,\n\"l\" : 7\n}",           // whitespace everywhere
		`{"w":-3,"l":2}`,                          // negative: build() rejects both paths
		`{"profit":123456789.123456}`,             // 15 significant digits
		`{"profit":-0.000001}`,
		`{"w":999999999999999999}`, // 18 digits
		`{"profit":0}`,
		`{"w":0,"l":0,"deadline":0,"profit":2.5}`,
	}
	for _, body := range fastable {
		spec, key, ok := parseJobSpecFast([]byte(body), false)
		if !ok {
			t.Errorf("parseJobSpecFast(%q) fell back; want fast path", body)
			continue
		}
		if key != nil {
			t.Errorf("parseJobSpecFast(%q) returned a key with allowKey=false", body)
		}
		var want JobSpec
		dec := json.NewDecoder(bytes.NewReader([]byte(body)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&want); err != nil {
			t.Errorf("encoding/json rejects %q (%v) but the fast path accepted it", body, err)
			continue
		}
		if spec != want {
			t.Errorf("parseJobSpecFast(%q) = %+v, want %+v", body, spec, want)
		}
	}

	fallback := []string{
		``,
		`null`,
		`[1,2]`,
		`{"w":16`,                       // truncated
		`{"w":16,}`,                     // trailing comma
		`{"w":"16"}`,                    // string where int expected
		`{"w":16.0}`,                    // float where int expected (json rejects too)
		`{"w":1e3}`,                     // exponent form
		`{"w":016}`,                     // leading zero (json rejects too)
		`{"profit":1e-3}`,               // exponent form: fall back, json accepts
		`{"profit":0.1234567890123456}`, // 16 significant digits
		`{"w":9999999999999999999}`,     // 19 digits
		`{"dag":{"work":[1]}}`,          // structured field
		`{"curve":{"kind":"step"}}`,     // structured field
		`{"profit":{"type":"step","value":3,"deadline":40}}`, // structured profit object
		`{"w":4,"l":2,"profit":1,"commitment":"delta"}`,      // commitment override
		`{"bogus":1}`,              // unknown field (json rejects too)
		`{"key":"k1","w":1,"l":1}`, // key only allowed in batch items
		`{"wA":1}`,                 // escaped key
	}
	for _, body := range fallback {
		if _, _, ok := parseJobSpecFast([]byte(body), false); ok {
			t.Errorf("parseJobSpecFast(%q) took the fast path; must fall back", body)
		}
	}
}

// TestFastParseBatchKey covers the allowKey variant used by batch items.
func TestFastParseBatchKey(t *testing.T) {
	spec, key, ok := parseJobSpecFast([]byte(`{"w":4,"l":2,"deadline":10,"profit":1,"key":"user-42/j7"}`), true)
	if !ok {
		t.Fatalf("keyed batch item fell back")
	}
	if string(key) != "user-42/j7" {
		t.Fatalf("key = %q, want user-42/j7", key)
	}
	if spec.W != 4 || spec.L != 2 || spec.Deadline != 10 || spec.Profit.Scalar != 1 {
		t.Fatalf("spec = %+v", spec)
	}
	if _, _, ok := parseJobSpecFast([]byte(`{"key":"a\"b","w":1,"l":1}`), true); ok {
		t.Fatalf("escaped key string must fall back")
	}
}

// TestFastParseFloatExact pins that every fast-path float is bit-identical
// to strconv/encoding/json's parse, across magnitudes and fractions.
func TestFastParseFloatExact(t *testing.T) {
	for _, lit := range []string{
		"0", "1", "-1", "3", "2.5", "0.125", "-0.125", "123.456",
		"0.1", "0.2", "0.3", "999999999999999", "1.00000000000001",
		"0.000001", "-42.000001", "7.5",
	} {
		body := []byte(`{"profit":` + lit + `}`)
		spec, _, ok := parseJobSpecFast(body, false)
		if !ok {
			t.Errorf("profit %s fell back", lit)
			continue
		}
		var want JobSpec
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("json.Unmarshal(%s): %v", body, err)
		}
		if math.Float64bits(spec.Profit.Scalar) != math.Float64bits(want.Profit.Scalar) {
			t.Errorf("profit %s: fast=%x json=%x", lit, math.Float64bits(spec.Profit.Scalar), math.Float64bits(want.Profit.Scalar))
		}
	}
}

// TestAppendJobResponseMatchesMarshal pins the fast encoder to json.Marshal
// byte-for-byte across field combinations, and checks the fallback trigger.
func TestAppendJobResponseMatchesMarshal(t *testing.T) {
	cases := []JobResponse{
		{},
		{ID: 7, Release: 3, Decision: DecisionAdmitted, Commitment: CommitmentOnAdmission},
		{Release: 0, Decision: DecisionRejected, Reason: "not delta-good", Commitment: CommitmentNone},
		{ID: 12, Release: 9, Decision: DecisionParked, Replayed: true},
		{ID: 1, Release: 2, Decision: DecisionAdmitted,
			Plan: &PlanInfo{Alloc: 4, X: 1.5, Density: 0.0000001, Good: true}},
		{ID: 1, Release: 2, Decision: DecisionAdmitted,
			Plan: &PlanInfo{Alloc: 0, X: 0, Density: 3e21, Good: false}},
		{ID: 1, Release: 2, Decision: DecisionAdmitted,
			Plan: &PlanInfo{Alloc: 2, X: -0.000001, Density: 123456.789, Good: true}},
	}
	for _, r := range cases {
		got, ok := appendJobResponse(nil, &r)
		if !ok {
			t.Errorf("appendJobResponse(%+v) fell back", r)
			continue
		}
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("json.Marshal: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("appendJobResponse(%+v)\n got %s\nwant %s", r, got, want)
		}
	}
	// Strings that encoding/json escapes must force the fallback.
	for _, r := range []JobResponse{
		{Decision: DecisionRejected, Reason: "a<b"},
		{Decision: DecisionRejected, Reason: "quote\"inside"},
		{Decision: DecisionRejected, Reason: "newline\n"},
		{Decision: "ünsafe"},
	} {
		if _, ok := appendJobResponse(nil, &r); ok {
			t.Errorf("appendJobResponse(%+v) took the fast path; must fall back", r)
		}
	}
}

// TestSplitJSONArray covers the batch envelope scanner.
func TestSplitJSONArray(t *testing.T) {
	elems, err := splitJSONArray([]byte(` [ {"w":1} , {"l":[1,2],"s":"a,]"} , 3 ] `))
	if err != nil {
		t.Fatalf("splitJSONArray: %v", err)
	}
	want := []string{`{"w":1}`, `{"l":[1,2],"s":"a,]"}`, `3`}
	if len(elems) != len(want) {
		t.Fatalf("got %d elements, want %d", len(elems), len(want))
	}
	for i := range want {
		if string(elems[i]) != want[i] {
			t.Errorf("element %d = %q, want %q", i, elems[i], want[i])
		}
	}
	if elems, err := splitJSONArray([]byte(`[]`)); err != nil || len(elems) != 0 {
		t.Errorf("empty array: %v, %v", elems, err)
	}
	for _, bad := range []string{``, `{}`, `[1,`, `[{]`, `["a`, `[1,,2]`, `[1}`} {
		if _, err := splitJSONArray([]byte(bad)); err == nil {
			t.Errorf("splitJSONArray(%q) accepted malformed input", bad)
		}
	}
}

// TestFastPathZeroAllocs asserts the parser and encoder allocate nothing
// per spec — the property the wire guard pins under SPAA_WIRE_GUARD.
func TestFastPathZeroAllocs(t *testing.T) {
	body := []byte(`{"w":16,"l":2,"deadline":40,"profit":3}`)
	if n := testing.AllocsPerRun(200, func() {
		if _, _, ok := parseJobSpecFast(body, false); !ok {
			t.Fatal("fell back")
		}
	}); n != 0 {
		t.Errorf("parseJobSpecFast allocates %.1f per spec, want 0", n)
	}
	resp := JobResponse{ID: 7, Release: 3, Decision: DecisionAdmitted,
		Commitment: CommitmentOnAdmission, Plan: &PlanInfo{Alloc: 4, X: 1.5, Density: 2.25, Good: true}}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := appendJobResponse(buf, &resp); !ok {
			t.Fatal("fell back")
		}
	}); n != 0 {
		t.Errorf("appendJobResponse allocates %.1f per verdict, want 0", n)
	}
}

// TestAppendWALJobMatchesMarshal pins the WAL-record fast encoder to
// json.Marshal byte-for-byte (the on-disk format must be one encoder's
// output whichever path produced it), and checks every fallback trigger.
func TestAppendWALJobMatchesMarshal(t *testing.T) {
	wire := json.RawMessage(`{"id":7,"release":3,"deadline":40,"profit":[[3,40]],"nodes":[{"w":16}],"edges":[]}`)
	cases := []WALJob{
		{Type: "job", Resp: JobResponse{ID: 7, Release: 3, Decision: DecisionAdmitted}, Job: wire},
		{Type: "job", Key: "user-42/j7", ReqID: "req-1", Job: wire,
			Resp: JobResponse{ID: 7, Release: 3, Decision: DecisionParked, Reason: "band-full",
				Commitment: CommitmentOnAdmission, Plan: &PlanInfo{Alloc: 4, X: 1.5, Density: 0.125, Good: true}}},
		{Type: "job", Key: "k", Resp: JobResponse{Replayed: true}, Job: json.RawMessage(`{"id":1}`)},
	}
	for _, rec := range cases {
		got, ok := appendWALJob(nil, &rec)
		if !ok {
			t.Errorf("appendWALJob(%+v) fell back", rec)
			continue
		}
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("json.Marshal: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("appendWALJob(%+v)\n got %s\nwant %s", rec, got, want)
		}
	}
	fallback := []WALJob{
		{Type: "job", Job: json.RawMessage(`{"s":"a b"}`)},    // space: Marshal compacts RawMessage
		{Type: "job", Job: json.RawMessage("{\n}")},           // whitespace outside strings
		{Type: "job", Job: json.RawMessage(`{"s":"a<b"}`)},    // Marshal HTML-escapes inside RawMessage
		{Type: "job", Job: nil},                               // nil renders as null
		{Type: "job", Key: `a"b`, Job: json.RawMessage(`{}`)}, // key needs escaping
		{Type: "job", Resp: JobResponse{Reason: "x&y"}, Job: json.RawMessage(`{}`)},
	}
	for _, rec := range fallback {
		if _, ok := appendWALJob(nil, &rec); ok {
			t.Errorf("appendWALJob(%+v) took the fast path; must fall back", rec)
		}
	}
}

// TestPlainWireChecksPrefixAndTail: a job rendered from a cached scalar
// shape is marked plain only when its memoized tail passed RawPlain and its
// id/release prefix does too, and a record so marked encodes as
// json.Marshal encodes it.
func TestPlainWireChecksPrefixAndTail(t *testing.T) {
	sh := &shard{}
	_, fn, ce, err := sh.buildSpec(JobSpec{W: 16, L: 2, Deadline: 40, Profit: ScalarProfit(3)})
	if err != nil {
		t.Fatal(err)
	}
	if ce.plainWire([]byte(`{"id":1}`)) {
		t.Error("an entry without a memoized tail vouched for a record")
	}
	for _, id := range []int{1, 2} { // the first call memoizes the tail
		job := &sim.Job{ID: id, Release: 5, Graph: ce.g, Profit: fn}
		wire, err := sh.marshalJobWire(ce, job)
		if err != nil {
			t.Fatal(err)
		}
		rec := WALJob{Type: "job", Resp: JobResponse{ID: id, Release: 5}, Job: wire, jobPlain: ce.plainWire(wire)}
		if !rec.jobPlain {
			t.Fatalf("record %s of a plain shape not marked plain", wire)
		}
		got, ok := appendWALJob(nil, &rec)
		want, _ := json.Marshal(rec)
		if !ok || !bytes.Equal(got, want) {
			t.Errorf("appendWALJob = %s, %v; json.Marshal %s", got, ok, want)
		}
	}
	if (*scalarEntry)(nil).plainWire([]byte(`{"id":1}`)) {
		t.Error("a nil entry (structured spec) vouched for a record")
	}
	odd := &scalarEntry{tail: []byte(`,"graph":1}`), tailPlain: true}
	if odd.plainWire([]byte(`{"id":1,"release": 2,"graph":1}`)) {
		t.Error("a prefix holding a space was marked plain")
	}
	if bad := (&scalarEntry{tail: []byte(`,"x":"<"}`), tailPlain: false}); bad.plainWire([]byte(`{"id":1,"x":"<"}`)) {
		t.Error("a tail that failed RawPlain was vouched for")
	}
}

// TestAppendFrame pins the in-place framer to frameRecord and to the scan
// side (parseFrame must accept what appendFrame writes).
func TestAppendFrame(t *testing.T) {
	for _, payload := range []string{`{"type":"job"}`, "", "x"} {
		got := appendFrame(nil, []byte(payload))
		want := frameRecord([]byte(payload))
		if !bytes.Equal(got, want) {
			t.Errorf("appendFrame(%q) = %q, want %q", payload, got, want)
		}
		if payload == "" {
			continue // parseFrame's min-length check rejects empty payloads
		}
		back, err := parseFrame(got[:len(got)-1])
		if err != nil || string(back) != payload {
			t.Errorf("parseFrame(appendFrame(%q)) = %q, %v", payload, back, err)
		}
	}
}

// TestMarshalJobWireMatchesMarshalJob pins the scalar-spec wire memo to
// workload.MarshalJob byte-for-byte: the WAL stores one wire format
// whichever path rendered it, so recovery and the chaos harness never see a
// cache-dependent byte. Exercises the cold path (miss fills the tail), the
// hot path (tail prefixed with fresh id/release), and the structured-spec
// bypass (nil entry).
func TestMarshalJobWireMatchesMarshalJob(t *testing.T) {
	sh := &shard{}
	spec := JobSpec{W: 16, L: 2, Deadline: 40, Profit: ScalarProfit(3)}
	for i, id := range []int{1, 9, 1234567} {
		g, fn, ce, err := sh.buildSpec(spec)
		if err != nil {
			t.Fatalf("buildSpec: %v", err)
		}
		if ce == nil {
			t.Fatal("scalar spec returned nil cache entry")
		}
		job := &sim.Job{ID: id, Graph: g, Release: int64(i * 7), Profit: fn}
		want, err := workload.MarshalJob(job)
		if err != nil {
			t.Fatalf("MarshalJob: %v", err)
		}
		got, err := sh.marshalJobWire(ce, job)
		if err != nil {
			t.Fatalf("marshalJobWire: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("id=%d release=%d:\n got %s\nwant %s", id, job.Release, got, want)
		}
	}
	if len(sh.wireCache) != 1 {
		t.Errorf("wireCache holds %d entries, want 1 (one scalar shape)", len(sh.wireCache))
	}
	// A second shape must not collide with the first.
	spec2 := JobSpec{W: 9, L: 3, Deadline: 12, Profit: ScalarProfit(0.5)}
	g2, fn2, ce2, err := sh.buildSpec(spec2)
	if err != nil {
		t.Fatalf("buildSpec(spec2): %v", err)
	}
	job2 := &sim.Job{ID: 2, Graph: g2, Release: 5, Profit: fn2}
	want2, _ := workload.MarshalJob(job2)
	sh.marshalJobWire(ce2, job2) // cold: fills the tail
	got2, err := sh.marshalJobWire(ce2, job2)
	if err != nil {
		t.Fatalf("marshalJobWire(spec2): %v", err)
	}
	if !bytes.Equal(got2, want2) {
		t.Errorf("spec2:\n got %s\nwant %s", got2, want2)
	}
	// nil entry (structured specs) must defer to MarshalJob unchanged.
	got3, err := sh.marshalJobWire(nil, job2)
	if err != nil {
		t.Fatalf("marshalJobWire(nil): %v", err)
	}
	if !bytes.Equal(got3, want2) {
		t.Errorf("nil entry:\n got %s\nwant %s", got3, want2)
	}
}

// TestBuildSpecSharesGraph asserts cache hits reuse the synthesized DAG —
// the allocation the scalar cache exists to remove — and that build errors
// are not cached.
func TestBuildSpecSharesGraph(t *testing.T) {
	sh := &shard{}
	spec := JobSpec{W: 16, L: 2, Deadline: 40, Profit: ScalarProfit(3)}
	g1, _, _, err := sh.buildSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	g2, _, _, err := sh.buildSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Error("cache hit rebuilt the DAG; want shared immutable graph")
	}
	if _, _, _, err := sh.buildSpec(JobSpec{W: 2, L: 9}); err == nil {
		t.Error("invalid spec (l > w) built; want error")
	}
	if len(sh.wireCache) != 1 {
		t.Errorf("error was cached: %d entries, want 1", len(sh.wireCache))
	}
}

// TestBuildSpecSharesGraphPerShape: scalar specs that differ only in
// deadline, profit or commitment are distinct cache entries but run on one
// graph per (w, l), as does an uncached curve spec of that (w, l), while
// another (w, l) gets its own.
func TestBuildSpecSharesGraphPerShape(t *testing.T) {
	sh := &shard{}
	specs := []JobSpec{
		{W: 16, L: 2, Deadline: 40, Profit: ScalarProfit(3)},
		{W: 16, L: 2, Deadline: 41, Profit: ScalarProfit(3)},
		{W: 16, L: 2, Deadline: 40, Profit: ScalarProfit(5)},
		{W: 16, L: 2, Deadline: 40, Profit: ScalarProfit(3), Commitment: "on-arrival"},
	}
	var first *dag.DAG
	for k, spec := range specs {
		g, _, ce, err := sh.buildSpec(spec)
		if err != nil || ce == nil {
			t.Fatalf("spec %d: buildSpec = %v, entry %v", k, err, ce)
		}
		if k == 0 {
			first = g
		} else if g != first {
			t.Errorf("spec %d: same (w, l) built a second graph", k)
		}
	}
	curve := JobSpec{W: 16, L: 2, Curve: &workload.ProfitSpec{Kind: "step", Value: 3, Deadline: 40}}
	if g, _, ce, err := sh.buildSpec(curve); err != nil || ce != nil || g != first {
		t.Errorf("curve spec: buildSpec = %v, entry %v, shared graph %v; want no entry and the shared graph", err, ce, g == first)
	}
	if len(sh.wireCache) != len(specs) || len(sh.graphs) != 1 {
		t.Errorf("%d cache entries over %d graphs, want %d over 1", len(sh.wireCache), len(sh.graphs), len(specs))
	}
	other, _, _, err := sh.buildSpec(JobSpec{W: 16, L: 4, Deadline: 40, Profit: ScalarProfit(3)})
	if err != nil {
		t.Fatal(err)
	}
	if other == first || other.TotalWork() != 16 || other.Span() != 4 {
		t.Errorf("(16, 4) got graph %p W=%d L=%d; want its own, W=16 L=4", other, other.TotalWork(), other.Span())
	}
	if _, _, _, err := sh.buildSpec(JobSpec{W: 2, L: 9}); err == nil || len(sh.graphs) != 2 {
		t.Errorf("invalid (w, l): err %v, %d graphs; want an error and nothing memoized", err, len(sh.graphs))
	}
}
