package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dagsched/internal/dag"
	"dagsched/internal/profit"
	"dagsched/internal/sim"
)

// The job-record codec is checked against the encoding/json implementation
// it stands in for, kept here as the reference.

func referenceUnmarshalJob(data []byte) (*sim.Job, error) {
	var jj jobJSON
	if err := json.Unmarshal(data, &jj); err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	fn, err := decodeProfit(jj.Profit)
	if err != nil {
		return nil, err
	}
	j := &sim.Job{ID: jj.ID, Release: jj.Release, Graph: jj.Graph, Profit: fn, Commitment: jj.Commitment}
	if err := j.Validate(); err != nil {
		return nil, err
	}
	return j, nil
}

func referenceMarshalJob(j *sim.Job) ([]byte, error) {
	pj, err := encodeProfit(j.Profit)
	if err != nil {
		return nil, err
	}
	return json.Marshal(jobJSON{ID: j.ID, Release: j.Release, Graph: j.Graph, Profit: pj, Commitment: j.Commitment})
}

// checkJobCodec asserts UnmarshalJob agrees with the reference on data —
// same error text, or equal jobs — also through a GraphTable, whose second
// decode runs on the graph its first one left there, and that MarshalJob of
// an accepted job writes the reference's bytes.
func checkJobCodec(t *testing.T, data []byte) {
	t.Helper()
	got, gotErr := UnmarshalJob(data)
	want, wantErr := referenceUnmarshalJob(data)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("UnmarshalJob(%q) err=%v; reference err=%v", data, gotErr, wantErr)
	}
	tab := NewGraphTable(1)
	for pass := 0; pass < 2; pass++ {
		shared, err := tab.UnmarshalJob(data)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || (err == nil && !reflect.DeepEqual(shared, want)) {
			t.Fatalf("GraphTable pass %d: UnmarshalJob(%q) = %+v, %v; reference %+v, %v", pass, data, shared, err, want, wantErr)
		}
	}
	if gotErr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("UnmarshalJob(%q) = %+v; reference %+v", data, got, want)
	}
	checkMarshalJob(t, got)
}

func checkMarshalJob(t *testing.T, j *sim.Job) {
	t.Helper()
	enc, encErr := MarshalJob(j)
	ref, refErr := referenceMarshalJob(j)
	if fmt.Sprint(encErr) != fmt.Sprint(refErr) || !bytes.Equal(enc, ref) {
		t.Fatalf("MarshalJob(%+v) = %s, %v; json.Marshal %s, %v", j, enc, encErr, ref, refErr)
	}
}

// codecJobRecords returns MarshalJob's records of generated jobs across the
// profit kinds and commitments, and records around the canonical shape.
func codecJobRecords(t testing.TB) (canonical, others [][]byte) {
	for _, kind := range []ProfitKind{ProfitStep, ProfitLinear, ProfitExp} {
		inst, err := Generate(Config{Seed: int64(kind) + 1, N: 12, M: 4, Eps: 1, Load: 1, Profit: kind})
		if err != nil {
			t.Fatal(err)
		}
		for k, j := range inst.Jobs {
			j.Commitment = []sim.Commitment{"", sim.CommitmentDelta, sim.CommitmentNone, sim.CommitmentOnArrival}[k%4]
			data, err := MarshalJob(j)
			if err != nil {
				t.Fatal(err)
			}
			canonical = append(canonical, data)
		}
	}
	const g = `"graph":{"work":[2,1],"edges":[[0,1]]}`
	for _, rec := range []string{
		`{"id":1,"release":0,` + g + `,"profit":{"kind":"piecewise","until":[4,9],"values":[3,1]}}`,
		`{"id":1,"release":0,` + g + `,"profit":{"kind":"step","value":2.5}}`,
		`{"id":1,"release":0,` + g + `,"profit":{"kind":"step","deadline":9}}`,
		`{"id":1,"release":0,` + g + `,"profit":{"kind":"step","value":1e-7,"deadline":9}}`,
		`{"id":1,"release":0,` + g + `,"profit":{"kind":"step","value":0.30000000000000004,"deadline":9}}`,
		`{"id":1,"release":0,` + g + `,"profit":{"kind":"step","value":2,"deadline":9,"flat":0}}`,
		`{"id":1,"release":0,` + g + `,"profit":{"value":2,"kind":"step","deadline":9}}`,
		`{"id":1,"release":0,` + g + `,"profit":{"Kind":"step","value":2,"deadline":9}}`,
		`{"id":1,"release":0,` + g + `,"profit":{"kind":"nope","value":2,"deadline":9}}`,
		`{"id":1,"release":0,` + g + `,"profit":{"kind":"step","value":"2","deadline":9}}`,
		`{"id":1,"release":0,` + g + `,"profit":null}`,
		`{"id":1,"release":0,` + g + `,"profit":3}`,
		`{"id":1,"release":-4,` + g + `,"profit":{"kind":"step","value":2,"deadline":9}}`,
		`{"id":1,"release":0,` + g + `,"profit":{"kind":"step","value":2,"deadline":9},"commitment":"delta"}`,
		`{"id":1,"release":0,` + g + `,"profit":{"kind":"step","value":2,"deadline":9},"commitment":"eventually"}`,
		`{"id":1,"release":0,` + g + `,"profit":{"kind":"step","value":2,"deadline":9},"commitment":""}`,
		`{"id":1,"release":0,` + g + `,"profit":{"kind":"step","value":2,"deadline":9},"id":7}`,
		`{"id":1,"release":0,` + g + `,"profit":{"kind":"step","value":2,"deadline":9},"ID":7}`,
		`{"id":1,"release":0,"graph":null,"profit":{"kind":"step","value":2,"deadline":9}}`,
		`{"id":1,"release":0,"graph":{"work":[1,1],"edges":[[0,1],[1,0]]},"profit":{"kind":"step","value":2,"deadline":9}}`,
		`{"id":1,"release":0,"graph":{"work":[1],"edges":[]},"profit":{"kind":"step","value":2,"deadline":9}} `,
		`{"id":1, "release":0,"graph":{"work":[1],"edges":[]},"profit":{"kind":"step","value":2,"deadline":9}}`,
		`{"id":1,"release":0,"graph":{"work":[1],"edges":[]},"profit":{"kind":"step","value":2,"deadline":9}`,
		`{"id":"1","release":0,"graph":{"work":[1,1],"edges":[[0,1],[1,0]]},"profit":{"kind":"step","value":2,"deadline":9}}`,
	} {
		others = append(others, []byte(rec))
	}
	return canonical, others
}

// TestJobCodecMatchesReference runs the codec check over generated jobs of
// every profit kind and commitment, which the one-pass decoder must take,
// and over records around the canonical shape.
func TestJobCodecMatchesReference(t *testing.T) {
	canonical, others := codecJobRecords(t)
	for _, rec := range canonical {
		if _, ok := (*GraphTable)(nil).parseJob(rec); !ok {
			t.Errorf("canonical record %s left the one-pass decoder", rec)
		}
		checkJobCodec(t, rec)
	}
	for _, rec := range others {
		checkJobCodec(t, rec)
	}
	// Values the fast encoder declines: non-finite profits and commitments
	// encoding/json escapes. MarshalJob must still answer as json.Marshal.
	g := dag.Chain(2, 1)
	for _, j := range []*sim.Job{
		{ID: 1, Graph: g, Profit: profit.Step{Value: math.NaN(), Deadline: 4}},
		{ID: 1, Graph: g, Profit: profit.Step{Value: math.Inf(-1), Deadline: 4}},
		{ID: 1, Graph: g, Profit: profit.LinearDecay{Peak: math.Inf(1), Flat: 1, ZeroAt: 4}},
		{ID: 1, Graph: g, Profit: profit.Step{Value: 1, Deadline: 4}, Commitment: "<&>"},
		{ID: 1, Graph: g, Profit: profit.Step{Value: 1, Deadline: 4}, Commitment: "é\n"},
		{ID: 1, Profit: profit.Step{Value: -0.0, Deadline: 0}},
	} {
		checkMarshalJob(t, j)
	}
}

// TestGraphTableSharesGraphs: records whose graph members are byte-equal
// share one graph through a table, whatever else differs; other graphs get
// their own; the table holds no more than its bound; and without a table
// nothing is shared.
func TestGraphTableSharesGraphs(t *testing.T) {
	const g1 = `"graph":{"work":[2,1],"edges":[[0,1]]}`
	const g2 = `"graph":{"work":[2,1],"edges":[]}`
	step := `,"profit":{"kind":"step","value":2,"deadline":9}`
	records := []string{
		`{"id":1,"release":0,` + g1 + step + `}`,
		`{"id":2,"release":5,` + g1 + `,"profit":{"kind":"step","value":7,"deadline":3},"commitment":"delta"}`,
		`{"id":3,"release":5,` + g2 + step + `}`,
		`{"id":4,"release":6,` + g2 + step + `}`,
		`{"id":5,"release":6,` + g1 + `,"profit":{"kind":"linear","peak":4,"flat":1,"zeroAt":9}}`,
	}
	tab := NewGraphTable(1)
	var graphs []*dag.DAG
	for _, rec := range records {
		j, err := tab.UnmarshalJob([]byte(rec))
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, j.Graph)
	}
	if graphs[0] != graphs[1] || graphs[0] != graphs[4] {
		t.Error("byte-equal graph members decoded to distinct graphs")
	}
	if graphs[2] == graphs[0] || graphs[2] == graphs[3] || len(tab.graphs) != 1 {
		t.Errorf("a table bounded at 1 holds %d graphs, or shared a graph it could not hold", len(tab.graphs))
	}
	a, _ := UnmarshalJob([]byte(records[0]))
	b, _ := UnmarshalJob([]byte(records[1]))
	if a.Graph == b.Graph {
		t.Error("UnmarshalJob without a table shared a graph")
	}
}

// fixtureJobRecords returns the job records the serving tier's
// schema-compat fixtures hold: the records a real daemon wrote.
func fixtureJobRecords(f *testing.F) [][]byte {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "serve", "testdata", "schema_compat", "*"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no schema-compat fixtures (%v)", err)
	}
	type record struct {
		Job json.RawMessage `json:"job"`
	}
	var out [][]byte
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
			var frame struct {
				record
				Jobs []record `json:"jobs"`
			}
			if len(line) < 9 || json.Unmarshal(line[9:], &frame) != nil {
				f.Fatalf("%s: not a framed record: %q", p, line)
			}
			for _, r := range append(frame.Jobs, frame.record) {
				if len(r.Job) > 0 {
					out = append(out, r.Job)
				}
			}
		}
	}
	return out
}

// FuzzJobCodec: UnmarshalJob accepts and rejects exactly what the
// encoding/json reference does, with the same error text and an equal job,
// and MarshalJob of every accepted job writes json.Marshal's bytes.
func FuzzJobCodec(f *testing.F) {
	for _, rec := range fixtureJobRecords(f) {
		f.Add(rec)
	}
	canonical, others := codecJobRecords(f)
	for _, rec := range append(canonical, others...) {
		f.Add(rec)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkJobCodec(t, data)
	})
}

// FuzzMarshalJob: MarshalJob writes json.Marshal's bytes (or its error) for
// jobs built without the profit constructors' checks, so non-finite values,
// zero fields and arbitrary commitment strings reach the encoder.
func FuzzMarshalJob(f *testing.F) {
	f.Add(1, int64(0), uint8(0), 10.0, int64(40), "", 3)
	f.Add(7, int64(12), uint8(1), 0.1, int64(5), "delta", 1)
	f.Add(-3, int64(-9), uint8(2), math.Inf(1), int64(0), "<on-arrival>", 0)
	f.Add(2, int64(3), uint8(3), 1e-9, int64(8), "none", 6)
	f.Fuzz(func(t *testing.T, id int, release int64, kind uint8, value float64, horizon int64, commitment string, nodes int) {
		var fn profit.Fn
		switch kind % 4 {
		case 0:
			fn = profit.Step{Value: value, Deadline: horizon}
		case 1:
			fn = profit.LinearDecay{Peak: value, Flat: horizon / 2, ZeroAt: horizon}
		case 2:
			fn = profit.ExpDecay{Peak: value, Flat: horizon / 3, HalfLife: horizon / 2, Cutoff: horizon}
		default:
			fn = profit.PiecewiseConstant{Until: []int64{horizon}, Values: []float64{value}}
		}
		j := &sim.Job{ID: id, Release: release, Profit: fn, Commitment: sim.Commitment(commitment)}
		if nodes > 0 {
			j.Graph = dag.ForkJoin(1+nodes%4, 1+nodes%5, 1+int64(nodes%3))
		}
		checkMarshalJob(t, j)
	})
}
