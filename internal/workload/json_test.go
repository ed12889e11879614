package workload

import (
	"testing"

	"dagsched/internal/dag"
	"dagsched/internal/profit"
	"dagsched/internal/sim"
)

// TestJobWireRoundTrip checks MarshalJob/UnmarshalJob preserve a job across
// the wire byte-identically on re-marshal — the WAL replay contract.
func TestJobWireRoundTrip(t *testing.T) {
	fns := []profit.Fn{
		mustFn(t)(profit.NewStep(10, 25)),
		mustFn(t)(profit.NewLinearDecay(8, 5, 40)),
		mustFn(t)(profit.NewExpDecay(6, 2, 4, 64)),
		mustFn(t)(profit.NewPiecewiseConstant([]int64{10, 20}, []float64{5, 2})),
	}
	for i, fn := range fns {
		j := &sim.Job{ID: i + 1, Graph: dag.ForkJoin(2, 3, 2), Release: int64(i * 3), Profit: fn}
		data, err := MarshalJob(j)
		if err != nil {
			t.Fatalf("marshal %d: %v", i, err)
		}
		back, err := UnmarshalJob(data)
		if err != nil {
			t.Fatalf("unmarshal %d: %v", i, err)
		}
		if back.ID != j.ID || back.Release != j.Release {
			t.Fatalf("job %d: got ID=%d release=%d", i, back.ID, back.Release)
		}
		data2, err := MarshalJob(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(data2) {
			t.Fatalf("job %d round trip not byte-identical:\n%s\n%s", i, data, data2)
		}
	}
}

func TestUnmarshalJobRejectsBad(t *testing.T) {
	for _, bad := range []string{
		`{`,
		`{"id":1,"release":0,"graph":null,"profit":{"kind":"step","value":1,"deadline":5}}`,
		`{"id":1,"release":0,"graph":{"work":[1],"edges":[]},"profit":{"kind":"nope"}}`,
	} {
		if _, err := UnmarshalJob([]byte(bad)); err == nil {
			t.Fatalf("accepted %s", bad)
		}
	}
}

// TestProfitSpecDecode checks the exported encode/decode pair agrees with
// the instance wire format.
func TestProfitSpecDecode(t *testing.T) {
	fn := mustFn(t)(profit.NewStep(3, 9))
	spec, err := EncodeProfit(fn)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kind != "step" || spec.Value != 3 || spec.Deadline != 9 {
		t.Fatalf("spec = %+v", spec)
	}
	back, err := spec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if back.At(9) != 3 || back.At(10) != 0 {
		t.Fatalf("decoded profit wrong: At(9)=%v At(10)=%v", back.At(9), back.At(10))
	}
}

func mustFn(t *testing.T) func(profit.Fn, error) profit.Fn {
	t.Helper()
	return func(fn profit.Fn, err error) profit.Fn {
		if err != nil {
			t.Fatal(err)
		}
		return fn
	}
}
