package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"dagsched/internal/dag"
	"dagsched/internal/fastjson"
	"dagsched/internal/profit"
	"dagsched/internal/sim"
)

// The wire format keeps instances reproducible across runs and tools:
// cmd/dag-gen writes them, cmd/spaa-sim reads them.

type instanceJSON struct {
	Name string    `json:"name"`
	M    int       `json:"m"`
	Seed int64     `json:"seed"`
	Jobs []jobJSON `json:"jobs"`
}

type jobJSON struct {
	ID      int        `json:"id"`
	Release int64      `json:"release"`
	Graph   *dag.DAG   `json:"graph"`
	Profit  ProfitSpec `json:"profit"`
	// Commitment is emitted only when the job requests a level of its own;
	// the common default keeps v1 instance files and WAL frames byte-stable.
	Commitment sim.Commitment `json:"commitment,omitempty"`
}

// ProfitSpec is the tagged-union wire form of a profit function, shared by
// instance files and the serving API's job submissions. Kind is one of
// "step", "linear", "exp", "piecewise"; the other fields apply per kind,
// mirroring the profit constructors.
type ProfitSpec struct {
	Kind     string    `json:"kind"`
	Value    float64   `json:"value,omitempty"`
	Deadline int64     `json:"deadline,omitempty"`
	Flat     int64     `json:"flat,omitempty"`
	ZeroAt   int64     `json:"zeroAt,omitempty"`
	HalfLife int64     `json:"halfLife,omitempty"`
	Cutoff   int64     `json:"cutoff,omitempty"`
	Until    []int64   `json:"until,omitempty"`
	Values   []float64 `json:"values,omitempty"`
}

func encodeProfit(fn profit.Fn) (ProfitSpec, error) {
	switch p := fn.(type) {
	case profit.Step:
		return ProfitSpec{Kind: "step", Value: p.Value, Deadline: p.Deadline}, nil
	case profit.LinearDecay:
		return ProfitSpec{Kind: "linear", Value: p.Peak, Flat: p.Flat, ZeroAt: p.ZeroAt}, nil
	case profit.ExpDecay:
		return ProfitSpec{Kind: "exp", Value: p.Peak, Flat: p.Flat, HalfLife: p.HalfLife, Cutoff: p.Cutoff}, nil
	case profit.PiecewiseConstant:
		return ProfitSpec{Kind: "piecewise", Until: p.Until, Values: p.Values}, nil
	default:
		return ProfitSpec{}, fmt.Errorf("workload: cannot serialize profit %T", fn)
	}
}

// EncodeProfit renders a profit function as its wire spec. It errors on
// families the wire format does not cover.
func EncodeProfit(fn profit.Fn) (ProfitSpec, error) { return encodeProfit(fn) }

// Decode builds the profit function the spec describes, validating its
// parameters through the profit constructors.
func (pj ProfitSpec) Decode() (profit.Fn, error) { return decodeProfit(pj) }

func decodeProfit(pj ProfitSpec) (profit.Fn, error) {
	switch pj.Kind {
	case "step":
		return profit.NewStep(pj.Value, pj.Deadline)
	case "linear":
		return profit.NewLinearDecay(pj.Value, pj.Flat, pj.ZeroAt)
	case "exp":
		return profit.NewExpDecay(pj.Value, pj.Flat, pj.HalfLife, pj.Cutoff)
	case "piecewise":
		return profit.NewPiecewiseConstant(pj.Until, pj.Values)
	default:
		return nil, fmt.Errorf("workload: unknown profit kind %q", pj.Kind)
	}
}

// MarshalJSON implements json.Marshaler.
func (in *Instance) MarshalJSON() ([]byte, error) {
	out := instanceJSON{Name: in.Name, M: in.M, Seed: in.Seed}
	for _, j := range in.Jobs {
		pj, err := encodeProfit(j.Profit)
		if err != nil {
			return nil, err
		}
		out.Jobs = append(out.Jobs, jobJSON{ID: j.ID, Release: j.Release, Graph: j.Graph, Profit: pj, Commitment: j.Commitment})
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler and validates the result.
func (in *Instance) UnmarshalJSON(data []byte) error {
	var raw instanceJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	out := Instance{Name: raw.Name, M: raw.M, Seed: raw.Seed}
	for _, jj := range raw.Jobs {
		fn, err := decodeProfit(jj.Profit)
		if err != nil {
			return err
		}
		out.Jobs = append(out.Jobs, &sim.Job{ID: jj.ID, Release: jj.Release, Graph: jj.Graph, Profit: fn, Commitment: jj.Commitment})
	}
	if err := out.Validate(); err != nil {
		return err
	}
	*in = out
	return nil
}

// MarshalJob renders one job in the instance wire format (one element of an
// instance's "jobs" array). The serving WAL stores each accepted job in
// exactly this form, so a replayed session feeds sim.RunAuto the same
// bytes an instance file would.
func MarshalJob(j *sim.Job) ([]byte, error) {
	pj, err := encodeProfit(j.Profit)
	if err != nil {
		return nil, err
	}
	if b, ok := encodeJob(j, &pj); ok {
		return b, nil
	}
	return json.Marshal(jobJSON{ID: j.ID, Release: j.Release, Graph: j.Graph, Profit: pj, Commitment: j.Commitment})
}

// UnmarshalJob parses and validates one job in the instance wire format.
func UnmarshalJob(data []byte) (*sim.Job, error) { return (*GraphTable)(nil).UnmarshalJob(data) }

// GraphTable shares the graphs of decoded job records: a canonical record
// whose "graph" member is byte for byte one the table already decoded runs
// on that validated graph, which is immutable, instead of decoding it
// again. It holds at most the bound NewGraphTable was given; past it, new
// graphs just decode. A nil table shares nothing. Not safe for concurrent
// use.
type GraphTable struct {
	graphs map[string]*dag.DAG
	max    int
}

// NewGraphTable returns an empty table holding at most max graphs.
func NewGraphTable(max int) *GraphTable { return &GraphTable{max: max} }

// UnmarshalJob is the package's UnmarshalJob sharing graphs through t. Only
// the canonical record path consults the table; a record decoded by
// encoding/json gets a graph of its own, as without a table.
func (t *GraphTable) UnmarshalJob(data []byte) (*sim.Job, error) {
	if j, ok := t.parseJob(data); ok {
		return j, nil
	}
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

// The job-record codec. MarshalJob writes a job as
// {"id":N,"release":R,"graph":G,"profit":P} plus ,"commitment":C when the
// job carries one — the bytes json.Marshal writes for jobJSON — and
// UnmarshalJob reads that canonical shape in one pass: the graph through
// dag.ParseJSON, a step profit (nearly every durable record) exactly, any
// other profit kind with json.Unmarshal on the profit member alone. A record
// off the canonical shape, or one that fails any check, is decoded by
// encoding/json from the start, so the job a record decodes to and the
// error a bad one gets never depend on the path.

// encodeJob renders j's MarshalJob encoding with the already encoded
// profit pj. ok=false (a string encoding/json would escape, a non-finite
// profit value) leaves the record to json.Marshal.
func encodeJob(j *sim.Job, pj *ProfitSpec) ([]byte, bool) {
	if !fastjson.Plain(string(j.Commitment)) {
		return nil, false
	}
	size := 64
	if j.Graph != nil {
		size += 12 * j.Graph.NumNodes()
	}
	b := make([]byte, 0, size)
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, int64(j.ID), 10)
	b = append(b, `,"release":`...)
	b = strconv.AppendInt(b, j.Release, 10)
	b = append(b, `,"graph":`...)
	if j.Graph == nil {
		b = append(b, "null"...)
	} else {
		b = j.Graph.AppendJSON(b)
	}
	b = append(b, `,"profit":`...)
	if pj.Kind == "step" {
		if math.IsNaN(pj.Value) || math.IsInf(pj.Value, 0) {
			return nil, false
		}
		b = append(b, `{"kind":"step"`...)
		if pj.Value != 0 {
			b = append(b, `,"value":`...)
			b = fastjson.AppendFloat(b, pj.Value)
		}
		if pj.Deadline != 0 {
			b = append(b, `,"deadline":`...)
			b = strconv.AppendInt(b, pj.Deadline, 10)
		}
		b = append(b, '}')
	} else {
		p, err := json.Marshal(pj)
		if err != nil {
			return nil, false
		}
		b = append(b, p...)
	}
	if j.Commitment != "" {
		b = append(b, `,"commitment":"`...)
		b = append(b, j.Commitment...)
		b = append(b, '"')
	}
	return append(b, '}'), true
}

// parseJob decodes and validates a canonical job record. ok=false means
// the record is off the canonical shape or fails a check; the caller decodes
// it with encoding/json instead.
func (t *GraphTable) parseJob(data []byte) (*sim.Job, bool) {
	id, release, tail, ok := fastjson.SplitJobWire(data)
	if !ok || int64(int(id)) != id {
		return nil, false
	}
	i, ok := fastjson.HasLit(tail, 0, `,"graph":`)
	if !ok {
		return nil, false
	}
	g, i, ok := t.parseGraph(tail, i)
	if !ok {
		return nil, false
	}
	if i, ok = fastjson.HasLit(tail, i, `,"profit":`); !ok {
		return nil, false
	}
	fn, i, ok := parseProfit(tail, i)
	if !ok {
		return nil, false
	}
	var c sim.Commitment
	if next, has := fastjson.HasLit(tail, i, `,"commitment":`); has {
		var s []byte
		if s, i, ok = fastjson.ParseString(tail, next); !ok {
			return nil, false
		}
		c = commitment(s)
	}
	if i, ok = fastjson.HasLit(tail, i, `}`); !ok || i != len(tail) {
		return nil, false
	}
	j := &sim.Job{ID: int(id), Release: release, Graph: g, Profit: fn, Commitment: c}
	if j.Validate() != nil {
		return nil, false
	}
	return j, true
}

// parseGraph is dag.ParseJSON through the table. A canonical graph holds
// no object or string, so its member ends at the first '}': bytes equal up
// to there decode to the same graph whatever follows them.
func (t *GraphTable) parseGraph(data []byte, i int) (*dag.DAG, int, bool) {
	if t == nil {
		return dag.ParseJSON(data, i)
	}
	end := bytes.IndexByte(data[i:], '}')
	if end < 0 {
		return nil, i, false
	}
	end += i + 1
	if g, ok := t.graphs[string(data[i:end])]; ok {
		return g, end, true
	}
	g, next, ok := dag.ParseJSON(data, i)
	if ok && next == end && len(t.graphs) < t.max {
		if t.graphs == nil {
			t.graphs = make(map[string]*dag.DAG)
		}
		t.graphs[string(data[i:end])] = g
	}
	return g, next, ok
}

// parseProfit decodes the profit member at data[i]: a canonical step spec
// {"kind":"step"[,"value":V][,"deadline":D]} directly, any other JSON value
// with json.Unmarshal into a ProfitSpec. ok=false when either decode or the
// profit constructor fails.
func parseProfit(data []byte, i int) (profit.Fn, int, bool) {
	if next, ok := fastjson.HasLit(data, i, `{"kind":"step"`); ok {
		var value float64
		var deadline int64
		if v, has := fastjson.HasLit(data, next, `,"value":`); has {
			if value, next, ok = fastjson.ParseFloat(data, v); !ok {
				return nil, i, false
			}
		}
		if d, has := fastjson.HasLit(data, next, `,"deadline":`); has {
			if deadline, next, ok = fastjson.ParseInt(data, d); !ok {
				return nil, i, false
			}
		}
		if next, ok = fastjson.HasLit(data, next, `}`); ok {
			fn, err := profit.NewStep(value, deadline)
			return fn, next, err == nil
		}
	}
	end, ok := fastjson.SkipValue(data, i)
	if !ok {
		return nil, i, false
	}
	var pj ProfitSpec
	if json.Unmarshal(data[i:end], &pj) != nil {
		return nil, i, false
	}
	fn, err := decodeProfit(pj)
	return fn, end, err == nil
}

// commitment converts a decoded commitment level, sharing the constants so
// a decoded history does not hold one copy of the string per job.
func commitment(b []byte) sim.Commitment {
	for _, c := range [...]sim.Commitment{sim.CommitmentNone, sim.CommitmentOnAdmission, sim.CommitmentDelta, sim.CommitmentOnArrival} {
		if string(b) == string(c) {
			return c
		}
	}
	return sim.Commitment(b)
}
