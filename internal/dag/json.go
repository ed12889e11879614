package dag

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"dagsched/internal/fastjson"
)

// dagJSON is the serialized form: node works plus an edge list.
type dagJSON struct {
	Work  []int64     `json:"work"`
	Edges [][2]NodeID `json:"edges"`
}

// The canonical form is the one MarshalJSON writes: {"work":[…],"edges":
// [[u,v],…]} with the keys in that order, no whitespace, and plain
// unsigned integers. It is the form every encoder in the repository
// produces, so recovery, instance loading and explicit-DAG submissions
// decode it with one pass over the bytes straight into the graph. Any other
// input — reordered, repeated or case-folded keys, whitespace, signs,
// exponents, null, an edge that is not a pair, malformed bytes — and any
// graph Build rejects is decoded by encoding/json instead, so what a graph
// decodes to, and the error a bad one gets, never depend on the path.

// MarshalJSON encodes the DAG as {"work":[...],"edges":[[u,v],...]}, the
// bytes json.Marshal writes for that shape.
func (g *DAG) MarshalJSON() ([]byte, error) {
	return g.AppendJSON(make([]byte, 0, 16+8*len(g.work))), nil
}

// AppendJSON appends the DAG's MarshalJSON encoding to b.
func (g *DAG) AppendJSON(b []byte) []byte {
	if g.work == nil {
		b = append(b, `{"work":null`...)
	} else {
		b = append(b, `{"work":[`...)
		for v, w := range g.work {
			if v > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, w, 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"edges":[`...)
	first := true
	for v := range g.work {
		for _, u := range g.succs(NodeID(v)) {
			if !first {
				b = append(b, ',')
			}
			first = false
			b = append(b, '[')
			b = strconv.AppendInt(b, int64(v), 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(u), 10)
			b = append(b, ']')
		}
	}
	return append(b, "]}"...)
}

// UnmarshalJSON decodes and validates a DAG, recomputing W, L, and the
// topological order.
func (g *DAG) UnmarshalJSON(data []byte) error {
	if built, next, ok := ParseJSON(data, 0); ok && next == len(data) {
		*g = *built
		return nil
	}
	var in dagJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("dag: %w", err)
	}
	b := NewBuilder()
	for _, w := range in.Work {
		b.AddNode(w)
	}
	for _, e := range in.Edges {
		b.AddEdge(e[0], e[1])
	}
	built, err := b.Build()
	if err != nil {
		return err
	}
	*g = *built
	return nil
}

// ParseJSON decodes the canonical graph form starting exactly at data[i]
// and returns the built graph and the index after it. ok=false means the
// bytes there are off the canonical form or describe a graph Build rejects;
// the caller then decodes with encoding/json (UnmarshalJSON), which gives
// the same graph or the error. A graph ParseJSON returns is the one
// UnmarshalJSON decodes from the same bytes.
func ParseJSON(data []byte, i int) (g *DAG, next int, ok bool) {
	if i, ok = fastjson.HasLit(data, i, `{"work":[`); !ok {
		return nil, i, false
	}
	var work []int64
	if next, empty := fastjson.HasLit(data, i, `]`); empty {
		i = next
	} else {
		for {
			var w int64
			if w, i, ok = parseNat(data, i, math.MaxInt64); !ok || w == 0 {
				return nil, i, false
			}
			work = append(work, w)
			if next, more := fastjson.HasLit(data, i, `,`); more {
				i = next
				continue
			}
			if i, ok = fastjson.HasLit(data, i, `]`); !ok {
				return nil, i, false
			}
			break
		}
	}
	if i, ok = fastjson.HasLit(data, i, `,"edges":[`); !ok || len(work) == 0 {
		return nil, i, false
	}
	var edges [][2]NodeID
	if next, empty := fastjson.HasLit(data, i, `]`); empty {
		i = next
	} else {
		n := int64(len(work))
		for {
			var u, v int64
			if i, ok = fastjson.HasLit(data, i, `[`); !ok {
				return nil, i, false
			}
			if u, i, ok = parseNat(data, i, n-1); !ok {
				return nil, i, false
			}
			if i, ok = fastjson.HasLit(data, i, `,`); !ok {
				return nil, i, false
			}
			if v, i, ok = parseNat(data, i, n-1); !ok || v == u {
				return nil, i, false
			}
			if i, ok = fastjson.HasLit(data, i, `]`); !ok {
				return nil, i, false
			}
			edges = append(edges, [2]NodeID{NodeID(u), NodeID(v)})
			if next, more := fastjson.HasLit(data, i, `,`); more {
				i = next
				continue
			}
			if i, ok = fastjson.HasLit(data, i, `]`); !ok {
				return nil, i, false
			}
			break
		}
	}
	if i, ok = fastjson.HasLit(data, i, `}`); !ok {
		return nil, i, false
	}
	built, err := build(work, edges)
	if err != nil {
		return nil, i, false
	}
	return built, i, true
}

// parseNat scans an unsigned integer no larger than max, leaving signs and
// anything larger to encoding/json.
func parseNat(data []byte, i int, max int64) (int64, int, bool) {
	if i < len(data) && data[i] == '-' {
		return 0, i, false
	}
	v, next, ok := fastjson.ParseInt(data, i)
	return v, next, ok && v <= max
}
