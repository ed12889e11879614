package dag

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The canonical codec and the CSR Build are checked against the
// implementations they replaced, kept here as references: a Build that
// coalesces duplicate edges through a map and grows one adjacency list per
// node by append, and the encoding/json decoder and encoder of the dagJSON
// shape. The reference graph is its own type, compared with a DAG through
// the exported accessors.

type refDAG struct {
	work            []int64
	succs, preds    [][]NodeID
	totalWork, span int64
	order           []NodeID
}

func referenceBuild(b *Builder) (*refDAG, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := len(b.work)
	if n == 0 {
		return nil, ErrEmpty
	}
	g := &refDAG{
		work:  append([]int64(nil), b.work...),
		succs: make([][]NodeID, n),
		preds: make([][]NodeID, n),
	}
	seen := make(map[[2]NodeID]bool, len(b.edges))
	for _, e := range b.edges {
		if seen[e] {
			continue
		}
		seen[e] = true
		g.succs[e[0]] = append(g.succs[e[0]], e[1])
		g.preds[e[1]] = append(g.preds[e[1]], e[0])
	}
	// Kahn's algorithm with a LIFO frontier, the order topoOrder computes.
	indeg := make([]int, n)
	var stack []NodeID
	for v := range indeg {
		if indeg[v] = len(g.preds[v]); indeg[v] == 0 {
			stack = append(stack, NodeID(v))
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g.order = append(g.order, v)
		for _, u := range g.succs[v] {
			if indeg[u]--; indeg[u] == 0 {
				stack = append(stack, u)
			}
		}
	}
	if len(g.order) != n {
		return nil, ErrCycle
	}
	for _, w := range g.work {
		g.totalWork += w
	}
	down := make([]int64, n)
	for i := n - 1; i >= 0; i-- {
		v := g.order[i]
		best := int64(0)
		for _, u := range g.succs[v] {
			best = max(best, down[u])
		}
		down[v] = best + g.work[v]
		g.span = max(g.span, down[v])
	}
	return g, nil
}

// graphDiff describes how g differs from the reference want, "" if it does
// not: node works, W, L, topological order, edge count, and every
// adjacency list through Successors and Predecessors — the same IDs in the
// same order, nil for a node without such edges, capacity equal to length.
func graphDiff(g *DAG, want *refDAG) string {
	if !reflect.DeepEqual(g.work, want.work) || g.TotalWork() != want.totalWork || g.Span() != want.span {
		return fmt.Sprintf("work %v W=%d L=%d, want %v W=%d L=%d", g.work, g.TotalWork(), g.Span(), want.work, want.totalWork, want.span)
	}
	if !reflect.DeepEqual(g.order, want.order) {
		return fmt.Sprintf("order %v, want %v", g.order, want.order)
	}
	edges := 0
	for v := range want.work {
		edges += len(want.succs[v])
		for _, c := range []struct {
			name      string
			got, want []NodeID
		}{
			{"Successors", g.Successors(NodeID(v)), want.succs[v]},
			{"Predecessors", g.Predecessors(NodeID(v)), want.preds[v]},
		} {
			if !reflect.DeepEqual(c.got, c.want) || cap(c.got) != len(c.got) {
				return fmt.Sprintf("%s(%d) = %#v (cap %d), want %#v", c.name, v, c.got, cap(c.got), c.want)
			}
		}
	}
	if g.NumEdges() != edges {
		return fmt.Sprintf("NumEdges %d, want %d", g.NumEdges(), edges)
	}
	return ""
}

func referenceUnmarshal(data []byte) (*refDAG, error) {
	var in dagJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("dag: %w", err)
	}
	b := NewBuilder()
	for _, w := range in.Work {
		b.AddNode(w)
	}
	for _, e := range in.Edges {
		b.AddEdge(e[0], e[1])
	}
	return referenceBuild(b)
}

func referenceMarshal(g *DAG) ([]byte, error) {
	out := dagJSON{Work: g.work, Edges: make([][2]NodeID, 0, g.NumEdges())}
	for v := range g.work {
		for _, u := range g.Successors(NodeID(v)) {
			out.Edges = append(out.Edges, [2]NodeID{NodeID(v), u})
		}
	}
	return json.Marshal(out)
}

// randomBuilder adds n nodes and a shuffled edge list with repeats; with
// forward set every edge points from a lower to a higher ID, so the graph
// is acyclic, and otherwise cycles are likely.
func randomBuilder(rng *rand.Rand, n int, forward bool) *Builder {
	b := NewBuilder()
	for v := 0; v < n; v++ {
		b.AddNode(1 + rng.Int63n(5))
	}
	if n < 2 {
		return b
	}
	for k := rng.Intn(3 * n); k > 0; k-- {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		if forward && u > v {
			u, v = v, u
		}
		b.AddEdge(u, v)
		if rng.Intn(4) == 0 {
			b.AddEdge(u, v) // an immediate repeat
		}
	}
	if m := len(b.edges); m > 0 {
		for k := rng.Intn(m); k > 0; k-- {
			b.AddEdge(b.edges[rng.Intn(m)][0], b.edges[rng.Intn(m)][1]) // a later repeat, or a new edge
		}
	}
	return b
}

// TestBuildMatchesReference: Build gives the reference's DAG — adjacency
// lists in first-occurrence input order, nil lists for nodes without
// edges — or its error, over random graphs with repeated edges.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		b := randomBuilder(rng, 1+rng.Intn(24), trial%3 != 0)
		got, gotErr := b.Build()
		want, wantErr := referenceBuild(b)
		if gotErr != wantErr {
			t.Fatalf("trial %d: edges %v: Build error %v, reference %v", trial, b.edges, gotErr, wantErr)
		}
		if gotErr == nil {
			if d := graphDiff(got, want); d != "" {
				t.Fatalf("trial %d: edges %v: %s", trial, b.edges, d)
			}
		}
	}
}

// TestMarshalJSONMatchesReference: MarshalJSON writes json.Marshal's bytes
// for every shape, the zero DAG included, and the canonical decoder reads
// them back to the graph the reference decoder reads.
func TestMarshalJSONMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	graphs := []*DAG{
		{}, Chain(1, 3), Chain(5, 2), Block(4, 1), Figure1(4, 6), Figure2(3, 4), ForkJoin(2, 3, 4),
		Layered(rng, 4, 5, 9, 0.5), SeriesParallel(rng, 4, 7), WideChain(3, 4, 2),
	}
	for trial := 0; trial < 50; trial++ {
		if g, err := randomBuilder(rng, 1+rng.Intn(40), true).Build(); err == nil {
			graphs = append(graphs, g)
		}
	}
	for k, g := range graphs {
		got, err := g.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceMarshal(g)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("graph %d: MarshalJSON %s, json.Marshal %s", k, got, want)
		}
		if g.NumNodes() == 0 {
			continue
		}
		back, next, ok := ParseJSON(got, 0)
		ref, err := referenceUnmarshal(got)
		if err != nil || !ok || next != len(got) {
			t.Fatalf("graph %d: ParseJSON(%s) = %d, %v; reference error %v", k, got, next, ok, err)
		}
		if d := graphDiff(back, ref); d != "" {
			t.Fatalf("graph %d: ParseJSON(%s): %s", k, got, d)
		}
	}
}

// TestUnmarshalJSONOffCanonical: inputs the canonical decoder declines
// decode as encoding/json decodes them, with its errors.
func TestUnmarshalJSONOffCanonical(t *testing.T) {
	for _, in := range []string{
		`{"work":[1,2],"edges":[[0,1]]}`,
		` {"work":[1,2],"edges":[[0,1]]}`,
		`{"work":[1,2],"edges":[[0,1]]} `,
		`{"work": [1,2], "edges": [[0, 1]]}`,
		`{"edges":[[0,1]],"work":[1,2]}`,
		`{"Work":[1,2],"edges":[[0,1]]}`,
		`{"work":[1,2],"edges":[[0,1]],"work":[3]}`,
		`{"work":[1,2]}`,
		`{"work":[1,2],"edges":null}`,
		`{"work":null,"edges":[]}`,
		`{"work":[],"edges":[]}`,
		`{"work":[1,-2],"edges":[]}`,
		`{"work":[1,0],"edges":[]}`,
		`{"work":[1,2e0],"edges":[]}`,
		`{"work":[1,2],"edges":[[0]]}`,
		`{"work":[1,2],"edges":[[0,1,1]]}`,
		`{"work":[1,2],"edges":[[0,-1]]}`,
		`{"work":[1,2],"edges":[[0,2]]}`,
		`{"work":[1,2],"edges":[[1,1]]}`,
		`{"work":[1,2],"edges":[[0,1],[1,0]]}`,
		`{"work":[1,2],"edges":[[0,4294967297]]}`,
		`{"work":[1,2],"edges":[[0,1],[0,1]]}`,
		`{"work":[1,2],"edges":[[0,1]]`,
		`{"work":[1,2],"edges":[[0,1]]}x`,
		`null`,
		``,
	} {
		var got DAG
		gotErr := got.UnmarshalJSON([]byte(in))
		want, wantErr := referenceUnmarshal([]byte(in))
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("UnmarshalJSON(%s) error %v; reference %v", in, gotErr, wantErr)
		} else if gotErr == nil {
			if d := graphDiff(&got, want); d != "" {
				t.Errorf("UnmarshalJSON(%s): %s", in, d)
			}
		}
	}
}

// fixtureGraphs returns the graph members of the job records in the
// serving tier's schema-compat fixtures: the graphs a real daemon wrote.
func fixtureGraphs(f *testing.F) [][]byte {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "serve", "testdata", "schema_compat", "*"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no schema-compat fixtures (%v)", err)
	}
	type record struct {
		Job struct {
			Graph json.RawMessage `json:"graph"`
		} `json:"job"`
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
				if len(r.Job.Graph) > 0 {
					out = append(out, r.Job.Graph)
				}
			}
		}
	}
	return out
}

// FuzzDAGCodec: UnmarshalJSON, called directly so nothing pre-validates its
// input, accepts and rejects exactly what the encoding/json reference does,
// with the same error text and an equal graph; and MarshalJSON of every
// accepted graph writes json.Marshal's bytes.
func FuzzDAGCodec(f *testing.F) {
	for _, g := range fixtureGraphs(f) {
		f.Add(g)
	}
	f.Add([]byte(`{"work":[1,1],"edges":[[0,1],[1,0]]}`))
	f.Add([]byte(`{"work":[2,1,3],"edges":[[0,2],[0,1],[0,2],[1,2]]}`))
	f.Add([]byte(`{"work":[1],"edges":[[0,0]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got DAG
		gotErr := got.UnmarshalJSON(data)
		want, wantErr := referenceUnmarshal(data)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("UnmarshalJSON(%q) err=%v; reference err=%v", data, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if d := graphDiff(&got, want); d != "" {
			t.Fatalf("UnmarshalJSON(%q): %s", data, d)
		}
		enc, err := got.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := referenceMarshal(&got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, ref) {
			t.Fatalf("MarshalJSON %s; json.Marshal %s", enc, ref)
		}
	})
}
