// Package dag implements the parallel-job model of the paper: each job is an
// independent directed acyclic graph whose nodes are sequential work and whose
// edges are dependencies. A node is ready when all predecessors have finished;
// a job completes when every node has been processed.
//
// The package provides the immutable graph (DAG), a mutable execution state
// that unfolds the graph dynamically — exposing only the currently ready
// nodes, which is exactly the information a semi-non-clairvoyant scheduler is
// allowed to see — canonical graph shapes including the adversarial families
// of the paper's Figures 1 and 2, and node-pick policies that decide which
// ready nodes run when a scheduler grants a job fewer processors than it has
// ready nodes.
package dag

import (
	"errors"
	"fmt"
)

// NodeID identifies a node within one DAG. IDs are dense: 0..NumNodes()-1.
type NodeID int32

// DAG is an immutable directed acyclic graph of work nodes. Construct one
// with a Builder or one of the shape constructors. The zero value is an
// empty graph with no nodes.
//
// The adjacency is stored in compressed sparse row form, so a DAG holds the
// same few pointers whatever its size, all to pointer-free arrays the
// garbage collector never scans: v's successors are adj[succOff[v]:
// succOff[v+1]] and its predecessors adj[predOff[v]:predOff[v+1]], the
// successor lists first and the predecessor lists after them. Both offset
// arrays are nil for a graph without edges.
type DAG struct {
	work    []int64
	succOff []int32 // len n+1, or nil without edges
	predOff []int32 // len n+1, or nil without edges
	adj     []NodeID

	totalWork int64
	span      int64
	sources   int      // nodes without predecessors: an unstarted job's ready count
	order     []NodeID // cached topological order
}

// NumNodes returns the number of nodes.
func (g *DAG) NumNodes() int { return len(g.work) }

// Work returns the processing requirement of node v.
func (g *DAG) Work(v NodeID) int64 { return g.work[v] }

// TotalWork returns W, the sum of all node works (the job's uninterrupted
// execution time on a single unit-speed processor).
func (g *DAG) TotalWork() int64 { return g.totalWork }

// Span returns L, the critical-path length (the job's execution time on
// infinitely many unit-speed processors).
func (g *DAG) Span() int64 { return g.span }

// Successors returns the successors of v, nil if it has none. The returned
// slice is owned by the DAG and must not be modified; its capacity ends at
// its length, so appending to it copies.
func (g *DAG) Successors(v NodeID) []NodeID { return nilIfEmpty(g.succs(v)) }

// Predecessors returns the predecessors of v, nil if it has none. The
// returned slice is owned by the DAG and must not be modified; its capacity
// ends at its length, so appending to it copies.
func (g *DAG) Predecessors(v NodeID) []NodeID { return nilIfEmpty(g.preds(v)) }

// succs is v's successor list, possibly empty rather than nil.
func (g *DAG) succs(v NodeID) []NodeID {
	if g.succOff == nil {
		return nil
	}
	lo, hi := g.succOff[v], g.succOff[v+1]
	return g.adj[lo:hi:hi]
}

// preds is v's predecessor list, possibly empty rather than nil.
func (g *DAG) preds(v NodeID) []NodeID {
	if g.predOff == nil {
		return nil
	}
	lo, hi := g.predOff[v], g.predOff[v+1]
	return g.adj[lo:hi:hi]
}

func nilIfEmpty(s []NodeID) []NodeID {
	if len(s) == 0 {
		return nil
	}
	return s
}

// NumEdges returns the number of dependency edges.
func (g *DAG) NumEdges() int { return len(g.adj) / 2 }

// Builder assembles a DAG incrementally. The zero value is ready to use.
type Builder struct {
	work  []int64
	edges [][2]NodeID
	err   error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// AddNode adds a node with the given work and returns its ID.
// Work must be positive; otherwise Build will fail.
func (b *Builder) AddNode(work int64) NodeID {
	if work <= 0 && b.err == nil {
		b.err = fmt.Errorf("dag: node %d has non-positive work %d", len(b.work), work)
	}
	b.work = append(b.work, work)
	return NodeID(len(b.work) - 1)
}

// AddEdge records a dependency: v cannot start until u completes.
func (b *Builder) AddEdge(u, v NodeID) {
	if b.err == nil {
		n := NodeID(len(b.work))
		if u < 0 || u >= n || v < 0 || v >= n {
			b.err = fmt.Errorf("dag: edge (%d,%d) references unknown node (have %d nodes)", u, v, n)
		} else if u == v {
			b.err = fmt.Errorf("dag: self-loop on node %d", u)
		}
	}
	b.edges = append(b.edges, [2]NodeID{u, v})
}

// ErrCycle is returned by Build when the edge set contains a cycle.
var ErrCycle = errors.New("dag: graph contains a cycle")

// ErrEmpty is returned by Build when the graph has no nodes.
var ErrEmpty = errors.New("dag: graph has no nodes")

// Build validates the graph (node works positive, edges in range, acyclic,
// non-empty), computes W and L, and returns the immutable DAG. Duplicate
// edges are coalesced.
func (b *Builder) Build() (*DAG, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.work) == 0 {
		return nil, ErrEmpty
	}
	return build(append([]int64(nil), b.work...), b.edges)
}

// build is Build over validated nodes and in-range edges without
// self-loops. The DAG takes ownership of work; edges is only read.
func build(work []int64, edges [][2]NodeID) (*DAG, error) {
	n := len(work)
	g := &DAG{work: work}
	g.link(edges)
	order, ok := g.topoOrder()
	if !ok {
		return nil, ErrCycle
	}
	g.order = order
	for v, w := range g.work {
		g.totalWork += w
		if len(g.preds(NodeID(v))) == 0 {
			g.sources++
		}
	}
	// Longest path over the topological order.
	down := make([]int64, n) // down[v] = longest path starting at v (inclusive)
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		best := int64(0)
		for _, u := range g.succs(v) {
			if down[u] > best {
				best = down[u]
			}
		}
		down[v] = best + g.work[v]
		if down[v] > g.span {
			g.span = down[v]
		}
	}
	return g, nil
}

// link fills the adjacency arrays from edges with repeats dropped: every
// list holds first occurrences in input order. A stable counting sort
// buckets the edges by source; walking one source's bucket, a per-target
// stamp recognizes a repeat. The kept degrees give the offsets, and one
// more pass over the edges fills both lists through per-node cursors, so
// linking costs a fixed number of allocations whatever the graph's size.
func (g *DAG) link(edges [][2]NodeID) {
	if len(edges) == 0 {
		return
	}
	n := len(g.work)
	scratch := make([]int32, 4*n+1+len(edges))
	start := scratch[:n+1]           // start[u]: u's first slot in bySrc
	stamp := scratch[n+1 : 2*n+1]    // stamp[v] = u+1 once (u,v) is kept
	outCur := scratch[2*n+1 : 3*n+1] // kept out-degree, then u's next slot in adj
	inCur := scratch[3*n+1 : 4*n+1]  // kept in-degree, then v's next slot in adj
	bySrc := scratch[4*n+1:]         // edge indexes grouped by source, in input order
	for _, e := range edges {
		start[e[0]+1]++
	}
	for u := 0; u < n; u++ {
		start[u+1] += start[u]
	}
	for k, e := range edges {
		u := e[0]
		bySrc[start[u]] = int32(k)
		start[u]++
	}
	// start[u] now ends u's bucket, which begins where u-1's ends.
	repeat := make([]bool, len(edges))
	kept := int32(0)
	from := int32(0)
	for u := 0; u < n; u++ {
		mark := int32(u) + 1
		for _, k := range bySrc[from:start[u]] {
			v := edges[k][1]
			if stamp[v] == mark {
				repeat[k] = true
				continue
			}
			stamp[v] = mark
			outCur[u]++
			inCur[v]++
			kept++
		}
		from = start[u]
	}
	off := make([]int32, 2*(n+1))
	g.succOff, g.predOff = off[:n+1:n+1], off[n+1:]
	g.predOff[0] = kept
	for v := 0; v < n; v++ {
		g.succOff[v+1] = g.succOff[v] + outCur[v]
		g.predOff[v+1] = g.predOff[v] + inCur[v]
		outCur[v], inCur[v] = g.succOff[v], g.predOff[v]
	}
	g.adj = make([]NodeID, 2*kept)
	for k, e := range edges {
		if !repeat[k] {
			u, v := e[0], e[1]
			g.adj[outCur[u]] = v
			outCur[u]++
			g.adj[inCur[v]] = u
			inCur[v]++
		}
	}
}

// MustBuild is Build that panics on error, for statically-correct shapes.
func (b *Builder) MustBuild() *DAG {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// topoOrder returns a topological order, or ok=false if the graph is
// cyclic. The order is memoized: a DAG is never mutated after Build (Build
// copies the builder's state into a fresh value), so the first successful
// computation serves every later call — Validate on the submission hot path
// re-checks node invariants but no longer re-runs Kahn's algorithm.
func (g *DAG) topoOrder() ([]NodeID, bool) {
	if g.order != nil {
		return g.order, true
	}
	n := len(g.work)
	indeg := make([]int32, n)
	for v := 0; v < n; v++ {
		indeg[v] = int32(len(g.preds(NodeID(v))))
	}
	queue := make([]NodeID, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, NodeID(v))
		}
	}
	order := make([]NodeID, 0, n)
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		order = append(order, v)
		for _, u := range g.succs(v) {
			indeg[u]--
			if indeg[u] == 0 {
				queue = append(queue, u)
			}
		}
	}
	if len(order) != n {
		return order, false // cyclic: never cache a partial order
	}
	g.order = order
	return order, true
}

// Validate re-checks structural invariants of a constructed DAG. It is used
// by deserialization and by property tests.
func (g *DAG) Validate() error {
	n := len(g.work)
	if n == 0 {
		return ErrEmpty
	}
	for v := 0; v < n; v++ {
		if g.work[v] <= 0 {
			return fmt.Errorf("dag: node %d has non-positive work %d", v, g.work[v])
		}
		for _, u := range g.succs(NodeID(v)) {
			if u < 0 || int(u) >= n {
				return fmt.Errorf("dag: node %d has out-of-range successor %d", v, u)
			}
		}
	}
	if _, ok := g.topoOrder(); !ok {
		return ErrCycle
	}
	return nil
}
