package dag

import (
	"errors"
	"testing"
)

func TestBuilderSimpleChain(t *testing.T) {
	b := NewBuilder()
	a := b.AddNode(2)
	c := b.AddNode(3)
	b.AddEdge(a, c)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 {
		t.Errorf("NumNodes = %d", g.NumNodes())
	}
	if g.TotalWork() != 5 {
		t.Errorf("W = %d, want 5", g.TotalWork())
	}
	if g.Span() != 5 {
		t.Errorf("L = %d, want 5", g.Span())
	}
	if g.NumEdges() != 1 {
		t.Errorf("edges = %d", g.NumEdges())
	}
}

func TestBuilderIndependentNodes(t *testing.T) {
	b := NewBuilder()
	b.AddNode(4)
	b.AddNode(7)
	b.AddNode(2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.TotalWork() != 13 {
		t.Errorf("W = %d, want 13", g.TotalWork())
	}
	if g.Span() != 7 {
		t.Errorf("L = %d, want 7 (max node work)", g.Span())
	}
}

func TestBuilderDiamondSpan(t *testing.T) {
	// a -> {b, c} -> d with works 1, 5, 2, 1: span = 1+5+1 = 7.
	b := NewBuilder()
	a := b.AddNode(1)
	x := b.AddNode(5)
	y := b.AddNode(2)
	d := b.AddNode(1)
	b.AddEdge(a, x)
	b.AddEdge(a, y)
	b.AddEdge(x, d)
	b.AddEdge(y, d)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.Span() != 7 {
		t.Errorf("L = %d, want 7", g.Span())
	}
	if g.TotalWork() != 9 {
		t.Errorf("W = %d, want 9", g.TotalWork())
	}
}

func TestBuilderRejectsCycle(t *testing.T) {
	b := NewBuilder()
	a := b.AddNode(1)
	c := b.AddNode(1)
	b.AddEdge(a, c)
	b.AddEdge(c, a)
	if _, err := b.Build(); !errors.Is(err, ErrCycle) {
		t.Errorf("Build = %v, want ErrCycle", err)
	}
}

func TestBuilderRejectsEmpty(t *testing.T) {
	if _, err := NewBuilder().Build(); !errors.Is(err, ErrEmpty) {
		t.Errorf("Build = %v, want ErrEmpty", err)
	}
}

func TestBuilderRejectsNonPositiveWork(t *testing.T) {
	b := NewBuilder()
	b.AddNode(0)
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted zero-work node")
	}
}

func TestBuilderRejectsBadEdge(t *testing.T) {
	b := NewBuilder()
	a := b.AddNode(1)
	b.AddEdge(a, 5)
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted out-of-range edge")
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	b := NewBuilder()
	a := b.AddNode(1)
	b.AddEdge(a, a)
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted self-loop")
	}
}

func TestBuilderCoalescesDuplicateEdges(t *testing.T) {
	b := NewBuilder()
	a := b.AddNode(1)
	c := b.AddNode(1)
	b.AddEdge(a, c)
	b.AddEdge(a, c)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Errorf("edges = %d, want 1 after coalescing", g.NumEdges())
	}
}

func TestMustBuildPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild did not panic")
		}
	}()
	NewBuilder().MustBuild()
}

func TestValidateAcceptsBuilt(t *testing.T) {
	g := Chain(5, 3)
	if err := g.Validate(); err != nil {
		t.Errorf("Validate = %v", err)
	}
}

func TestPredecessorsSuccessors(t *testing.T) {
	b := NewBuilder()
	a := b.AddNode(1)
	c := b.AddNode(1)
	d := b.AddNode(1)
	b.AddEdge(a, c)
	b.AddEdge(a, d)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Successors(a)) != 2 {
		t.Errorf("succ(a) = %v", g.Successors(a))
	}
	if len(g.Predecessors(c)) != 1 || g.Predecessors(c)[0] != a {
		t.Errorf("pred(c) = %v", g.Predecessors(c))
	}
}

// TestBuildAllocationsIndependentOfSize pins the compact layout: building
// an n-node chain makes the same number of allocations for every n, so no
// allocation is made per node or per edge.
func TestBuildAllocationsIndependentOfSize(t *testing.T) {
	var counts []float64
	for _, n := range []int{10, 1000, 100000} {
		b := NewBuilder()
		prev := b.AddNode(1)
		for i := 1; i < n; i++ {
			v := b.AddNode(1)
			b.AddEdge(prev, v)
			prev = v
		}
		runs := 20
		if n >= 100000 {
			runs = 3
		}
		allocs := testing.AllocsPerRun(runs, func() {
			if _, err := b.Build(); err != nil {
				t.Fatal(err)
			}
		})
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Errorf("Build of a chain allocates %v times for n = 10, 10³, 10⁵; want one count", counts)
	}
}
