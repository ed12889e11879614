package queue

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDensityListOrder(t *testing.T) {
	var l DensityList
	l.Insert(Item{ID: 1, Density: 2.0, Weight: 1})
	l.Insert(Item{ID: 2, Density: 5.0, Weight: 1})
	l.Insert(Item{ID: 3, Density: 3.0, Weight: 1})
	l.Insert(Item{ID: 4, Density: 5.0, Weight: 1}) // tie: ID ascending
	wantIDs := []int{2, 4, 3, 1}
	for i, want := range wantIDs {
		if got := l.At(i).ID; got != want {
			t.Errorf("At(%d).ID = %d, want %d", i, got, want)
		}
	}
}

func TestDensityListRemove(t *testing.T) {
	var l DensityList
	for i := 0; i < 5; i++ {
		l.Insert(Item{ID: i, Density: float64(i), Weight: 1})
	}
	if !l.Remove(2) {
		t.Fatal("Remove(2) = false")
	}
	if l.Remove(2) {
		t.Error("double Remove(2) = true")
	}
	if l.Len() != 4 || l.Contains(2) {
		t.Errorf("Len=%d Contains(2)=%v", l.Len(), l.Contains(2))
	}
	// Remaining order still density-descending.
	prev := math.Inf(1)
	l.ForEach(func(it Item) bool {
		if it.Density > prev {
			t.Errorf("order violated at ID %d", it.ID)
		}
		prev = it.Density
		return true
	})
}

func TestDensityListGet(t *testing.T) {
	var l DensityList
	l.Insert(Item{ID: 7, Density: 1.5, Weight: 2.5})
	it, ok := l.Get(7)
	if !ok || it.Weight != 2.5 {
		t.Errorf("Get(7) = %v, %v", it, ok)
	}
	if _, ok := l.Get(8); ok {
		t.Error("Get(8) found phantom item")
	}
}

func TestDensityListDuplicatePanics(t *testing.T) {
	var l DensityList
	l.Insert(Item{ID: 1, Density: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate insert did not panic")
		}
	}()
	l.Insert(Item{ID: 1, Density: 2})
}

func TestDensityListForEachEarlyStop(t *testing.T) {
	var l DensityList
	for i := 0; i < 5; i++ {
		l.Insert(Item{ID: i, Density: float64(i)})
	}
	count := 0
	l.ForEach(func(Item) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("ForEach visited %d, want 2", count)
	}
}

func TestDensityListSnapshot(t *testing.T) {
	var l DensityList
	l.Insert(Item{ID: 1, Density: 1})
	l.Insert(Item{ID: 2, Density: 2})
	snap := l.Snapshot(nil)
	if len(snap) != 2 || snap[0].ID != 2 {
		t.Errorf("Snapshot = %v", snap)
	}
}

func bandImpls() map[string]BandIndex {
	return map[string]BandIndex{
		"naive": NewNaiveBand(),
		"treap": NewTreapBand(1),
	}
}

func TestBandBasics(t *testing.T) {
	for name, b := range bandImpls() {
		b.Insert(Item{ID: 1, Density: 1.0, Weight: 2})
		b.Insert(Item{ID: 2, Density: 2.0, Weight: 3})
		b.Insert(Item{ID: 3, Density: 4.0, Weight: 5})
		if got := b.SumRange(1.0, 4.0); got != 5 {
			t.Errorf("%s: SumRange[1,4) = %v, want 5", name, got)
		}
		if got := b.SumRange(0, 100); got != 10 {
			t.Errorf("%s: SumRange[0,100) = %v, want 10", name, got)
		}
		if got := b.SumFrom(2.0); got != 8 {
			t.Errorf("%s: SumFrom(2) = %v, want 8", name, got)
		}
		if got := b.SumRange(4.0, 4.0); got != 0 {
			t.Errorf("%s: empty range = %v", name, got)
		}
		if !b.Remove(2, 2.0) {
			t.Errorf("%s: Remove(2) = false", name)
		}
		if b.Remove(2, 2.0) {
			t.Errorf("%s: double Remove(2) = true", name)
		}
		if got := b.SumRange(1.0, 4.0); got != 2 {
			t.Errorf("%s: SumRange after remove = %v, want 2", name, got)
		}
		if b.Len() != 2 {
			t.Errorf("%s: Len = %d", name, b.Len())
		}
	}
}

func TestBandRangeIsHalfOpen(t *testing.T) {
	for name, b := range bandImpls() {
		b.Insert(Item{ID: 1, Density: 2.0, Weight: 1})
		if got := b.SumRange(2.0, 3.0); got != 1 {
			t.Errorf("%s: lo bound should be inclusive, got %v", name, got)
		}
		if got := b.SumRange(1.0, 2.0); got != 0 {
			t.Errorf("%s: hi bound should be exclusive, got %v", name, got)
		}
	}
}

func TestTreapDuplicatePanics(t *testing.T) {
	b := NewTreapBand(1)
	b.Insert(Item{ID: 1, Density: 1.0, Weight: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate insert did not panic")
		}
	}()
	b.Insert(Item{ID: 1, Density: 1.0, Weight: 1})
}

func TestTreapEqualDensityDistinctIDs(t *testing.T) {
	b := NewTreapBand(2)
	for i := 0; i < 10; i++ {
		b.Insert(Item{ID: i, Density: 3.0, Weight: 1})
	}
	if got := b.SumRange(3.0, 3.0000001); got != 10 {
		t.Errorf("SumRange over tied densities = %v, want 10", got)
	}
	for i := 0; i < 10; i += 2 {
		if !b.Remove(i, 3.0) {
			t.Errorf("Remove(%d) failed", i)
		}
	}
	if got := b.SumFrom(0); got != 5 {
		t.Errorf("SumFrom after removals = %v, want 5", got)
	}
}

// TestPropTreapMatchesNaive drives both implementations with the same random
// operation sequence and compares every query.
func TestPropTreapMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		naive := NewNaiveBand()
		treap := NewTreapBand(seed ^ 0x5eed)
		live := map[int]float64{}
		nextID := 0
		for op := 0; op < 200; op++ {
			switch r := rng.Float64(); {
			case r < 0.5 || len(live) == 0: // insert
				it := Item{
					ID:      nextID,
					Density: float64(rng.Intn(20)) / 2.0,
					Weight:  float64(1 + rng.Intn(5)),
				}
				nextID++
				naive.Insert(it)
				treap.Insert(it)
				live[it.ID] = it.Density
			case r < 0.75: // remove a random live item
				for id, d := range live {
					if naive.Remove(id, d) != treap.Remove(id, d) {
						return false
					}
					delete(live, id)
					break
				}
			default: // query
				lo := float64(rng.Intn(20)) / 2.0
				hi := lo * (1 + rng.Float64()*3)
				if math.Abs(naive.SumRange(lo, hi)-treap.SumRange(lo, hi)) > 1e-9 {
					return false
				}
				if math.Abs(naive.SumFrom(lo)-treap.SumFrom(lo)) > 1e-9 {
					return false
				}
			}
			if naive.Len() != treap.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// splitMergeSumRange and splitMergeSumFrom are the queries as TreapBand
// first answered them, kept as references: cut the tree with split, read
// the middle part's stored sum, merge the parts back.
func splitMergeSumRange(t *TreapBand, lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	var visits int64
	l, rest := split(t.root, lo, -1<<62, &visits)
	mid, r := split(rest, hi, -1<<62, &visits)
	s := nodeSum(mid)
	t.root = merge(merge(l, mid, &visits), r, &visits)
	return s
}

func splitMergeSumFrom(t *TreapBand, lo float64) float64 {
	var visits int64
	l, r := split(t.root, lo, -1<<62, &visits)
	s := nodeSum(r)
	t.root = merge(l, r, &visits)
	return s
}

// TestTreapQueriesMatchSplitMerge: the read-only SumRange and SumFrom give
// the split/merge answers bit for bit, over random inserts, removals and
// queries with fractional weights (so the order of the additions shows),
// repeated densities, and bounds on, between and outside the stored keys;
// and they leave the tree as they found it.
func TestTreapQueriesMatchSplitMerge(t *testing.T) {
	steps := 400000
	if testing.Short() {
		steps = 40000
	}
	rng := rand.New(rand.NewSource(11))
	tr := NewTreapBand(3)
	type key struct {
		id int
		d  float64
	}
	var live []key
	bound := func() float64 {
		if rng.Intn(4) == 0 && len(live) > 0 {
			return live[rng.Intn(len(live))].d
		}
		return float64(rng.Intn(70)-5) / 4
	}
	for step, nextID := 0, 0; step < steps; step++ {
		switch r := rng.Intn(10); {
		case r < 4 || len(live) == 0:
			it := Item{ID: nextID, Density: float64(rng.Intn(64)) / 4, Weight: rng.Float64() * 10}
			nextID++
			tr.Insert(it)
			live = append(live, key{it.ID, it.Density})
		case r < 6:
			k := rng.Intn(len(live))
			if !tr.Remove(live[k].id, live[k].d) {
				t.Fatalf("step %d: Remove(%v) missed a live item", step, live[k])
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		default:
			lo, hi := bound(), bound()
			root := tr.root
			got, gotFrom := tr.SumRange(lo, hi), tr.SumFrom(lo)
			if tr.root != root {
				t.Fatalf("step %d: a query moved the root", step)
			}
			want, wantFrom := splitMergeSumRange(tr, lo, hi), splitMergeSumFrom(tr, lo)
			if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(gotFrom) != math.Float64bits(wantFrom) {
				t.Fatalf("step %d: SumRange(%v, %v) = %v, SumFrom = %v; split/merge %v, %v", step, lo, hi, got, gotFrom, want, wantFrom)
			}
		}
	}
}

// TestBandVisitCounters exercises the Counted instrumentation: both
// substrates expose a deterministic work measure (entries examined for the
// naive scan, tree nodes touched for the treap) that resets cleanly.
func TestBandVisitCounters(t *testing.T) {
	for name, b := range bandImpls() {
		c, ok := b.(Counted)
		if !ok {
			t.Fatalf("%s: does not implement Counted", name)
		}
		for i := 0; i < 64; i++ {
			b.Insert(Item{ID: i, Density: float64(i), Weight: 1})
		}
		c.ResetVisits()
		if got := c.Visits(); got != 0 {
			t.Fatalf("%s: Visits after reset = %d, want 0", name, got)
		}
		b.SumRange(10, 50)
		first := c.Visits()
		if first <= 0 {
			t.Errorf("%s: SumRange recorded no visits", name)
		}
		b.SumFrom(30)
		if c.Visits() <= first {
			t.Errorf("%s: SumFrom did not accumulate visits (%d -> %d)", name, first, c.Visits())
		}
		// Identical queries cost identical work: the measure is a pure
		// function of the structure, never of the clock.
		c.ResetVisits()
		b.SumRange(10, 50)
		again := c.Visits()
		if again != first {
			t.Errorf("%s: repeated query cost %d visits, first cost %d", name, again, first)
		}
	}
}

// TestNaiveVisitsEqualLen pins the naive scan's cost model: an unbounded
// range examines every stored entry exactly once.
func TestNaiveVisitsEqualLen(t *testing.T) {
	b := NewNaiveBand()
	for i := 0; i < 37; i++ {
		b.Insert(Item{ID: i, Density: float64(i % 7), Weight: 1})
	}
	b.ResetVisits()
	b.SumRange(0, 1e18)
	if got := b.Visits(); got != int64(b.Len()) {
		t.Errorf("full-range scan visits = %d, want Len = %d", got, b.Len())
	}
}

func benchmarkBand(b *testing.B, mk func() BandIndex, n int) {
	rng := rand.New(rand.NewSource(7))
	idx := mk()
	for i := 0; i < n; i++ {
		idx.Insert(Item{ID: i, Density: rng.Float64() * 100, Weight: 1 + rng.Float64()})
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		lo := rng.Float64() * 100
		sink += idx.SumRange(lo, lo*2)
	}
	_ = sink
}

func BenchmarkBandNaive1k(b *testing.B) {
	benchmarkBand(b, func() BandIndex { return NewNaiveBand() }, 1000)
}

func BenchmarkBandTreap1k(b *testing.B) {
	benchmarkBand(b, func() BandIndex { return NewTreapBand(1) }, 1000)
}

// TestPropDensityListMatchesReferenceModel drives DensityList against a
// simple map+sort reference with a random operation sequence.
func TestPropDensityListMatchesReferenceModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var l DensityList
		ref := map[int]Item{}
		next := 0
		for op := 0; op < 150; op++ {
			switch r := rng.Float64(); {
			case r < 0.5 || len(ref) == 0:
				it := Item{ID: next, Density: float64(rng.Intn(12)), Weight: rng.Float64()}
				next++
				l.Insert(it)
				ref[it.ID] = it
			case r < 0.8:
				for id := range ref {
					if l.Remove(id) != true {
						return false
					}
					delete(ref, id)
					break
				}
			default:
				if l.Len() != len(ref) {
					return false
				}
				// Order check: density desc, ID asc.
				var items []Item
				items = l.Snapshot(items)
				for i := 1; i < len(items); i++ {
					a, b := items[i-1], items[i]
					if a.Density < b.Density || (a.Density == b.Density && a.ID > b.ID) {
						return false
					}
				}
				// Membership check.
				for id, want := range ref {
					got, ok := l.Get(id)
					if !ok || got != want {
						return false
					}
				}
			}
		}
		return l.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
