package queue

import "math/rand"

// TreapBand is a BandIndex backed by a randomized treap keyed by
// (density, ID) and augmented with subtree weight sums, giving O(log n)
// expected insert, remove, and range-sum. Rotation-free split/merge keeps
// the augmentation simple to maintain.
type TreapBand struct {
	root   *treapNode
	rng    *rand.Rand
	size   int
	visits int64
}

type treapNode struct {
	it          Item
	prio        int64
	left, right *treapNode
	sum         float64 // total weight of this subtree
}

// NewTreapBand returns an empty TreapBand using the given seed for heap
// priorities (deterministic runs need deterministic structure).
func NewTreapBand(seed int64) *TreapBand {
	return &TreapBand{rng: rand.New(rand.NewSource(seed))}
}

// keyLess orders by (density, ID) ascending.
func keyLess(d1 float64, id1 int, d2 float64, id2 int) bool {
	if d1 != d2 {
		return d1 < d2
	}
	return id1 < id2
}

func (n *treapNode) recalc() {
	n.sum = n.it.Weight
	if n.left != nil {
		n.sum += n.left.sum
	}
	if n.right != nil {
		n.sum += n.right.sum
	}
}

func nodeSum(n *treapNode) float64 {
	if n == nil {
		return 0
	}
	return n.sum
}

// split partitions t into (< key, ≥ key) by (density, id), counting every
// node touched in *visits.
func split(t *treapNode, d float64, id int, visits *int64) (lt, ge *treapNode) {
	if t == nil {
		return nil, nil
	}
	*visits++
	if keyLess(t.it.Density, t.it.ID, d, id) {
		l, r := split(t.right, d, id, visits)
		t.right = l
		t.recalc()
		return t, r
	}
	l, r := split(t.left, d, id, visits)
	t.left = r
	t.recalc()
	return l, t
}

// merge joins l and r where every key in l precedes every key in r,
// counting every node touched in *visits.
func merge(l, r *treapNode, visits *int64) *treapNode {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case l.prio > r.prio:
		*visits++
		l.right = merge(l.right, r, visits)
		l.recalc()
		return l
	default:
		*visits++
		r.left = merge(l, r.left, visits)
		r.recalc()
		return r
	}
}

// Insert implements BandIndex. It panics on a duplicate (density, ID) key.
func (t *TreapBand) Insert(it Item) {
	l, r := split(t.root, it.Density, it.ID, &t.visits)
	// Check the smallest key of r for an exact duplicate.
	probe := r
	for probe != nil && probe.left != nil {
		probe = probe.left
	}
	if probe != nil && probe.it.ID == it.ID && probe.it.Density == it.Density {
		t.root = merge(l, r, &t.visits)
		panic("queue: duplicate key inserted into TreapBand")
	}
	n := &treapNode{it: it, prio: t.rng.Int63()}
	n.recalc()
	t.root = merge(merge(l, n, &t.visits), r, &t.visits)
	t.size++
}

// Remove implements BandIndex.
func (t *TreapBand) Remove(id int, density float64) bool {
	l, rest := split(t.root, density, id, &t.visits)
	mid, r := split(rest, density, id+1, &t.visits)
	found := mid != nil
	if found {
		// mid holds exactly the single (density, id) key.
		t.size--
		mid = merge(mid.left, mid.right, &t.visits)
	}
	t.root = merge(merge(l, mid, &t.visits), r, &t.visits)
	return found
}

// SumRange implements BandIndex: total weight of densities in [lo, hi).
// It only reads the tree. The answer is the sum that the treap of the keys
// in [lo, hi) — the middle part two splits would cut out — holds, folded
// over that treap as recalc folds it, so it is bit-identical to split,
// read and merge: the descent stops at the first node inside the range,
// the middle treap's root, and below it folds the nodes on the two
// boundary paths, taking the stored sum of every subtree wholly inside.
func (t *TreapBand) SumRange(lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	n := t.root
	for n != nil {
		t.visits++
		if n.below(lo) {
			n = n.right
		} else if !n.below(hi) {
			n = n.left
		} else {
			break
		}
	}
	if n == nil {
		return 0
	}
	s := n.it.Weight
	if l, ok := t.foldFrom(n.left, lo); ok {
		s += l
	}
	if r, ok := t.foldBelow(n.right, hi); ok {
		s += r
	}
	return s
}

// SumFrom implements BandIndex: total weight of densities ≥ lo. Like
// SumRange it only reads, folding the treap of the keys ≥ lo.
func (t *TreapBand) SumFrom(lo float64) float64 {
	s, _ := t.foldFrom(t.root, lo)
	return s
}

// below reports whether n's key precedes every key of density d, the
// boundary split cuts at for a query bound.
func (n *treapNode) below(d float64) bool { return keyLess(n.it.Density, n.it.ID, d, -1<<62) }

// foldFrom returns recalc's sum over the treap of n's keys of density ≥ lo,
// and false when there are none. Every key right of a kept node is kept,
// so its stored sum stands in for that subtree.
func (t *TreapBand) foldFrom(n *treapNode, lo float64) (float64, bool) {
	for n != nil && n.below(lo) {
		t.visits++
		n = n.right
	}
	if n == nil {
		return 0, false
	}
	t.visits++
	s := n.it.Weight
	if l, ok := t.foldFrom(n.left, lo); ok {
		s += l
	}
	if n.right != nil {
		s += n.right.sum
	}
	return s, true
}

// foldBelow is foldFrom's mirror: recalc's sum over the treap of n's keys
// of density < hi, and false when there are none.
func (t *TreapBand) foldBelow(n *treapNode, hi float64) (float64, bool) {
	for n != nil && !n.below(hi) {
		t.visits++
		n = n.left
	}
	if n == nil {
		return 0, false
	}
	t.visits++
	s := n.it.Weight
	if n.left != nil {
		s += n.left.sum
	}
	if r, ok := t.foldBelow(n.right, hi); ok {
		s += r
	}
	return s, true
}

// Len implements BandIndex.
func (t *TreapBand) Len() int { return t.size }

// Visits implements Counted: tree nodes touched by split/merge traversals
// and by the read-only query descents.
func (t *TreapBand) Visits() int64 { return t.visits }

// ResetVisits implements Counted.
func (t *TreapBand) ResetVisits() { t.visits = 0 }
