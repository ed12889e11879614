package serve

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// testPlacer builds an engineless placer over n bare shards with the given
// EWMA pressures (nothing waiting, so pressureScore equals the EWMA term).
func testPlacer(n int, pressures []float64) *placer {
	srv := &Server{cfg: Config{QueueDepth: 4}}
	shards := make([]*shard, n)
	for i := range shards {
		shards[i] = &shard{srv: srv, idx: i, m: 2, stride: n}
		if pressures != nil {
			shards[i].pressure.Store(math.Float64bits(pressures[i]))
		}
	}
	return newPlacer(shards)
}

func TestPlacerSingleShardFastPath(t *testing.T) {
	p := testPlacer(1, []float64{9.5}) // pressure is irrelevant with one shard
	if got := p.route(""); got != p.shards[0] {
		t.Fatal("single-shard route did not return the only shard")
	}
	if got := p.route("some-key"); got != p.shards[0] {
		t.Fatal("single-shard keyed route did not return the only shard")
	}
}

// TestPlacerKeyedAffinity: a key always lands on its hash shard no matter
// what the pressures say — the idempotency table lives there.
func TestPlacerKeyedAffinity(t *testing.T) {
	p := testPlacer(4, []float64{0, 5, 5, 5})
	for _, key := range []string{"a", "req-17", "client-9-42", "x"} {
		h := fnv.New32a()
		h.Write([]byte(key))
		want := p.shards[int(h.Sum32())%4]
		for i := 0; i < 3; i++ { // stable across calls
			if got := p.route(key); got != want {
				t.Fatalf("key %q routed to shard %d, want %d", key, got.idx, want.idx)
			}
		}
	}
	// Distinct keys spread: at least two shards see traffic over a key sweep.
	seen := map[int]bool{}
	for i := 0; i < 32; i++ {
		seen[p.route(fmt.Sprintf("key-%d", i)).idx] = true
	}
	if len(seen) < 2 {
		t.Fatalf("32 keys all hashed to one shard: %v", seen)
	}
}

func TestPlacerLowestPressureWins(t *testing.T) {
	p := testPlacer(4, []float64{0.8, 0.2, 0.5, 0.9})
	if got := p.route(""); got != p.shards[1] {
		t.Fatalf("routed to shard %d, want 1 (lowest pressure)", got.idx)
	}
	// Ties break toward the lower index: routing is deterministic.
	p = testPlacer(3, []float64{0.4, 0.4, 0.4})
	if got := p.route(""); got != p.shards[0] {
		t.Fatalf("tie routed to shard %d, want 0", got.idx)
	}
}

// TestPlacerMailboxBacklogCounts: the fraction of the queue bound waiting
// for a shard is part of the score, so a shard with submissions waiting loses
// to an idle one at equal EWMA.
func TestPlacerMailboxBacklogCounts(t *testing.T) {
	p := testPlacer(2, []float64{0.3, 0.3})
	p.shards[0].waiting.Add(2)
	if got := p.route(""); got != p.shards[1] {
		t.Fatalf("routed to backlogged shard %d, want 1", got.idx)
	}
}

// TestPlacerBandFullSpill: when the lowest-pressure shard's band is full and
// the runner-up's is not, the runner-up gets the job — it may still admit
// where the first would park.
func TestPlacerBandFullSpill(t *testing.T) {
	p := testPlacer(3, []float64{0.1, 0.4, 0.9})
	p.shards[0].bandFull.Store(true)
	if got := p.route(""); got != p.shards[1] {
		t.Fatalf("spill routed to shard %d, want runner-up 1", got.idx)
	}
	// Both best and runner-up full: stay with the best (no third choice —
	// spilling further would chase pressure the signal can't justify).
	p.shards[1].bandFull.Store(true)
	if got := p.route(""); got != p.shards[0] {
		t.Fatalf("double-full routed to shard %d, want best 0", got.idx)
	}
	// Keyed routing never spills.
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("k%d", i)
		h := fnv.New32a()
		h.Write([]byte(key))
		if got := p.route(key); got != p.shards[int(h.Sum32())%3] {
			t.Fatalf("keyed route for %q spilled", key)
		}
	}
}

func TestPlacerShardFor(t *testing.T) {
	p := testPlacer(4, nil)
	for id := 1; id <= 16; id++ {
		want := (id - 1) % 4
		if got := p.shardFor(id); got.idx != want {
			t.Fatalf("shardFor(%d) = shard %d, want %d", id, got.idx, want)
		}
	}
}
