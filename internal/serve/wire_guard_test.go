package serve

import (
	"os"
	"testing"
)

// TestWireGuard is the PR 9 wire-path gate, run by `make wire-guard` with
// SPAA_WIRE_GUARD=1 (skipped otherwise: it runs real benchmarks and is too
// noisy for the ordinary test suite). It pins the two properties the batched
// fast path was built for:
//
//  1. The scalar-spec parser and the verdict encoder allocate nothing per
//     item. A regression here (a new field routed through encoding/json, a
//     buffer escaping to the heap) silently re-opens the wire gap long
//     before it shows up in throughput numbers.
//  2. The per-item cost of a 64-spec batch over real HTTP stays within 1.5×
//     the bare engine-path cost measured in the same process, i.e. the wire
//     — parse, placer, shard lock, WAL framing, response encode — adds at most
//     half an engine's worth of work per submission. Both sides replay the
//     identical spec and advance cadence (benchAdvanceEvery /
//     benchAdvanceTicks), so the ratio is workload-independent and holds on
//     single-vCPU CI hosts where absolute throughput would not.
func TestWireGuard(t *testing.T) {
	if os.Getenv("SPAA_WIRE_GUARD") == "" {
		t.Skip("set SPAA_WIRE_GUARD=1 to run the wire fast-path gate")
	}

	body := []byte(`{"w":16,"l":2,"deadline":40,"profit":3}`)
	if n := testing.AllocsPerRun(500, func() {
		if _, _, ok := parseJobSpecFast(body, false); !ok {
			t.Fatal("scalar spec fell off the fast path")
		}
	}); n != 0 {
		t.Errorf("parseJobSpecFast allocates %.1f per spec, want 0", n)
	}
	resp := JobResponse{ID: 42, Release: 7, Decision: DecisionAdmitted,
		Commitment: CommitmentOnAdmission, Plan: &PlanInfo{Alloc: 4, X: 1.5, Density: 2.25, Good: true}}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(500, func() {
		if _, ok := appendJobResponse(buf, &resp); !ok {
			t.Fatal("verdict fell off the fast path")
		}
	}); n != 0 {
		t.Errorf("appendJobResponse allocates %.1f per verdict, want 0", n)
	}

	const batchSize = 64
	engineNs := armCost(Config{M: 8, QueueDepth: 1, TickInterval: -1}, engineArm)
	itemNs := armCost(Config{M: 8, QueueDepth: 1024, TickInterval: -1}, batchArm(batchSize)) / batchSize
	ratio := itemNs / engineNs
	t.Logf("wire guard: engine %.0f ns/item, batch HTTP %.0f ns/item (ratio %.2f), batch path %.0f items/s",
		engineNs, itemNs, ratio, 1e9/itemNs)
	if ratio > 1.5 {
		t.Errorf("batched HTTP per-item cost is %.2fx the engine-path cost (budget 1.5x): "+
			"the wire fast path has regressed", ratio)
	}
}
