package serve

import (
	"hash/fnv"
	"sync/atomic"
)

// The placer is the front door of the sharded serving tier: every POST
// /v1/jobs picks exactly one shard before taking any shard's lock.
//
// Routing policy:
//
//   - Keyed submissions (Idempotency-Key set) hash to a fixed shard. The
//     idempotency table is per-shard state, so a retry must land where the
//     stored verdict lives — across restarts too, which rules out any
//     load-dependent placement for keys.
//   - Unkeyed submissions go to the shard with the lowest pressure score:
//     the engine-published EWMA of band occupancy plus parked-queue depth
//     (see shard.publishPressure), plus the fraction of the QueueDepth
//     bound already waiting for the shard. Ties break toward the lower index, so routing is
//     deterministic for a given pressure snapshot.
//   - Second-choice spill: when the best shard's band is full (its last
//     verdict parked, or occupancy ≥ 1) and the runner-up's is not, the
//     runner-up gets the job. A full band means the best shard would park
//     the submission; the runner-up may still admit it, and an admitted
//     job earns profit where a parked one may expire.
type placer struct {
	shards []*shard

	// Decision counters for /metrics (serve_placer_decisions_total): how many
	// submissions were routed by keyed affinity, by lowest pressure, and by
	// the second-choice spill. Handlers route concurrently, hence atomics.
	keyed    atomic.Int64
	pressure atomic.Int64
	spill    atomic.Int64
}

// Placer decision labels, shared by /metrics and the request trace.
const (
	routeKeyed    = "keyed"
	routePressure = "pressure"
	routeSpill    = "spill"
)

func newPlacer(shards []*shard) *placer { return &placer{shards: shards} }

// route picks the shard for one submission.
func (p *placer) route(key string) *shard {
	sh, _ := p.routeTraced(key)
	return sh
}

// routeTraced picks the shard and reports which policy leg decided — the
// label the decision counters and the request trace carry.
func (p *placer) routeTraced(key string) (*shard, string) {
	if key != "" {
		p.keyed.Add(1)
		if len(p.shards) == 1 {
			return p.shards[0], routeKeyed
		}
		h := fnv.New32a()
		h.Write([]byte(key))
		return p.shards[int(h.Sum32())%len(p.shards)], routeKeyed
	}
	if len(p.shards) == 1 {
		p.pressure.Add(1)
		return p.shards[0], routePressure
	}
	best, second := -1, -1
	var bestScore, secondScore float64
	for i, sh := range p.shards {
		score := sh.pressureScore()
		switch {
		case best < 0 || score < bestScore:
			second, secondScore = best, bestScore
			best, bestScore = i, score
		case second < 0 || score < secondScore:
			second, secondScore = i, score
		}
	}
	if p.shards[best].bandFull.Load() && !p.shards[second].bandFull.Load() {
		p.spill.Add(1)
		return p.shards[second], routeSpill
	}
	p.pressure.Add(1)
	return p.shards[best], routePressure
}

// shardFor maps a job ID back to its owning shard (the ID stripe inverse).
func (p *placer) shardFor(id int) *shard {
	return p.shards[(id-1)%len(p.shards)]
}
