package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"dagsched/internal/serve"
)

// batch-wal: a closed loop of POST /v1/jobs:batch requests, 64 scalar specs
// each, over one persistent connection, into a durable 2-shard daemon on
// M=16 (WAL with fsync=interval) that takes a Checkpoint every
// bwCheckpointEvery items. The clock advances bwTicksPerBatch ticks per
// batch, which keeps Scheduler S overloaded (about twice the work the
// machine can do arrives), so jobs are admitted, parked, readmitted and
// expire. A round is one fresh daemon fed the whole seeded input; history
// grows through the round, so each checkpoint writes more.
const (
	bwM               = 16
	bwShards          = 2
	bwBatch           = 64
	bwTicksPerBatch   = 100
	bwCheckpointEvery = 8192
)

type batchWAL struct {
	o      *options
	specs  []*jobSpec
	reqs   [][]byte
	rounds int
}

func setupBatchWAL(o *options) (bench, error) {
	batches := 320
	if o.short {
		batches = 24
	}
	rng := rand.New(rand.NewSource(o.seed))
	b := &batchWAL{o: o, specs: scalarItems(rng, batches*bwBatch, bwM/bwShards)}
	for i := 0; i < batches; i++ {
		b.reqs = append(b.reqs, postRequest("/v1/jobs:batch", batchBody(b.specs[i*bwBatch:(i+1)*bwBatch]), ""))
	}
	// Warm-up: a short round on a throwaway daemon, so the first measured
	// round does not pay for first-touch page faults and heap growth.
	if _, err := b.run(min(batches, 32), false, false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return b, nil
}

func (b *batchWAL) round(traced bool) (*round, error) {
	r, err := b.run(len(b.reqs), traced, b.rounds == 0)
	b.rounds++
	return r, err
}

// run feeds the first n batches to a fresh daemon, drains it, and checks the
// outcome. replayCheck also re-simulates the drained WAL directory offline.
func (b *batchWAL) run(n int, traced, replayCheck bool) (*round, error) {
	dir, err := os.MkdirTemp(b.o.workDir, "batch-wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	srv, err := serve.New(serve.Config{
		M: bwM, Shards: bwShards, TickInterval: -1,
		WALDir: dir, Fsync: serve.FsyncInterval, CheckpointInterval: -1,
	})
	if err != nil {
		return nil, err
	}
	drained := false
	defer func() {
		if !drained {
			srv.Drain()
		}
	}()
	d, err := listen(srv.Handler())
	if err != nil {
		return nil, err
	}
	defer d.stop()
	c, err := dial(d.addr())
	if err != nil {
		return nil, err
	}
	defer c.close()

	r := &round{layers: map[string]float64{}}
	acks, err := addKeepers(srv.Handler(), bwShards, int64(n)*bwTicksPerBatch)
	if err != nil {
		return nil, err
	}
	var before scrape
	var mem *memDelta
	if traced {
		if before, err = scrapeMetrics(srv.Handler()); err != nil {
			return nil, err
		}
		mem = startMem()
	}
	acks = slices.Grow(acks, n*bwBatch)
	r.latMs = make([]float64, 0, n)
	var advance time.Duration
	var walBytes int64
	t0 := time.Now()
	for i := 0; i < n; i++ {
		ta := time.Now()
		srv.Advance(int64(i) * bwTicksPerBatch)
		ts := time.Now()
		advance += ts.Sub(ta)
		status, body, err := c.do(b.reqs[i])
		r.latMs = append(r.latMs, ms(time.Since(ts)))
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", i, err)
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("batch %d: status %d: %.200s", i, status, body)
		}
		if acks, err = parseBatchResponse(body, b.specs[i*bwBatch:(i+1)*bwBatch], acks); err != nil {
			return nil, fmt.Errorf("batch %d: %w", i, err)
		}
		if (i+1)*bwBatch%bwCheckpointEvery == 0 {
			if traced {
				walBytes += dirBytes(dir, "wal.log")
			}
			if err := srv.Checkpoint(); err != nil {
				return nil, fmt.Errorf("checkpoint after batch %d: %w", i, err)
			}
		}
	}
	r.busy = time.Since(t0)
	r.jobs = n * bwBatch
	r.attempted = int64(len(acks))
	for _, a := range acks {
		r.offered += a.spec.fn.at(1)
	}
	if traced {
		after, err := scrapeMetrics(srv.Handler())
		if err != nil {
			return nil, err
		}
		mem.record(r.layers, len(acks))
		serveLayers(r.layers, before, after, len(acks))
		walBytes += dirBytes(dir, "wal.log")
		r.layers["serve.wal.bytes_per_item"] = float64(walBytes) / float64(len(acks))
		r.layers["serve.checkpoint.bytes_last"] = float64(dirBytes(dir, "checkpoint.json"))
	}
	r.heapMB = liveHeapMB()

	td := time.Now()
	res := srv.Drain()
	drained = true
	r.layers["serve.drain.ms"] = ms(time.Since(td))
	var v verdicts
	for _, a := range acks {
		if err := v.add(a.decision); err != nil {
			return nil, err
		}
	}
	readmitted, err := checkResult(res, acks, bwM)
	if err != nil {
		return nil, err
	}
	if replayCheck {
		off, err := serve.ReplayDir(dir)
		if err != nil {
			return nil, fmt.Errorf("replay of the drained WAL: %w", err)
		}
		if err := sameResult(res, off); err != nil {
			return nil, fmt.Errorf("drained result differs from the offline replay of its WAL: %w", err)
		}
	}
	r.profit = res.TotalProfit
	r.layers["sim.ticks"] = float64(res.Ticks)
	r.layers["sim.advance_us_per_tick"] = float64(advance.Microseconds()) / float64(max(res.Ticks, 1))
	r.layers["core.admitted"] = float64(v.admitted)
	r.layers["core.parked"] = float64(v.parked)
	r.layers["core.rejected"] = float64(v.rejected)
	r.layers["core.readmitted"] = float64(readmitted)
	r.digest = fmtDigest(v, readmitted, res.Completed, res.Expired, res.Ticks, res.TotalProfit)
	return r, nil
}

// addKeepers pins one long chain job on every shard before the load starts:
// {"w":K,"l":K,"deadline":2K} with K ≥ ticks, submitted with Idempotency-Keys
// (keyed submissions are placed by key) until each shard holds one. A chain
// of span K cannot finish in fewer than K ticks and expires only at 2K, so
// no shard's session goes idle while the history is written. An idle shard
// would hit the AdvanceTo fault named in faults.go, which makes a replay of
// the history diverge; the fault is measured by the restart workload's
// fault operations, not left to chance on seeded inputs.
func addKeepers(h http.Handler, shards int, ticks int64) ([]ack, error) {
	k := ticks + 64
	spec := scalarShape{w: k, l: k, deadline: 2 * k, profit: 1}.spec()
	covered := make([]bool, shards)
	left := shards
	var acks []ack
	for i := 0; left > 0; i++ {
		if i == 64 {
			return nil, fmt.Errorf("keyed placement left a shard without a keeper job")
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(spec.body))
		req.Header.Set("Idempotency-Key", "keeper-"+strconv.Itoa(i))
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("keeper job: status %d: %s", rec.Code, rec.Body.Bytes())
		}
		id, release, decision, _, _, err := parseJobResponse(rec.Body.Bytes())
		if err != nil {
			return nil, fmt.Errorf("keeper job: %w", err)
		}
		if decision != "admitted" {
			return nil, fmt.Errorf("keeper job %s, want admitted", decision)
		}
		acks = append(acks, ack{spec: spec, id: id, release: release, decision: decision})
		if sh := (id - 1) % shards; !covered[sh] { // job IDs are striped i+1, i+1+N, …
			covered[sh] = true
			left--
		}
	}
	return acks, nil
}

// dirBytes sums the sizes of every file with the given name under dir.
func dirBytes(dir, name string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(p string, e os.DirEntry, err error) error {
		if err == nil && !e.IsDir() && e.Name() == name {
			if fi, err := e.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil // a file vanishing mid-walk only shortens the count
	})
	return n
}

var (
	itemPrefix     = []byte(`{"status":`)
	responseField  = []byte(`,"response":`)
	idField        = []byte(`"id":`)
	releaseField   = []byte(`"release":`)
	decisionField  = []byte(`"decision":"`)
	replayedMarker = []byte(`"replayed":true`)
)

// parseBatchResponse reads the per-item verdicts of a batch response, in
// request order, without allocating beyond acks. Every item must be a 200.
func parseBatchResponse(body []byte, specs []*jobSpec, acks []ack) ([]ack, error) {
	p := body
	for i, sp := range specs {
		k := bytes.Index(p, itemPrefix)
		if k < 0 {
			return acks, fmt.Errorf("response holds %d items, want %d", i, len(specs))
		}
		p = p[k+len(itemPrefix):]
		status, n := leadingInt(p)
		if status != http.StatusOK {
			end := bytes.IndexByte(p, '}')
			return acks, fmt.Errorf("item %d: status %d: %s", i, status, p[:max(end, 0)])
		}
		p = p[n:]
		if !bytes.HasPrefix(p, responseField) {
			return acks, fmt.Errorf("item %d: no response object", i)
		}
		p = p[len(responseField):]
		id, release, decision, _, rest, err := parseJobResponse(p)
		if err != nil {
			return acks, fmt.Errorf("item %d: %w", i, err)
		}
		p = rest
		acks = append(acks, ack{spec: sp, id: id, release: release, decision: decision})
	}
	return acks, nil
}

// parseJobResponse reads the fields of one JobResponse object at the start
// of p: the id (absent when rejected), release, decision, and whether it is
// an idempotent replay. rest follows the decision.
func parseJobResponse(p []byte) (id int, release int64, decision string, replayed bool, rest []byte, err error) {
	if len(p) == 0 || p[0] != '{' {
		return 0, 0, "", false, nil, fmt.Errorf("not a job response: %.80s", p)
	}
	p = p[1:]
	if bytes.HasPrefix(p, idField) {
		v, n := leadingInt(p[len(idField):])
		id = int(v)
		p = p[len(idField)+n+1:]
	}
	if !bytes.HasPrefix(p, releaseField) {
		return 0, 0, "", false, nil, fmt.Errorf("job response without release: %.80s", p)
	}
	v, n := leadingInt(p[len(releaseField):])
	release = int64(v)
	p = p[len(releaseField)+n+1:]
	if !bytes.HasPrefix(p, decisionField) {
		return 0, 0, "", false, nil, fmt.Errorf("job response without decision: %.80s", p)
	}
	p = p[len(decisionField):]
	end := bytes.IndexByte(p, '"')
	if end < 0 {
		return 0, 0, "", false, nil, fmt.Errorf("unterminated decision")
	}
	switch string(p[:end]) { // interned: no allocation per response
	case "admitted":
		decision = "admitted"
	case "parked":
		decision = "parked"
	case "rejected":
		decision = "rejected"
	default:
		return 0, 0, "", false, nil, fmt.Errorf("unexpected decision %q", p[:end])
	}
	p = p[end:]
	if end := bytes.IndexByte(p, '}'); end >= 0 {
		replayed = bytes.Contains(p[:end], replayedMarker)
	}
	return id, release, decision, replayed, p, nil
}

// leadingInt parses the unsigned decimal at the start of p and returns it
// with its length.
func leadingInt(p []byte) (int, int) {
	v, n := 0, 0
	for n < len(p) && p[n] >= '0' && p[n] <= '9' {
		v = v*10 + int(p[n]-'0')
		n++
	}
	return v, n
}
