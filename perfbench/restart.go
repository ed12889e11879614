package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"dagsched/internal/serve"
	"dagsched/internal/workload"
)

// restart: set-up builds a durable 2-shard history on M=16 whose arrivals
// are dense enough that no shard goes idle — a checkpoint part-way through
// and a WAL suffix after it — and saves the directory as it stands, the
// image a crash would leave. Each round copies the image (untimed), times
// serve.New recovering it, then times Drain. Recovery decodes the
// checkpoint, scans the WAL, replays every job tick by tick re-deriving its
// verdict, and checks the state fingerprint; Drain fast-forwards and writes
// the final whole-history checkpoint.
//
// Each round also makes two operations that hit a known fault and stay
// counted as failed until it is fixed (see restartFaults).
const (
	rsM              = 16
	rsShards         = 2
	rsTicksPerBatch  = 25
	rsCheckpointFrac = 0.6
)

// image is a WAL directory's files, by path relative to the directory.
type image map[string][]byte

type restart struct {
	o       *options
	dense   image
	acks    []ack
	jobs    int // accepted jobs in the dense history
	offered float64
	sparse  image // crash image of a fixed sparse history (fault probe)
	rounds  int
}

func rsConfig(dir string) serve.Config {
	return serve.Config{
		M: rsM, Shards: rsShards, TickInterval: -1,
		WALDir: dir, Fsync: serve.FsyncInterval, CheckpointInterval: -1,
	}
}

func setupRestart(o *options) (bench, error) {
	batches := 96
	if o.short {
		batches = 16
	}
	rng := rand.New(rand.NewSource(o.seed))
	specs := scalarItems(rng, batches*bwBatch, rsM/rsShards)
	b := &restart{o: o}
	var err error
	b.dense, b.acks, err = buildImage(o.workDir, specs, rsTicksPerBatch, int(float64(batches)*rsCheckpointFrac), true)
	if err != nil {
		return nil, fmt.Errorf("dense history: %w", err)
	}
	for _, a := range b.acks {
		b.offered += a.spec.fn.at(1)
		if a.decision != "rejected" {
			b.jobs++
		}
	}
	if b.sparse, err = sparseImage(o.workDir); err != nil {
		return nil, fmt.Errorf("sparse history: %w", err)
	}
	// Warm-up: one recovery, untimed.
	if _, err := b.recoverDense(false, true); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return b, nil
}

// buildImage submits specs in 64-item batches to a fresh durable daemon,
// advancing ticksPerBatch ticks per batch and checkpointing after
// checkpointAt batches (never when 0), and returns the directory's files as
// a crash would leave them, with the acknowledged verdicts. With keepers,
// every shard first gets a keeper job (see addKeepers) so that none goes
// idle while the history is written.
func buildImage(workDir string, specs []*jobSpec, ticksPerBatch int64, checkpointAt int, keepers bool) (image, []ack, error) {
	dir, err := os.MkdirTemp(workDir, "history-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	srv, err := serve.New(rsConfig(dir))
	if err != nil {
		return nil, nil, err
	}
	defer srv.Drain()
	h := srv.Handler()
	var acks []ack
	if keepers {
		batches := int64(len(specs)+bwBatch-1) / bwBatch
		if acks, err = addKeepers(h, rsShards, batches*ticksPerBatch); err != nil {
			return nil, nil, err
		}
	}
	for i := 0; i*bwBatch < len(specs); i++ {
		srv.Advance(int64(i) * ticksPerBatch)
		group := specs[i*bwBatch : min((i+1)*bwBatch, len(specs))]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs:batch", bytes.NewReader(batchBody(group))))
		if rec.Code != http.StatusOK {
			return nil, nil, fmt.Errorf("batch %d: status %d", i, rec.Code)
		}
		if acks, err = parseBatchResponse(rec.Body.Bytes(), group, acks); err != nil {
			return nil, nil, fmt.Errorf("batch %d: %w", i, err)
		}
		if i+1 == checkpointAt {
			if err := srv.Checkpoint(); err != nil {
				return nil, nil, err
			}
		}
	}
	img, err := readImage(dir)
	return img, acks, err
}

func readImage(dir string) (image, error) {
	img := image{}
	err := filepath.WalkDir(dir, func(p string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		img[rel], err = os.ReadFile(p)
		return err
	})
	return img, err
}

func (img image) write(dir string) error {
	for rel, data := range img {
		p := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (b *restart) round(traced bool) (*round, error) {
	r, err := b.recoverDense(traced, b.rounds == 0)
	if err != nil {
		return nil, err
	}
	b.rounds++
	for _, probe := range restartFaults {
		r.attempted++
		if err := probe.run(b); err != nil {
			r.failed++
			r.failures = append(r.failures, probe.name+": "+err.Error())
		}
	}
	return r, nil
}

// recoverDense is the timed operation: recover the dense image, then drain.
func (b *restart) recoverDense(traced, replayCheck bool) (*round, error) {
	dir, err := os.MkdirTemp(b.o.workDir, "restart-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := b.dense.write(dir); err != nil {
		return nil, err
	}
	r := &round{jobs: b.jobs, attempted: 1, offered: b.offered, layers: map[string]float64{}}
	var mem *memDelta
	if traced {
		mem = startMem()
	}
	t0 := time.Now()
	srv, err := serve.New(rsConfig(dir))
	recoverDur := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("recovering the dense history: %w", err)
	}
	drained := false
	defer func() {
		if !drained {
			srv.Drain()
		}
	}()
	info := srv.Recovery()
	if info == nil || info.Jobs != b.jobs {
		return nil, fmt.Errorf("recovered %+v, want %d jobs", info, b.jobs)
	}
	if traced {
		m, err := scrapeMetrics(srv.Handler())
		if err != nil {
			return nil, err
		}
		replayed := m.sum("serve_recovery_replayed_total")
		r.layers["serve.recovery.replayed_jobs"] = replayed
		r.layers["serve.recovery.us_per_job"] = m.sum("serve_recovery_duration_us_sum") / max(replayed, 1)
		r.layers["sim.advance_us_per_tick"] = float64(recoverDur.Microseconds()) / float64(max(info.Clock, 1))
	}
	r.heapMB = liveHeapMB()
	t1 := time.Now()
	res := srv.Drain()
	drainDur := time.Since(t1)
	drained = true
	r.busy = recoverDur + drainDur
	r.latMs = []float64{ms(r.busy)}
	if traced {
		mem.record(r.layers, b.jobs)
		r.layers["serve.drain.ms"] = ms(drainDur)
		r.layers["serve.checkpoint.count"] = 1
		r.layers["serve.checkpoint.bytes_last"] = float64(dirBytes(dir, "checkpoint.json"))
		if err := unmarshalLayer(r.layers, b.dense); err != nil {
			return nil, err
		}
	}
	var v verdicts
	for _, a := range b.acks {
		if err := v.add(a.decision); err != nil {
			return nil, err
		}
	}
	readmitted, err := checkResult(res, b.acks, rsM)
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
	r.layers["core.admitted"] = float64(v.admitted)
	r.layers["core.parked"] = float64(v.parked)
	r.layers["core.rejected"] = float64(v.rejected)
	r.layers["core.readmitted"] = float64(readmitted)
	r.digest = fmtDigest(v, readmitted, res.Completed, res.Expired, res.Ticks, res.TotalProfit)
	return r, nil
}

// unmarshalLayer times workload.UnmarshalJob over the image's job records:
// the checkpoints' job history and the WAL suffixes. Both files hold one
// record per line, framed as an 8-digit hex checksum, a space, and the JSON
// payload.
func unmarshalLayer(layers map[string]float64, img image) error {
	var recs []json.RawMessage
	for rel, data := range img {
		for _, line := range bytes.Split(bytes.TrimSpace(data), []byte{'\n'}) {
			if len(line) < 10 {
				continue
			}
			payload := line[9:]
			switch filepath.Base(rel) {
			case "checkpoint.json":
				var cp serve.Checkpoint
				if err := json.Unmarshal(payload, &cp); err != nil {
					return fmt.Errorf("%s: %w", rel, err)
				}
				for _, j := range cp.Jobs {
					recs = append(recs, j.Job)
				}
			case "wal.log":
				var wj serve.WALJob
				if err := json.Unmarshal(payload, &wj); err != nil {
					return fmt.Errorf("%s: %w", rel, err)
				}
				if wj.Type == "job" {
					recs = append(recs, wj.Job)
				}
			}
		}
	}
	if len(recs) == 0 {
		return fmt.Errorf("image holds no job records")
	}
	t0 := time.Now()
	for _, rec := range recs {
		if _, err := workload.UnmarshalJob(rec); err != nil {
			return err
		}
	}
	layers["workload.unmarshal_us_per_job"] = float64(time.Since(t0).Microseconds()) / float64(len(recs))
	return nil
}
