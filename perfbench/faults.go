package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"

	"dagsched/internal/serve"
)

// restartFaults are the operations that hit a known recovery fault in
// sim.Session.AdvanceTo: when the last live job of a shard expires at tick
// t, step processes that expiry but leaves the clock at t, while a session
// that served the same history moved on; recovery's AdvanceTo(release) and
// checkBoundary then stop short of t and the replay diverges. Both inputs
// are fixed — they do not depend on the seed — so each operation fails in
// every round until the fault is fixed, and the run counts it as failed
// with the daemon's error text.
var restartFaults = []struct {
	name string
	run  func(b *restart) error
}{
	{"restart after a clean drain", cleanDrainRestart},
	{"crash recovery of a sparse history", sparseRecovery},
}

// cleanDrainRestart submits nine {"w":16,"l":2,"deadline":40} jobs at tick 0
// to a single-shard M=4 durable daemon, drains it, and starts a new daemon
// over the same directory.
func cleanDrainRestart(b *restart) error {
	dir, err := os.MkdirTemp(b.o.workDir, "clean-drain-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := serve.Config{M: 4, TickInterval: -1, WALDir: dir, Fsync: serve.FsyncInterval, CheckpointInterval: -1}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	h := srv.Handler()
	for i := 0; i < 9; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader([]byte(`{"w":16,"l":2,"deadline":40}`))))
		if rec.Code != http.StatusOK {
			srv.Drain()
			return fmt.Errorf("submission %d: status %d", i, rec.Code)
		}
	}
	srv.Drain()
	again, err := serve.New(cfg)
	if err != nil {
		return err
	}
	again.Drain()
	return nil
}

// sparseImage builds the crash image of a fixed history in which the
// shards go idle on expiries: spBatches batches of 64 copies of
// {"w":16,"l":2,"deadline":40,"profit":3}, one every spTicksPerBatch ticks,
// on a 2-shard M=16 daemon. Every job is done long before the next batch, so
// each batch lands on an idle shard whose clock stopped at its last expiry.
const (
	spBatches       = 4
	spTicksPerBatch = 120
)

func sparseImage(workDir string) (image, error) {
	spec := scalarShape{w: 16, l: 2, deadline: 40, profit: 3}.spec()
	specs := make([]*jobSpec, spBatches*bwBatch)
	for i := range specs {
		specs[i] = spec
	}
	img, _, err := buildImage(workDir, specs, spTicksPerBatch, 0, false)
	return img, err
}

// sparseRecovery recovers the sparse crash image.
func sparseRecovery(b *restart) error {
	dir, err := os.MkdirTemp(b.o.workDir, "sparse-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := b.sparse.write(dir); err != nil {
		return err
	}
	srv, err := serve.New(rsConfig(dir))
	if err != nil {
		return err
	}
	srv.Drain()
	return nil
}
