package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"dagsched/internal/sim"
	"dagsched/internal/telemetry"
)

// Per-layer measurement for traced rounds: the daemon's own stage
// histograms diffed across the measured phase, the Go runtime's counters,
// and the benchmark's timers around public calls.

// scrape is one GET /metrics: series key (name plus labels) → value.
type scrape map[string]float64

func scrapeMetrics(h http.Handler) (scrape, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", rec.Code)
	}
	out := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds up every series of a metric name whose labels contain each of
// the given label fragments (e.g. `route="jobs"`).
func (s scrape) sum(name string, labels ...string) float64 {
	var t float64
	for k, v := range s {
		if !seriesOf(k, name) {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(k, l)
		}
		if ok {
			t += v
		}
	}
	return t
}

func seriesOf(key, name string) bool {
	return key == name || (strings.HasPrefix(key, name) && len(key) > len(name) && key[len(name)] == '{')
}

// delta is after − before for one summed series.
func delta(before, after scrape, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}

// histQuantile is the upper bucket edge below which a fraction q of the
// samples a histogram gained between two scrapes fall, summed over shards.
// The daemon's buckets are powers of two, so this is an upper bound within
// a factor of two.
func histQuantile(before, after scrape, family string, q float64) float64 {
	counts := map[float64]float64{}
	for k, v := range after {
		if !seriesOf(k, family+"_bucket") {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		le := k[i+4 : strings.IndexByte(k[i+4:], '"')+i+4]
		edge := math.Inf(1)
		if le != "+Inf" {
			var err error
			if edge, err = strconv.ParseFloat(le, 64); err != nil {
				continue
			}
		}
		counts[edge] += v - before[k]
	}
	edges := make([]float64, 0, len(counts))
	for e := range counts {
		edges = append(edges, e)
	}
	sort.Float64s(edges)
	if len(edges) == 0 || counts[edges[len(edges)-1]] == 0 {
		return 0
	}
	total := counts[edges[len(edges)-1]]
	for _, e := range edges {
		if counts[e] >= q*total {
			return e
		}
	}
	return edges[len(edges)-1]
}

// memDelta is the Go runtime's allocation and GC activity over a phase.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

// record stores the runtime layer metrics for a phase that handled items.
func (m *memDelta) record(layers map[string]float64, items int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	layers["runtime.allocs_per_item"] = float64(after.Mallocs-m.before.Mallocs) / float64(items)
	layers["runtime.alloc_bytes_per_item"] = float64(after.TotalAlloc-m.before.TotalAlloc) / float64(items)
	layers["runtime.gc_cycles"] = float64(after.NumGC - m.before.NumGC)
	layers["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-m.before.PauseTotalNs) / 1e6
}

// liveHeapMB forces a collection and reads the live heap. The second
// collection drops what sync.Pool victim caches kept through the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// serveLayers fills the serve.* metrics of a submission phase from two
// /metrics scrapes. items is the number of submissions the phase made.
func serveLayers(layers map[string]float64, before, after scrape, items int) {
	n := float64(items)
	httpUs := delta(before, after, "serve_http_request_us_sum")
	waitUs := delta(before, after, "serve_mailbox_wait_us_sum")
	engUs := delta(before, after, "serve_submit_engine_us_sum") + delta(before, after, "serve_batch_engine_us_sum")
	layers["serve.http.self_us_per_item"] = (httpUs - waitUs - engUs) / n
	layers["serve.mailbox.wait_us_p99"] = histQuantile(before, after, "serve_mailbox_wait_us", 0.99)
	layers["serve.engine.us_per_item"] = engUs / n
	layers["serve.placer.keyed"] = delta(before, after, "serve_placer_decisions_total", `decision="keyed"`)
	layers["serve.placer.pressure"] = delta(before, after, "serve_placer_decisions_total", `decision="pressure"`)
	layers["serve.placer.spill"] = delta(before, after, "serve_placer_decisions_total", `decision="spill"`)
	if recs := delta(before, after, "serve_wal_append_us_count"); recs > 0 {
		layers["serve.wal.append_us_per_record"] = delta(before, after, "serve_wal_append_us_sum") / recs
	}
	layers["serve.checkpoint.count"] = delta(before, after, "serve_checkpoint_us_count")
	layers["serve.checkpoint.ms_total"] = delta(before, after, "serve_checkpoint_us_sum") / 1000
}

// timedSched runs a scheduler and adds up the wall time spent inside its
// callbacks. It forwards the optional interfaces the engines consult —
// EventSafe (so RunAuto still picks the evented engine), Committer, and
// telemetry attachment — so wrapping changes no decision.
type timedSched struct {
	s  sim.Scheduler
	in time.Duration
}

func (t *timedSched) Name() string { return t.s.Name() }

func (t *timedSched) Init(env sim.Env) {
	t0 := time.Now()
	t.s.Init(env)
	t.in += time.Since(t0)
}

func (t *timedSched) OnArrival(now int64, v sim.JobView) {
	t0 := time.Now()
	t.s.OnArrival(now, v)
	t.in += time.Since(t0)
}

func (t *timedSched) OnExpire(now int64, id int) {
	t0 := time.Now()
	t.s.OnExpire(now, id)
	t.in += time.Since(t0)
}

func (t *timedSched) Assign(now int64, view sim.AssignView, dst []sim.Alloc) []sim.Alloc {
	t0 := time.Now()
	dst = t.s.Assign(now, view, dst)
	t.in += time.Since(t0)
	return dst
}

func (t *timedSched) OnCompletion(now int64, id int) {
	t0 := time.Now()
	t.s.OnCompletion(now, id)
	t.in += time.Since(t0)
}

func (t *timedSched) EventSafe() bool {
	es, ok := t.s.(sim.EventSafe)
	return ok && es.EventSafe()
}

func (t *timedSched) Committed(id int) bool {
	c, ok := t.s.(sim.Committer)
	return ok && c.Committed(id)
}

func (t *timedSched) SetTelemetry(rec *telemetry.Recorder) { telemetry.Attach(t.s, rec) }
