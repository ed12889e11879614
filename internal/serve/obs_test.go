package serve

import (
	"encoding/json"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"dagsched/internal/telemetry"
)

// scrapeMetrics fetches url and parses the exposition into sample → value,
// keyed by the full sample name including its label block.
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q, want the Prometheus text exposition type", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseMetrics(t, string(body))
}

func parseMetrics(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q has non-numeric value: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// metricSum folds every sample whose name+labels start with prefix.
func metricSum(m map[string]float64, prefix string) float64 {
	var sum float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			sum += v
		}
	}
	return sum
}

// normalizeExposition replaces every sample value with "V" so the golden
// file pins the scrape's shape — family names, help text, kinds, label sets,
// bucket boundaries, ordering — without pinning load-dependent numbers.
func normalizeExposition(t *testing.T, text string) string {
	t.Helper()
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			b.WriteString(line)
		} else {
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				t.Fatalf("malformed exposition line %q", line)
			}
			b.WriteString(line[:i])
			b.WriteString(" V")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestMetricsGolden pins the /metrics exposition format: a scrape of a
// two-shard daemon, values normalized, must match testdata/metrics.golden
// byte for byte. Regenerate with SPAA_UPDATE_GOLDEN=1 when the scrape
// contract deliberately changes.
func TestMetricsGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{M: 4, Shards: 2})

	// Exercise the three placer legs and a verdict so counters are live.
	postJob(t, ts, `{"w":8,"l":2,"deadline":30,"profit":2}`)
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(`{"w":4,"l":2,"deadline":30,"profit":1}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", "golden-key")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got := normalizeExposition(t, string(raw))

	golden := filepath.Join("testdata", "metrics.golden")
	if os.Getenv("SPAA_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with SPAA_UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from %s — if deliberate, regenerate with SPAA_UPDATE_GOLDEN=1\n%s",
			golden, diffLines(string(want), got))
	}
}

// diffLines reports the first few line-level differences between two texts.
func diffLines(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	n := 0
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			b.WriteString("line " + strconv.Itoa(i+1) + ":\n  want: " + w + "\n  got:  " + g + "\n")
			if n++; n >= 8 {
				b.WriteString("  …\n")
				break
			}
		}
	}
	return b.String()
}

// TestMetricsScrapeValues sanity-checks live sample values (the golden test
// only pins shape): verdict counters move with traffic and per-shard labels
// land on the right shard.
func TestMetricsScrapeValues(t *testing.T) {
	_, ts := newTestServer(t, Config{M: 4, Shards: 2})
	const n = 6
	for i := 0; i < n; i++ {
		postJob(t, ts, `{"w":4,"l":2,"deadline":40,"profit":1}`)
	}
	m := scrapeMetrics(t, ts.URL+"/metrics")

	if got := metricSum(m, "serve_accepted_total{"); got != n {
		t.Errorf("serve_accepted_total sums to %v, want %d", got, n)
	}
	if got := metricSum(m, "serve_placer_decisions_total{"); got != n {
		t.Errorf("serve_placer_decisions_total sums to %v, want %d", got, n)
	}
	if got := metricSum(m, "serve_submit_engine_us_count{"); got != n {
		t.Errorf("serve_submit_engine_us_count sums to %v, want %d", got, n)
	}
	if got := m[`serve_http_request_us_count{route="jobs"}`]; got != n {
		t.Errorf("serve_http_request_us_count = %v, want %d", got, n)
	}
	if got := m["serve_shards"]; got != 2 {
		t.Errorf("serve_shards = %v, want 2", got)
	}
	if got := m["serve_ready"]; got != 1 {
		t.Errorf("serve_ready = %v, want 1", got)
	}
	if got := metricSum(m, "serve_request_traces_total"); got != n {
		t.Errorf("serve_request_traces_total = %v, want %d", got, n)
	}
	// Both shards expose the full per-shard family set, even when idle.
	for _, want := range []string{
		`serve_accepted_total{shard="0"}`, `serve_accepted_total{shard="1"}`,
		`serve_pressure_ewma{shard="0"}`, `serve_pressure_ewma{shard="1"}`,
		`serve_mailbox_wait_us_count{shard="0"}`, `serve_mailbox_wait_us_count{shard="1"}`,
	} {
		if _, ok := m[want]; !ok {
			t.Errorf("sample %s missing from scrape", want)
		}
	}
}

var hexID = regexp.MustCompile(`^[0-9a-f]{16}$`)

// TestRequestIDPropagation traces one client-supplied X-Request-Id through
// the whole pipeline: echoed on the response, stamped into the WAL record of
// the shard that owns the job, captured in the trace ring, and exported as a
// Perfetto span — while server-generated IDs stay ephemeral (never
// persisted), keeping the durable bytes identical to an untraced run.
func TestRequestIDPropagation(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{
		M: 4, Shards: 2, TickInterval: -1,
		WALDir: dir, Fsync: FsyncAlways, CheckpointInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const reqID = "trace-me-123"
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(`{"w":8,"l":2,"deadline":30,"profit":2}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var jr JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != reqID {
		t.Errorf("response X-Request-Id = %q, want %q", got, reqID)
	}

	// The WAL record of the owning shard carries the ID.
	wals := walBytes(t, dir)
	if !strings.Contains(wals, `"reqId":"`+reqID+`"`) {
		t.Error("client-supplied request ID missing from the WAL")
	}
	// It is the record of this job, on the shard its ID stripe names.
	if dj, ok := durableJobs(t, dir)[jr.ID]; !ok || dj.rec.ReqID != reqID || dj.shard != (jr.ID-1)%2 {
		t.Errorf("durable record of job %d = %+v (present %v), want reqId %q on shard %d", jr.ID, dj, ok, reqID, (jr.ID-1)%2)
	}
	// The trace ring captured the request with its stages.
	var found bool
	for _, rt := range srv.traces.Snapshot() {
		if rt.ID != reqID {
			continue
		}
		found = true
		if rt.JobID != jr.ID {
			t.Errorf("trace jobID = %d, want %d", rt.JobID, jr.ID)
		}
		if rt.Shard != (jr.ID-1)%2 {
			t.Errorf("trace shard = %d, want %d (ID stripe)", rt.Shard, (jr.ID-1)%2)
		}
		stages := map[string]bool{}
		for _, st := range rt.Stages {
			stages[st.Name] = true
		}
		for _, want := range []string{"received", "dequeued", "wal_appended", "committed", "replied"} {
			if !stages[want] {
				t.Errorf("trace lacks stage %q (got %v)", want, rt.Stages)
			}
		}
	}
	if !found {
		t.Fatalf("request %s not in the trace ring", reqID)
	}
	// /debug/requests exports it as a validated Perfetto document.
	dts := httptest.NewServer(srv.DebugHandler())
	defer dts.Close()
	dresp, err := http.Get(dts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	debugBody, err := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateChromeTrace(debugBody); err != nil {
		t.Fatalf("/debug/requests is not a valid chrome trace: %v", err)
	}
	if !strings.Contains(string(debugBody), reqID) {
		t.Error("request ID missing from the /debug/requests export")
	}

	// A submission without the header gets a generated ID — echoed, traced,
	// but never persisted: the durable bytes stay identical to an untraced run.
	resp2, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"w":4,"l":2,"deadline":30,"profit":1}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	genID := resp2.Header.Get("X-Request-Id")
	if !hexID.MatchString(genID) {
		t.Errorf("generated request ID %q is not 16 hex chars", genID)
	}
	if strings.Contains(walBytes(t, dir), genID) {
		t.Error("server-generated request ID leaked into the WAL")
	}
	// Nor does the drain's checkpoint of any shard carry it, while the
	// client-supplied one survives there.
	srv.Drain()
	cps, err := filepath.Glob(filepath.Join(dir, "shard-*", checkpointFileName))
	if err != nil || len(cps) != 2 {
		t.Fatalf("drained checkpoints = %v (%v), want one per shard", cps, err)
	}
	var drained strings.Builder
	for _, p := range cps {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		drained.Write(data)
	}
	if strings.Contains(drained.String(), genID) {
		t.Error("server-generated request ID leaked into a drained checkpoint")
	}
	if !strings.Contains(drained.String(), `"reqId":"`+reqID+`"`) {
		t.Error("client-supplied request ID missing from the drained checkpoints")
	}
}

// walBytes concatenates every shard's wal.log under dir.
func walBytes(t *testing.T, dir string) string {
	t.Helper()
	var b strings.Builder
	matches, err := filepath.Glob(filepath.Join(dir, "shard-*", walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		matches = []string{filepath.Join(dir, walFileName)}
	}
	for _, p := range matches {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(data)
	}
	return b.String()
}

// TestReadyzReasonBodies pins the machine-readable 503 bodies and their
// serve_not_ready_total counters for the draining and degraded reasons.
func TestReadyzReasonBodies(t *testing.T) {
	t.Run("draining", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{M: 2})
		srv.Drain()

		var body map[string]string
		if code := getJSON(t, ts.URL+"/readyz", nil); code != 503 {
			t.Fatalf("readyz while draining = %d, want 503", code)
		}
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if body["reason"] != "draining" || body["error"] == "" {
			t.Errorf("readyz body = %v, want the {error, reason} envelope with reason draining", body)
		}
		m := scrapeMetrics(t, ts.URL+"/metrics")
		if got := m[`serve_not_ready_total{reason="draining"}`]; got < 2 {
			t.Errorf("serve_not_ready_total{reason=draining} = %v, want ≥ 2", got)
		}
		if got := m["serve_draining"]; got != 1 {
			t.Errorf("serve_draining = %v, want 1", got)
		}
	})

	t.Run("degraded", func(t *testing.T) {
		dir := t.TempDir()
		srv, drain := newDurableServer(t, dir, nil)
		defer drain()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		// Sabotage the WAL fd; the next submission degrades the daemon.
		srv.shards[0].wal.f.Close()
		postRaw(t, ts, `{"w":8,"l":2,"deadline":30,"profit":2}`, nil)

		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 503 || body["reason"] != "degraded" {
			t.Errorf("readyz degraded: code=%d body=%v", resp.StatusCode, body)
		}
		m := scrapeMetrics(t, ts.URL+"/metrics")
		if got := m[`serve_not_ready_total{reason="degraded"}`]; got < 1 {
			t.Errorf("serve_not_ready_total{reason=degraded} = %v, want ≥ 1", got)
		}
		if got := m["serve_degraded"]; got != 1 {
			t.Errorf("serve_degraded = %v, want 1", got)
		}
		if got := metricSum(m, "serve_degraded_events_total{"); got < 1 {
			t.Errorf("serve_degraded_events_total = %v, want ≥ 1", got)
		}
	})
}

// TestPlacerDecisionCountersMatchRoutes drives skewed keyed traffic at a
// sharded daemon and cross-checks three accountings of the same routing
// decisions: the placer's atomic counters, the /metrics exposition, and the
// shard WAL each job's record landed in.
func TestPlacerDecisionCountersMatchRoutes(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{M: 4, Shards: 2, TickInterval: -1, WALDir: dir, Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Skewed keyed traffic: one hot tenant dominates; each key is unique so
	// every submission commits a distinct job (a repeated key would be an
	// idempotent replay and never reach the session twice).
	keys := []string{"tenant-a-0", "tenant-a-1", "tenant-a-2", "tenant-b-0", "tenant-b-1",
		"tenant-a-3", "tenant-c-0", "tenant-a-4", "tenant-b-2", "tenant-a-5"}
	idToShard := map[int]int{} // expected owner by keyed FNV placement
	for i, key := range keys {
		spec := `{"w":` + strconv.Itoa(4+2*i) + `,"l":2,"deadline":60,"profit":1}`
		req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Idempotency-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var jr JobResponse
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("keyed submit %d = %d", i, resp.StatusCode)
		}
		h := fnv.New32a()
		h.Write([]byte(key))
		idToShard[jr.ID] = int(h.Sum32()) % 2
	}
	const unkeyed = 4
	for i := 0; i < unkeyed; i++ {
		postJob(t, ts, `{"w":4,"l":2,"deadline":60,"profit":1}`)
	}

	if got := srv.placer.keyed.Load(); got != int64(len(keys)) {
		t.Errorf("placer keyed counter = %d, want %d", got, len(keys))
	}
	if got := srv.placer.pressure.Load() + srv.placer.spill.Load(); got != unkeyed {
		t.Errorf("placer pressure+spill = %d, want %d", got, unkeyed)
	}

	m := scrapeMetrics(t, ts.URL+"/metrics")
	if got := m[`serve_placer_decisions_total{decision="keyed"}`]; got != float64(len(keys)) {
		t.Errorf(`serve_placer_decisions_total{decision="keyed"} = %v, want %d`, got, len(keys))
	}
	if got := metricSum(m, "serve_placer_decisions_total{"); got != float64(len(keys)+unkeyed) {
		t.Errorf("placer decisions sum to %v, want %d", got, len(keys)+unkeyed)
	}

	// Every keyed job's record lands in the WAL of the shard FNV affinity
	// picked.
	jobs := durableJobs(t, dir)
	if len(jobs) != len(keys)+unkeyed {
		t.Fatalf("WALs hold %d jobs, want %d", len(jobs), len(keys)+unkeyed)
	}
	for id, want := range idToShard {
		if dj, ok := jobs[id]; !ok || dj.shard != want {
			t.Errorf("job %d recorded by shard %d (present %v), keyed affinity says %d", id, dj.shard, ok, want)
		}
	}
	// Each shard's WAL agrees with the ID stripe (shard i owns IDs ≡ i+1 mod N).
	for id, dj := range jobs {
		if want := (id - 1) % 2; dj.shard != want {
			t.Errorf("job %d in shard %d's WAL, stripe says %d", id, dj.shard, want)
		}
	}
}
