package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// postRaw submits a body with optional headers and decodes the error body.
func postRaw(t *testing.T, ts *httptest.Server, body string, headers map[string]string) (int, errorResponse) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er errorResponse
	if resp.StatusCode != http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("non-200 body is not an errorResponse: %v", err)
		}
	}
	return resp.StatusCode, er
}

// submitErrorCases is the POST /v1/jobs failure surface, run against a
// two-processor daemon with a 512-byte body limit.
var submitErrorCases = []struct {
	name       string
	body       string
	headers    map[string]string
	want       int
	wantReason string
	errHas     string
}{
	{name: "not json", body: `{nope`, want: 400, wantReason: reasonBadRequest},
	{name: "unknown field", body: `{"w":1,"l":1,"deadline":3,"profit":1,"bogus":true}`, want: 400, wantReason: reasonBadRequest},
	{name: "missing curve", body: `{"w":4,"l":2}`, want: 400, wantReason: reasonBadRequest},
	{name: "w below l", body: `{"w":2,"l":4,"deadline":9,"profit":1}`, want: 400, wantReason: reasonBadRequest},
	{name: "empty body", body: ``, want: 400, wantReason: reasonBadRequest},
	{name: "json array", body: `[1,2,3]`, want: 400, wantReason: reasonBadRequest},
	{name: "bad profit object", body: `{"w":4,"l":2,"profit":{"type":"warp"}}`, want: 400, wantReason: reasonBadRequest},
	{name: "bad commitment", body: `{"w":4,"l":2,"deadline":9,"profit":1,"commitment":"always"}`, want: 400, wantReason: reasonBadRequest},
	{
		name:       "oversized body",
		body:       `{"w":4,"l":2,"deadline":9,"profit":1,"pad":"` + strings.Repeat("x", 600) + `"}`,
		want:       413,
		wantReason: reasonTooLarge,
		errHas:     "exceeds",
	},
	{
		name:       "idempotency key too long",
		body:       `{"w":4,"l":2,"deadline":9,"profit":1}`,
		headers:    map[string]string{"Idempotency-Key": strings.Repeat("k", 200)},
		want:       400,
		wantReason: reasonBadRequest,
		errHas:     "idempotency key",
	},
}

// TestHTTPSubmitErrorTable covers the POST /v1/jobs failure surface: every
// non-200 answer is application/json with a non-empty {"error": ...} body.
func TestHTTPSubmitErrorTable(t *testing.T) {
	_, ts := newTestServer(t, Config{M: 2, MaxBodyBytes: 512})
	for _, tc := range submitErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			code, er := postRaw(t, ts, tc.body, tc.headers)
			if code != tc.want {
				t.Fatalf("code = %d, want %d (error %q)", code, tc.want, er.Error)
			}
			if er.Error == "" {
				t.Fatal("error body is empty")
			}
			if er.Reason != tc.wantReason {
				t.Fatalf("reason = %q, want %q", er.Reason, tc.wantReason)
			}
			if tc.errHas != "" && !strings.Contains(er.Error, tc.errHas) {
				t.Fatalf("error %q does not mention %q", er.Error, tc.errHas)
			}
		})
	}
}

// TestErrorEnvelopeEverySurface is the wire contract for failures: every
// 4xx/5xx the daemon can produce — submit, status, batch (top-level and
// per-item), drain, readiness — answers the same {"error", "reason"} envelope
// with a machine-readable reason token.
func TestErrorEnvelopeEverySurface(t *testing.T) {
	srv, ts := newTestServer(t, Config{M: 2, MaxBodyBytes: 512})

	get := func(path string) (int, errorResponse) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("GET %s body is not an errorResponse: %v", path, err)
		}
		return resp.StatusCode, er
	}

	if code, er := get("/v1/jobs/notanumber"); code != 400 || er.Reason != reasonBadRequest || er.Error == "" {
		t.Errorf("bad job id: code=%d body=%+v, want 400 %s", code, er, reasonBadRequest)
	}
	if code, er := get("/v1/jobs/99999"); code != 404 || er.Reason != reasonNotFound || er.Error == "" {
		t.Errorf("unknown job: code=%d body=%+v, want 404 %s", code, er, reasonNotFound)
	}

	// Batch: a top-level failure carries the envelope...
	resp, err := http.Post(ts.URL+"/v1/jobs:batch", "application/json", strings.NewReader(`{"not":"an array"}`))
	if err != nil {
		t.Fatal(err)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 || er.Reason != reasonBadRequest || er.Error == "" {
		t.Errorf("batch top-level: code=%d body=%+v, want 400 %s", resp.StatusCode, er, reasonBadRequest)
	}

	// ...and a failed item inside a 200 batch carries the same pair.
	resp, err = http.Post(ts.URL+"/v1/jobs:batch", "application/json",
		strings.NewReader(`[{"w":4,"l":2,"deadline":9,"profit":1},{"w":2,"l":4,"deadline":9,"profit":1}]`))
	if err != nil {
		t.Fatal(err)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || len(br.Items) != 2 {
		t.Fatalf("batch: code=%d items=%d", resp.StatusCode, len(br.Items))
	}
	if it := br.Items[0]; it.Status != 200 || it.Error != "" || it.Reason != "" {
		t.Errorf("good item carries error fields: %+v", it)
	}
	if it := br.Items[1]; it.Status != 400 || it.Error == "" || it.Reason != reasonBadRequest {
		t.Errorf("bad item: %+v, want 400 with error and reason %s", it, reasonBadRequest)
	}

	// Drain: submissions and readiness both report the envelope.
	srv.Drain()
	if code, er := postRaw(t, ts, `{"w":4,"l":2,"deadline":9,"profit":1}`, nil); code != 503 || er.Reason != reasonDraining || er.Error == "" {
		t.Errorf("post-drain submit: code=%d body=%+v, want 503 %s", code, er, reasonDraining)
	}
	if code, er := get("/readyz"); code != 503 || er.Reason != reasonDraining || er.Error == "" {
		t.Errorf("post-drain readyz: code=%d body=%+v, want 503 %s", code, er, reasonDraining)
	}
}

// TestHTTPBackpressureBody asserts the 429 body shape, not just the code.
func TestHTTPBackpressureBody(t *testing.T) {
	srv, ts := newTestServer(t, Config{M: 1, QueueDepth: 1})
	defer holdEngine(srv.shards[0])() // queue full, shard "busy"

	code, er := postRaw(t, ts, `{"w":4,"l":2,"deadline":9,"profit":1}`, nil)
	if code != 429 {
		t.Fatalf("code = %d, want 429", code)
	}
	if er.Error != "submission queue full" || er.Reason != reasonQueueFull {
		t.Fatalf("429 body = %+v", er)
	}
}

// TestHTTPDrainBody asserts the 503 shape during and after drain, and the
// liveness/readiness split around it.
func TestHTTPDrainBody(t *testing.T) {
	srv, ts := newTestServer(t, Config{M: 1})
	srv.Drain()

	code, er := postRaw(t, ts, `{"w":4,"l":2,"deadline":9,"profit":1}`, nil)
	if code != 503 || er.Error != "draining" {
		t.Fatalf("post-drain submit: code=%d body=%+v", code, er)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != 200 {
		t.Fatalf("healthz after drain = %d, want 200 (still live)", code)
	}
	var ready map[string]string
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("readyz after drain = %d, want 503", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	if ready["reason"] != "draining" {
		t.Fatalf("readyz body = %+v, want reason draining", ready)
	}
}

// TestHTTPDegradedSurfaces forces a durability failure and checks the daemon
// stops acknowledging, fails readiness and liveness, and reports the cause.
func TestHTTPDegradedSurfaces(t *testing.T) {
	dir := t.TempDir()
	srv, drain := newDurableServer(t, dir, nil)
	defer drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, _ := postRaw(t, ts, `{"w":8,"l":2,"deadline":30,"profit":2}`, nil); code != 200 {
		t.Fatalf("healthy submit: code=%d", code)
	}

	// Sabotage the WAL fd so the next append cannot be made durable.
	srv.shards[0].wal.f.Close()
	code, er := postRaw(t, ts, `{"w":8,"l":2,"deadline":30,"profit":2}`, nil)
	if code != 503 || !strings.Contains(er.Error, "degraded") {
		t.Fatalf("submit over broken WAL: code=%d body=%+v", code, er)
	}
	if got := srv.Degraded(); !strings.Contains(got, "wal append") {
		t.Fatalf("Degraded() = %q", got)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != 503 {
		t.Fatalf("healthz degraded = %d, want 503", code)
	}
	if code := getJSON(t, ts.URL+"/readyz", nil); code != 503 {
		t.Fatalf("readyz degraded = %d, want 503", code)
	}
	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != 200 {
		t.Fatalf("stats while degraded = %d", code)
	}
	if stats.Degraded == "" || stats.Ready {
		t.Fatalf("stats = ready=%v degraded=%q", stats.Ready, stats.Degraded)
	}
	if stats.Telemetry.Counters["serve.degraded_events"] == 0 {
		t.Fatal("degraded_events counter not bumped")
	}
}

func TestSynthesizeDAG(t *testing.T) {
	cases := []struct{ w, l int64 }{
		{1, 1}, {5, 1}, {4, 4}, {7, 2}, {20, 4}, {32, 4}, {100, 3}, {17, 16},
	}
	for _, tc := range cases {
		g, err := synthesizeDAG(tc.w, tc.l)
		if err != nil {
			t.Fatalf("synthesize(%d,%d): %v", tc.w, tc.l, err)
		}
		if g.TotalWork() != tc.w || g.Span() != tc.l {
			t.Errorf("synthesize(%d,%d): W=%d L=%d", tc.w, tc.l, g.TotalWork(), g.Span())
		}
	}
	for _, tc := range []struct{ w, l int64 }{{0, 0}, {1, 2}, {0, 1}, {-3, 1}} {
		if _, err := synthesizeDAG(tc.w, tc.l); err == nil {
			t.Errorf("synthesize(%d,%d) accepted", tc.w, tc.l)
		}
	}
	// The node cap rejects absurd scalar specs instead of materializing them.
	if _, err := synthesizeDAG(1<<20, 1); err == nil {
		t.Error("giant block accepted")
	}
	if _, err := synthesizeDAG(1<<30, 2); err == nil {
		t.Error("giant fringe accepted")
	}
}
