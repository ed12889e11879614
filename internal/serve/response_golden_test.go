package serve

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The single-endpoint response golden: the status, Content-Type and body
// POST /v1/jobs answers for each verdict (admitted, parked, rejected, keyed
// and its replay), for every submitErrorCases body, and for 429 (queue
// full, recorded as "mailbox full"), 503 draining and 503 degraded. Regenerating it with
// -update-response-golden declares a change to the wire contract.

var updateResponseGolden = flag.Bool("update-response-golden", false,
	"rewrite testdata/single_response.golden from the current code path")

const responseGolden = "testdata/single_response.golden"

// recordPost posts body to ts's /v1/jobs and appends the answer to out under
// name. dir, when set, is replaced by $DIR so temp paths do not leak into the
// golden.
func recordPost(t *testing.T, out *strings.Builder, ts *httptest.Server, name, body string, headers map[string]string, dir string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
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
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if dir != "" {
		raw = []byte(strings.ReplaceAll(string(raw), dir, "$DIR"))
	}
	fmt.Fprintf(out, "## %s\nstatus: %d\ncontent-type: %s\n%s", name, resp.StatusCode, resp.Header.Get("Content-Type"), raw)
}

func TestSingleResponseGolden(t *testing.T) {
	var out strings.Builder

	// Verdicts and the error table, on the error table's daemon. Two clones
	// of band weight 1 on m=2 admit and then park (TestServeParkedDecision).
	srv, ts := newTestServer(t, Config{M: 2, MaxBodyBytes: 512})
	clone := `{"w":20,"l":4,"deadline":30,"profit":10}`
	recordPost(t, &out, ts, "admitted", clone, nil, "")
	recordPost(t, &out, ts, "parked", clone, nil, "")
	recordPost(t, &out, ts, "rejected", `{"w":100,"l":2,"deadline":12,"profit":8}`, nil, "")
	recordPost(t, &out, ts, "explicit dag", `{"dag":{"work":[2,2],"edges":[[0,1]]},"deadline":25,"profit":2}`, nil, "")
	key := map[string]string{"Idempotency-Key": "golden-key"}
	recordPost(t, &out, ts, "keyed", `{"w":2,"l":2,"deadline":40,"profit":1}`, key, "")
	recordPost(t, &out, ts, "keyed replay", `{"w":2,"l":2,"deadline":40,"profit":1}`, key, "")
	rejKey := map[string]string{"Idempotency-Key": "golden-reject"}
	recordPost(t, &out, ts, "keyed reject", `{"w":100,"l":2,"deadline":12,"profit":8}`, rejKey, "")
	recordPost(t, &out, ts, "keyed reject replay", `{"w":1,"l":1,"deadline":9,"profit":1}`, rejKey, "")
	for _, tc := range submitErrorCases {
		recordPost(t, &out, ts, tc.name, tc.body, tc.headers, "")
	}
	srv.Drain()
	recordPost(t, &out, ts, "draining", clone, nil, "")

	// 429: the shard is held and its one-slot queue is full.
	busy, bts := newTestServer(t, Config{M: 2, QueueDepth: 1})
	release := holdEngine(busy.shards[0])
	recordPost(t, &out, bts, "mailbox full", clone, nil, "")
	release()

	// 503 degraded: the WAL fd is closed under a durable daemon, so the next
	// accepted record cannot be made durable; the one after finds the daemon
	// already degraded.
	dir := t.TempDir()
	dsrv, drain := newDurableServer(t, dir, nil)
	defer drain()
	dts := httptest.NewServer(dsrv.Handler())
	defer dts.Close()
	recordPost(t, &out, dts, "durable admitted", `{"w":8,"l":2,"deadline":30,"profit":2}`, nil, dir)
	dsrv.shards[0].wal.f.Close()
	recordPost(t, &out, dts, "degrading", `{"w":8,"l":2,"deadline":30,"profit":2}`, nil, dir)
	recordPost(t, &out, dts, "degraded", `{"w":8,"l":2,"deadline":30,"profit":2}`, nil, dir)

	got := out.String()
	if *updateResponseGolden {
		if err := os.WriteFile(responseGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", responseGolden)
		return
	}
	want, err := os.ReadFile(filepath.FromSlash(responseGolden))
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-response-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("single-endpoint responses drifted from %s\n%s", responseGolden, diffLines(string(want), got))
	}
}
