package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"dagsched/internal/sim"
)

// newTestServer builds a deterministic-clock server (ticker disabled) and an
// httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.TickInterval == 0 {
		cfg.TickInterval = -1
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { srv.Drain() })
	return srv, ts
}

func postJob(t *testing.T, ts *httptest.Server, spec string) (int, JobResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr JobResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, jr
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestServeSubmitLifecycle(t *testing.T) {
	srv, ts := newTestServer(t, Config{M: 4})

	// A feasible job is admitted with the next ID and the plan echoed.
	code, jr := postJob(t, ts, `{"w":32,"l":4,"deadline":40,"profit":10}`)
	if code != 200 || jr.Decision != DecisionAdmitted || jr.ID != 1 {
		t.Fatalf("submit: code=%d resp=%+v", code, jr)
	}
	if jr.Plan == nil || !jr.Plan.Good || jr.Plan.Alloc < 1 {
		t.Fatalf("admitted without a sane plan: %+v", jr.Plan)
	}

	// An infeasible job (needs more speedup than the window allows) is
	// rejected outright with no ID.
	code, jr = postJob(t, ts, `{"w":100,"l":2,"deadline":12,"profit":8}`)
	if code != 200 || jr.Decision != DecisionRejected || jr.ID != 0 || jr.Reason != "not-delta-good" {
		t.Fatalf("infeasible submit: code=%d resp=%+v", code, jr)
	}

	// Malformed and invalid specs are 400s.
	for _, bad := range []string{
		`{"w":32}`,                              // missing l
		`{"w":2,"l":4,"deadline":9,"profit":1}`, // w < l
		`{"w":32,"l":4}`,                        // no profit curve
		`{nope`,                                 // not JSON
		`{"w":1,"l":1,"deadline":3,"profit":1,"bogus":true}`, // unknown field
	} {
		if code, _ := postJob(t, ts, bad); code != 400 {
			t.Errorf("spec %s: code=%d, want 400", bad, code)
		}
	}

	// Status of the committed job.
	var st StatusResponse
	if code := getJSON(t, ts.URL+"/v1/jobs/1", &st); code != 200 {
		t.Fatalf("status: code=%d", code)
	}
	if st.State != "live" || st.W != 32 || st.L != 4 {
		t.Fatalf("status = %+v", st)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/99", nil); code != 404 {
		t.Fatalf("unknown job: code=%d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/zero", nil); code != 400 {
		t.Fatalf("bad id: code=%d, want 400", code)
	}

	// Stats reflect the one committed job and the serving counters.
	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != 200 {
		t.Fatalf("stats: code=%d", code)
	}
	if stats.Scheduler == "" || stats.M != 4 || stats.Live != 1 || stats.Draining {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Telemetry.Counters["serve.accepted"] != 1 || stats.Telemetry.Counters["serve.rejected"] != 1 {
		t.Fatalf("counters = %+v", stats.Telemetry.Counters)
	}

	if code := getJSON(t, ts.URL+"/healthz", nil); code != 200 {
		t.Fatalf("healthz: code=%d", code)
	}
	if code := getJSON(t, ts.URL+"/readyz", nil); code != 200 {
		t.Fatalf("readyz: code=%d", code)
	}

	// Drain over HTTP: committed work finishes in simulated time.
	resp, err := http.Post(ts.URL+"/v1/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var res sim.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if res.Completed != 1 || res.TotalProfit != 10 {
		t.Fatalf("drain result: completed=%d profit=%v", res.Completed, res.TotalProfit)
	}

	// Post-drain: the process is still live (healthz 200) but no longer
	// ready for work (readyz 503); submissions are 503, sealed lookups work.
	if code := getJSON(t, ts.URL+"/healthz", nil); code != 200 {
		t.Fatalf("healthz after drain: code=%d, want 200 (liveness)", code)
	}
	if code := getJSON(t, ts.URL+"/readyz", nil); code != 503 {
		t.Fatalf("readyz after drain: code=%d, want 503", code)
	}
	if code, _ := postJob(t, ts, `{"w":4,"l":2,"deadline":9,"profit":1}`); code != 503 {
		t.Fatalf("submit after drain: code=%d, want 503", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/1", &st); code != 200 || st.State != "completed" {
		t.Fatalf("sealed status: code=%d state=%q", code, st.State)
	}
	if !srv.Draining() {
		t.Fatal("Draining() = false after drain")
	}
}

func TestServeParkedDecision(t *testing.T) {
	// m=2, ε=1: band capacity b·m ≈ 1.73. Each clone below carries band
	// weight exactly 1, so the first is admitted and the second parks in P.
	_, ts := newTestServer(t, Config{M: 2})
	spec := `{"w":20,"l":4,"deadline":30,"profit":10}`

	code, jr := postJob(t, ts, spec)
	if code != 200 || jr.Decision != DecisionAdmitted || jr.ID != 1 {
		t.Fatalf("first clone: code=%d resp=%+v", code, jr)
	}
	code, jr = postJob(t, ts, spec)
	if code != 200 || jr.Decision != DecisionParked || jr.ID != 2 || jr.Reason != "band-full" {
		t.Fatalf("second clone: code=%d resp=%+v", code, jr)
	}

	// Parked means committed: the job has an ID and a live status.
	var st StatusResponse
	if code := getJSON(t, ts.URL+"/v1/jobs/2", &st); code != 200 || st.State != "live" {
		t.Fatalf("parked job status: code=%d state=%q", code, st.State)
	}
}

func TestServeNonAdmissionScheduler(t *testing.T) {
	// EDF has no admission test; every valid job is simply accepted.
	_, ts := newTestServer(t, Config{M: 2, Sched: "edf"})
	code, jr := postJob(t, ts, `{"w":8,"l":2,"deadline":20,"profit":5}`)
	if code != 200 || jr.Decision != DecisionAccepted || jr.ID != 1 || jr.Plan != nil {
		t.Fatalf("edf submit: code=%d resp=%+v", code, jr)
	}
}

func TestServeFullDAGSubmission(t *testing.T) {
	_, ts := newTestServer(t, Config{M: 2})
	code, jr := postJob(t, ts,
		`{"dag":{"work":[1,2,1],"edges":[[0,1],[1,2]]},"curve":{"kind":"linear","value":6,"flat":8,"zeroAt":16}}`)
	if code != 200 || jr.ID != 1 {
		t.Fatalf("dag submit: code=%d resp=%+v", code, jr)
	}
	var st StatusResponse
	getJSON(t, ts.URL+"/v1/jobs/1", &st)
	if st.W != 4 || st.L != 4 {
		t.Fatalf("dag job status: %+v", st)
	}
	// dag and w/l together is a contradiction.
	if code, _ := postJob(t, ts, `{"dag":{"work":[1]},"w":1,"l":1,"deadline":3,"profit":1}`); code != 400 {
		t.Fatalf("dag+scalars: code=%d, want 400", code)
	}
}

// TestServeBackpressure fills the mailbox of an engineless server and checks
// the handler answers 429 without blocking.
func TestServeBackpressure(t *testing.T) {
	s := &Server{cfg: Config{M: 1, QueueDepth: 1}}
	sh := &shard{srv: s, m: 1, stride: 1, reqs: make(chan any, 1), engineDone: make(chan struct{})}
	s.shards = []*shard{sh}
	s.placer = newPlacer(s.shards)
	sh.reqs <- struct{}{} // engine is "busy"; the mailbox is now full
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, _ := postJob(t, ts, `{"w":4,"l":2,"deadline":9,"profit":1}`)
	if code != 429 {
		t.Fatalf("full mailbox: code=%d, want 429", code)
	}
}

// TestServeConcurrentSubmissions hammers the daemon from parallel clients
// (run under -race), drains, and checks the WAL re-simulates the serving
// session bit-identically.
func TestServeConcurrentSubmissions(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{M: 4, QueueDepth: 256, WALDir: dir, Fsync: FsyncOff})

	const clients, perClient = 8, 25
	var mu sync.Mutex
	accepted := 0
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				// A mix of shapes; some will park or reject under S.
				w := int64(4 + (c+i)%29)
				l := int64(1 + (c*i)%4)
				if l > w {
					l = w
				}
				spec := fmt.Sprintf(`{"w":%d,"l":%d,"deadline":%d,"profit":%d}`,
					w, l, l+20+int64(i%17), 1+i%7)
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
				if err != nil {
					t.Error(err)
					return
				}
				var jr JobResponse
				dec := json.NewDecoder(resp.Body)
				if resp.StatusCode == http.StatusOK {
					if err := dec.Decode(&jr); err != nil {
						t.Error(err)
					}
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					if jr.ID > 0 {
						mu.Lock()
						accepted++
						mu.Unlock()
					}
				case http.StatusTooManyRequests:
					// Backpressure is a legal answer under load.
				default:
					t.Errorf("submit: unexpected status %d", resp.StatusCode)
				}
				// Interleave reads to exercise the mailbox under contention
				// (plain Get: test helpers must not Fatal off the test goroutine).
				if i%5 == 0 {
					if sr, err := http.Get(ts.URL + "/v1/stats"); err == nil {
						io.Copy(io.Discard, sr.Body)
						sr.Body.Close()
					}
				}
				if i%7 == 0 {
					srv.Advance(int64(i))
				}
			}
		}(c)
	}
	wg.Wait()

	res := srv.Drain()
	if len(res.Jobs) != accepted {
		t.Fatalf("result has %d jobs, clients saw %d accepted", len(res.Jobs), accepted)
	}
	if res.Completed+res.Expired != accepted {
		t.Fatalf("completed %d + expired %d != accepted %d", res.Completed, res.Expired, accepted)
	}

	assertReplayIdentical(t, dir, res)
}

// TestServeDrainUnderLoad drains while submitters are still pounding the
// API; every in-flight request must resolve to 200, 429, or 503, and the
// final result must cover exactly the accepted jobs.
func TestServeDrainUnderLoad(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{M: 2, QueueDepth: 8, WALDir: dir, Fsync: FsyncOff})

	const clients, perClient = 6, 40
	var mu sync.Mutex
	accepted := 0
	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for i := 0; i < perClient; i++ {
				spec := fmt.Sprintf(`{"w":%d,"l":2,"deadline":30,"profit":3}`, int64(4+(c+i)%10))
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
				if err != nil {
					t.Error(err)
					return
				}
				var jr JobResponse
				if resp.StatusCode == http.StatusOK {
					json.NewDecoder(resp.Body).Decode(&jr)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					if jr.ID > 0 {
						mu.Lock()
						accepted++
						mu.Unlock()
					}
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					// Both are legal while draining under load.
				default:
					t.Errorf("submit: unexpected status %d", resp.StatusCode)
				}
			}
		}(c)
	}
	close(start)

	// Drain from a separate goroutine mid-flight.
	drainRes := make(chan *sim.Result, 1)
	go func() { drainRes <- srv.Drain() }()
	res := <-drainRes
	wg.Wait()

	if len(res.Jobs) != accepted {
		t.Fatalf("result has %d jobs, clients saw %d accepted", len(res.Jobs), accepted)
	}
	assertReplayIdentical(t, dir, res)
}

// TestWALDoesNotChangeSchedule: the WAL only records. One deterministic
// script — direct, placer-routed and keyed submissions (one retried), a
// per-job commitment, explicit Advance — gets the same verdicts and drains
// to the same Result on a daemon without a WAL directory as on one writing
// its WAL with FsyncOff, sharded and unsharded, and that Result equals
// ReplayDir of the second daemon's directory.
func TestWALDoesNotChangeSchedule(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			run := func(dir string) ([]string, *sim.Result) {
				srv, err := New(Config{M: 6, Shards: shards, TickInterval: -1, WALDir: dir, Fsync: FsyncOff})
				if err != nil {
					t.Fatal(err)
				}
				var verdicts []string
				for i := 0; i < 40; i++ {
					spec := JobSpec{
						W: int64(3 + i%23), L: int64(1 + i%3), Deadline: int64(6 + i%19),
						Profit: ScalarProfit(float64(1 + i%6)),
					}
					if i%7 == 3 {
						spec.Commitment = CommitmentDelta
					}
					var rep submitReply
					switch {
					case i%4 == 1:
						rep = submitDirect(t, srv, spec, fmt.Sprintf("key-%d", i%12))
					case i%4 == 2:
						rep = submitDirect(t, srv, spec, "")
					default:
						rep = submitToShard(t, srv.shards[i%shards], spec, "")
					}
					verdicts = append(verdicts, fmt.Sprintf("%d %s %d %d %v", rep.status, rep.resp.Decision, rep.resp.ID, rep.resp.Release, rep.resp.Replayed))
					if i%5 == 4 {
						srv.Advance(int64(2 * i))
					}
				}
				return verdicts, srv.Drain()
			}
			plainVerdicts, plain := run("")
			dir := t.TempDir()
			walVerdicts, durable := run(dir)
			if !slices.Equal(plainVerdicts, walVerdicts) {
				t.Fatalf("verdicts differ:\nwithout WAL: %v\nwith WAL:    %v", plainVerdicts, walVerdicts)
			}
			if a, b := resultJSON(t, plain), resultJSON(t, durable); !bytes.Equal(a, b) {
				t.Fatalf("WAL changes the schedule:\nwithout WAL: %s\nwith WAL:    %s", a, b)
			}
			assertReplayIdentical(t, dir, plain)
		})
	}
}

// assertReplayIdentical re-simulates the WAL directory dir offline with
// ReplayDir and compares the Result byte-for-byte with the served one,
// modulo the Engine label.
func assertReplayIdentical(t *testing.T, dir string, served *sim.Result) {
	t.Helper()
	replayed, err := ReplayDir(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if a, b := resultJSON(t, served), resultJSON(t, replayed); !bytes.Equal(a, b) {
		t.Fatalf("offline replay diverges from serving session:\nserved:   %s\nreplayed: %s", a, b)
	}
}

// resultJSON encodes a Result without its Engine label, which names the
// engine that executed: a serving session and its offline replay may step
// under different disciplines with identical statistics.
func resultJSON(t *testing.T, r *sim.Result) []byte {
	t.Helper()
	c := *r
	c.Engine = ""
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// durableJob is one job record of a durable history and the shard whose
// directory holds it.
type durableJob struct {
	shard int
	rec   WALJob
}

// durableJobs reads the durable history under dir — each shard's checkpoint
// plus its WAL suffix, as recovery reads it — keyed by job ID. The shard is
// the one named in the directory's header (0 for the unsharded layout).
func durableJobs(t *testing.T, dir string) map[int]durableJob {
	t.Helper()
	dirs, err := filepath.Glob(filepath.Join(dir, "shard-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		dirs = []string{dir}
	}
	out := make(map[int]durableJob)
	for _, d := range dirs {
		h, err := readAnyHeader(d)
		if err != nil {
			t.Fatal(err)
		}
		stride := max(h.Shards, 1)
		rs, err := loadState(d, h, h.Shard+1-stride)
		if err != nil {
			t.Fatal(err)
		}
		for _, wj := range rs.jobs {
			if _, dup := out[wj.Resp.ID]; dup {
				t.Fatalf("job %d recorded twice", wj.Resp.ID)
			}
			out[wj.Resp.ID] = durableJob{shard: h.Shard, rec: wj}
		}
	}
	return out
}

func TestServeDrainIdempotent(t *testing.T) {
	srv, ts := newTestServer(t, Config{M: 1})
	postJob(t, ts, `{"w":3,"l":3,"deadline":9,"profit":2}`)
	r1 := srv.Drain()
	r2 := srv.Drain()
	if r1 != r2 {
		t.Fatal("Drain returned different results")
	}
}

func TestServeConfigErrors(t *testing.T) {
	if _, err := New(Config{M: 1, Sched: "nope"}); err == nil {
		t.Error("unknown scheduler accepted")
	}
	if _, err := New(Config{M: 0}); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := New(Config{M: 1, QueueDepth: -1}); err == nil {
		t.Error("negative queue depth accepted")
	}
}

// TestIdleShardStampsCurrentClock: a job sent to a shard that has gone idle
// is released at the clock the shard was advanced to, not at the tick its
// last job finished, and so cannot complete before it was sent.
func TestIdleShardStampsCurrentClock(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{M: 4, WALDir: dir, Fsync: FsyncOff})
	if code, first := postJob(t, ts, `{"w":4,"l":1,"deadline":10}`); code != http.StatusOK || first.Release != 0 {
		t.Fatalf("first job: status %d, %+v", code, first)
	}
	srv.Advance(50)
	code, second := postJob(t, ts, `{"w":40,"l":10,"deadline":30}`)
	if code != http.StatusOK || second.Release != 50 || second.Decision != DecisionAdmitted {
		t.Fatalf("job sent at tick 50 to an idle shard: status %d, %+v", code, second)
	}
	res := srv.Drain()
	found := false
	for _, st := range res.Jobs {
		if st.ID == second.ID {
			found = true
			if !st.Completed || st.CompletedAt < 60 {
				t.Fatalf("job sent at tick 50 with W=40, L=10 on M=4: %+v", st)
			}
		}
	}
	if !found {
		t.Fatalf("job %d missing from the drained Result", second.ID)
	}
	assertReplayIdentical(t, dir, res)
}
