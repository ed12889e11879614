package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"dagsched/internal/sim"
)

// The chaos harness runs the daemon in a child process (this test binary
// re-executed with SPAA_CHAOS_CHILD set), SIGKILLs it under concurrent keyed
// load at a seeded point, restarts it over the same WAL directory, and then
// holds recovery to the commitment contract:
//
//   - no acknowledged job is lost: every acked ID resolves after restart and
//     a retry of its key returns the original verdict verbatim;
//   - no rejected job resurrects: keys acked "rejected" stay rejected with
//     no ID;
//   - duplicate retries collapse: submitting the same key twice yields one
//     job and one verdict;
//   - commitment survives the crash: a job acknowledged as committed (the
//     load mixes per-job "commitment":"delta" specs in) is re-acknowledged
//     with the same commitment string after recovery — never downgraded;
//   - the recovered session is bit-identical: draining the restarted daemon
//     matches an offline replay of the durable directory;
//   - the history streams as it was written: a copy of the crash image,
//     recovered in this process and checkpointed, holds exactly
//     frameRecord(json.Marshal(cp)) with cp.Jobs the image's history.

const (
	chaosChildEnv  = "SPAA_CHAOS_CHILD"
	chaosDirEnv    = "SPAA_CHAOS_DIR"
	chaosShardsEnv = "SPAA_CHAOS_SHARDS"
	chaosChildM    = 4 // unsharded child capacity
	chaosShardedM  = 8 // sharded child capacity (shards divide it evenly)
)

// TestChaosChildProcess is the daemon half of the harness. It is a no-op
// under a normal test run; the parent re-executes the test binary with the
// environment set. SPAA_CHAOS_SHARDS > 1 runs the sharded daemon: same
// crash-and-recover contract, but every shard must recover its own WAL.
func TestChaosChildProcess(t *testing.T) {
	if os.Getenv(chaosChildEnv) == "" {
		t.Skip("not a chaos child")
	}
	shards, m := 1, chaosChildM
	if v := os.Getenv(chaosShardsEnv); v != "" {
		fmt.Sscanf(v, "%d", &shards)
		m = chaosShardedM
	}
	srv, err := New(Config{
		M:                  m,
		Shards:             shards,
		TickInterval:       2 * time.Millisecond,
		QueueDepth:         256,
		WALDir:             os.Getenv(chaosDirEnv),
		Fsync:              FsyncAlways,
		CheckpointInterval: 20 * time.Millisecond,
	})
	if err != nil {
		fmt.Printf("CHAOS_ERR %v\n", err)
		os.Exit(3)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Printf("CHAOS_ERR %v\n", err)
		os.Exit(3)
	}
	fmt.Printf("CHAOS_ADDR %s\n", ln.Addr())
	// Serve until the parent SIGKILLs us — that is the point.
	_ = http.Serve(ln, srv.Handler())
	os.Exit(0)
}

// chaosChild manages one daemon child process.
type chaosChild struct {
	cmd  *exec.Cmd
	addr string
}

func startChaosChild(t *testing.T, dir string, shards int) *chaosChild {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestChaosChildProcess$", "-test.count=1")
	cmd.Env = append(os.Environ(), chaosChildEnv+"=1", chaosDirEnv+"="+dir)
	if shards > 1 {
		cmd.Env = append(cmd.Env, fmt.Sprintf("%s=%d", chaosShardsEnv, shards))
	}
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		if addr, ok := strings.CutPrefix(line, "CHAOS_ADDR "); ok {
			go io.Copy(io.Discard, out) // keep draining so the child never blocks
			return &chaosChild{cmd: cmd, addr: addr}
		}
		if msg, ok := strings.CutPrefix(line, "CHAOS_ERR "); ok {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("chaos child failed to start: %s", msg)
		}
	}
	cmd.Process.Kill()
	cmd.Wait()
	t.Fatalf("chaos child exited without an address (scan err %v)", sc.Err())
	return nil
}

// kill SIGKILLs the child and reaps it. Safe off the test goroutine; a child
// that already exited is not an error.
func (c *chaosChild) kill() {
	_ = c.cmd.Process.Signal(syscall.SIGKILL)
	_ = c.cmd.Wait()
}

// waitReady polls /readyz until the restarted daemon accepts work.
func (c *chaosChild) waitReady(t *testing.T) {
	t.Helper()
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get("http://" + c.addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("chaos child never became ready")
}

// chaosSpec is the deterministic job body for a key, so a retry re-sends the
// byte-identical submission. The load deliberately mixes the v2 schema in:
// every third job requests binding δ-commitment per-job, and every fifth
// carries its profit as a structured step object instead of a scalar, so the
// crash lands on WAL records of every spec shape.
func chaosSpec(g, i int) string {
	w := 4 + (g*7+i)%23
	l := 1 + (g+i)%4
	if l > w {
		l = w
	}
	deadline, profit := l+15+(i%13), 1+i%6
	var sb strings.Builder
	if i%5 == 4 {
		// Structured profit objects carry the deadline themselves; a
		// top-level deadline alongside one is a rejected conflict.
		fmt.Fprintf(&sb, `{"w":%d,"l":%d,"profit":{"type":"step","value":%d,"deadline":%d}`, w, l, profit, deadline)
	} else {
		fmt.Fprintf(&sb, `{"w":%d,"l":%d,"deadline":%d,"profit":%d`, w, l, deadline, profit)
	}
	if chaosWantsDelta(g, i) {
		sb.WriteString(`,"commitment":"delta"`)
	}
	sb.WriteByte('}')
	return sb.String()
}

// chaosWantsDelta says whether chaosSpec(g, i) requests per-job δ-commitment.
func chaosWantsDelta(g, i int) bool { return (g+i)%3 == 0 }

// chaosKeyedItem turns a chaosSpec body into a batch item carrying the key
// inline, so batch retries are byte-identical re-sends too.
func chaosKeyedItem(key, spec string) string {
	return `{"key":"` + key + `",` + spec[1:]
}

// chaosPostBatch submits one keyed batch to /v1/jobs:batch and returns the
// verdict for every item that was acknowledged. Per-item 429s retry the
// whole batch: every item is keyed, so already-acked items collapse into
// replays with the same verdict and only the backpressured ones resubmit.
func chaosPostBatch(client *http.Client, addr string, keys, specs []string) (map[string]JobResponse, error) {
	var sb strings.Builder
	sb.WriteByte('[')
	for i := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(chaosKeyedItem(keys[i], specs[i]))
	}
	sb.WriteByte(']')
	body := sb.String()
	for {
		resp, err := client.Post("http://"+addr+"/v1/jobs:batch", "application/json", strings.NewReader(body))
		if err != nil {
			return nil, err
		}
		var br BatchResponse
		decErr := json.NewDecoder(resp.Body).Decode(&br)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("batch status %d", resp.StatusCode)
		}
		if decErr != nil {
			return nil, decErr
		}
		if len(br.Items) != len(keys) {
			return nil, fmt.Errorf("batch returned %d items for %d keys", len(br.Items), len(keys))
		}
		acked := map[string]JobResponse{}
		retry := false
		for i, it := range br.Items {
			switch it.Status {
			case http.StatusOK:
				acked[keys[i]] = *it.Response
			case http.StatusTooManyRequests:
				retry = true
			default:
				return acked, fmt.Errorf("item %d status %d: %s", i, it.Status, it.Error)
			}
		}
		if !retry {
			return acked, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// chaosPost submits one keyed spec, retrying 429 backpressure.
func chaosPost(client *http.Client, addr, key, spec string) (JobResponse, error) {
	for {
		req, err := http.NewRequest("POST", "http://"+addr+"/v1/jobs", strings.NewReader(spec))
		if err != nil {
			return JobResponse{}, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Idempotency-Key", key)
		resp, err := client.Do(req)
		if err != nil {
			return JobResponse{}, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			time.Sleep(2 * time.Millisecond)
			continue
		}
		var jr JobResponse
		decErr := json.NewDecoder(resp.Body).Decode(&jr)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return JobResponse{}, fmt.Errorf("status %d", resp.StatusCode)
		}
		if decErr != nil {
			return JobResponse{}, decErr
		}
		return jr, nil
	}
}

func TestChaosKillRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness spawns subprocesses")
	}
	for _, seed := range []int64{1, 7} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runChaos(t, seed, 1)
		})
	}
}

// TestChaosKillRecoverSharded is the multi-shard half of the chaos satellite:
// the SIGKILL lands while four shards hold independent WALs at different
// positions, and recovery must replay each shard on its own and still honor
// every acked verdict daemon-wide.
func TestChaosKillRecoverSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness spawns subprocesses")
	}
	for _, seed := range []int64{3, 11} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runChaos(t, seed, 4)
		})
	}
}

func runChaos(t *testing.T, seed int64, shards int) {
	dir := t.TempDir()
	child := startChaosChild(t, dir, shards)

	rng := rand.New(rand.NewSource(seed))
	killAfter := int64(8 + rng.Intn(40)) // acks before the SIGKILL lands

	const clients, perClient = 4, 40
	var (
		mu        sync.Mutex
		acked     = map[string]JobResponse{} // key → verdict the client saw
		unseen    []string                   // keys whose submission died with the child
		deltaKeys = map[string]bool{}        // keys whose spec requested δ-commitment
	)
	var ackCount atomic.Int64
	var killed atomic.Bool
	killGate := make(chan struct{})

	// The killer: one goroutine waits for the seeded ack count, then SIGKILLs.
	var killWG sync.WaitGroup
	killWG.Add(1)
	go func() {
		defer killWG.Done()
		<-killGate
		killed.Store(true)
		child.kill()
	}()

	var wg sync.WaitGroup
	var gateOnce sync.Once
	recordAck := func(key string, jr JobResponse) {
		mu.Lock()
		acked[key] = jr
		mu.Unlock()
		if ackCount.Add(1) == killAfter {
			gateOnce.Do(func() { close(killGate) })
		}
	}
	recordUnseen := func(keys ...string) {
		mu.Lock()
		unseen = append(unseen, keys...)
		mu.Unlock()
	}
	// Odd-numbered clients drive the batched endpoint (chaosBatchN keyed
	// items per POST), so the SIGKILL also lands inside group-commit windows
	// and recovery proves a durable prefix of a half-written batch honors
	// the same commitment contract as single submissions.
	const chaosBatchN = 8
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			if g%2 == 1 {
				for i := 0; i < perClient; i += chaosBatchN {
					keys := make([]string, 0, chaosBatchN)
					specs := make([]string, 0, chaosBatchN)
					for j := i; j < i+chaosBatchN && j < perClient; j++ {
						key := fmt.Sprintf("s%d-c%d-%d", seed, g, j)
						keys = append(keys, key)
						specs = append(specs, chaosSpec(g, j))
						if chaosWantsDelta(g, j) {
							mu.Lock()
							deltaKeys[key] = true
							mu.Unlock()
						}
					}
					got, err := chaosPostBatch(client, child.addr, keys, specs)
					for key, jr := range got {
						recordAck(key, jr)
					}
					if err != nil {
						// The child died under us (or items never resolved —
						// which the server may still have acked and logged).
						for _, key := range keys {
							if _, ok := got[key]; !ok {
								recordUnseen(key)
							}
						}
						if killed.Load() {
							return
						}
					}
				}
				return
			}
			for i := 0; i < perClient; i++ {
				key := fmt.Sprintf("s%d-c%d-%d", seed, g, i)
				if chaosWantsDelta(g, i) {
					mu.Lock()
					deltaKeys[key] = true
					mu.Unlock()
				}
				jr, err := chaosPost(client, child.addr, key, chaosSpec(g, i))
				if err != nil {
					// The child died under us (or the response never arrived —
					// which the server may still have acked and logged).
					recordUnseen(key)
					if killed.Load() {
						return
					}
					continue
				}
				recordAck(key, jr)
			}
		}(g)
	}
	wg.Wait()
	// Under light scheduling the load may finish before the threshold; kill
	// whatever state exists.
	gateOnce.Do(func() { close(killGate) })
	killWG.Wait()

	if len(acked) == 0 {
		t.Fatal("chaos run acked nothing before the kill; nothing to verify")
	}
	checkCrashImageCheckpoint(t, dir, shards)

	// Restart over the same directory.
	child2 := startChaosChild(t, dir, shards)
	defer child2.kill()
	child2.waitReady(t)
	client := &http.Client{Timeout: 10 * time.Second}

	// The recovered daemon's scrape must prove the recovery happened and
	// that the monotone counters never regress below what the pre-crash WAL
	// durably recorded: every job acked before the kill (fsync=always, so
	// acked ⇒ logged) is re-counted into serve_accepted_total by replay.
	var ackedCommitted int64
	for _, jr := range acked {
		if jr.ID > 0 {
			ackedCommitted++
		}
	}
	m := scrapeMetrics(t, "http://"+child2.addr+"/metrics")
	// Replay only covers the post-checkpoint WAL tail (the child checkpoints
	// aggressively), so the replayed counter is asserted present per shard,
	// not bounded against the ack count.
	for i := 0; i < shards; i++ {
		if _, ok := m[fmt.Sprintf(`serve_recovery_replayed_total{shard="%d"}`, i)]; !ok {
			t.Errorf("serve_recovery_replayed_total{shard=%d} missing from the post-recovery scrape", i)
		}
	}
	if got := metricSum(m, "serve_recovery_duration_us_count{"); got < 1 {
		t.Errorf("serve_recovery_duration_us_count sums to %v after restart, want ≥ 1", got)
	}
	if got := metricSum(m, "serve_recoveries_total{"); got < 1 {
		t.Errorf("serve_recoveries_total sums to %v after restart, want ≥ 1", got)
	}
	if got := metricSum(m, "serve_accepted_total{"); got < float64(ackedCommitted) {
		t.Errorf("serve_accepted_total sums to %v after recovery, below the %d committed acks the WAL holds — monotone counter regressed",
			got, ackedCommitted)
	}

	// No acknowledged job is lost, no verdict changes: a retry of every acked
	// key returns the original response, marked replayed.
	committed := map[int]bool{}
	for key, want := range acked {
		got, err := chaosPost(client, child2.addr, key, "{}") // body is irrelevant on a replay
		if err != nil {
			t.Fatalf("retry %s after restart: %v", key, err)
		}
		if !got.Replayed {
			t.Errorf("retry %s: not marked replayed (got %+v)", key, got)
		}
		if got.ID != want.ID || got.Decision != want.Decision {
			t.Errorf("retry %s: got ID=%d %q, acked ID=%d %q — commitment broken",
				key, got.ID, got.Decision, want.ID, want.Decision)
		}
		if got.Commitment != want.Commitment {
			t.Errorf("retry %s: acked commitment %q, replay says %q — commitment changed across the crash",
				key, want.Commitment, got.Commitment)
		}
		if deltaKeys[key] && want.Decision != DecisionRejected && want.Commitment != CommitmentDelta {
			t.Errorf("key %s requested delta and was not rejected, but was acked with commitment %q",
				key, want.Commitment)
		}
		if want.Decision == DecisionRejected && got.ID != 0 {
			t.Errorf("retry %s: rejected job resurrected with ID %d", key, got.ID)
		}
		if want.ID > 0 {
			committed[want.ID] = true
			st, err := client.Get(fmt.Sprintf("http://%s/v1/jobs/%d", child2.addr, want.ID))
			if err != nil {
				t.Fatalf("status %d: %v", want.ID, err)
			}
			io.Copy(io.Discard, st.Body)
			st.Body.Close()
			if st.StatusCode != http.StatusOK {
				t.Errorf("job %d acked before the crash but unknown after restart", want.ID)
			}
		}
	}

	// Keys that died in flight: submit twice; the pair must collapse onto one
	// verdict whether or not the pre-crash daemon had durably acked them.
	for _, key := range unseen {
		first, err := chaosPost(client, child2.addr, key, chaosSpec(0, 0))
		if err != nil {
			t.Fatalf("in-flight key %s after restart: %v", key, err)
		}
		second, err := chaosPost(client, child2.addr, key, chaosSpec(0, 0))
		if err != nil {
			t.Fatalf("in-flight key %s retry: %v", key, err)
		}
		if !second.Replayed || second.ID != first.ID || second.Decision != first.Decision ||
			second.Commitment != first.Commitment {
			t.Errorf("in-flight key %s: duplicate did not collapse (%+v then %+v)", key, first, second)
		}
		if first.ID > 0 {
			committed[first.ID] = true
		}
	}

	// Drain the recovered daemon and hold its Result against the offline
	// replay of the durable directory: bit-identical state, end to end.
	resp, err := client.Post("http://"+child2.addr+"/v1/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var res sim.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if len(res.Jobs) != len(committed) {
		t.Errorf("drained result holds %d jobs, clients committed %d", len(res.Jobs), len(committed))
	}
	for _, js := range res.Jobs {
		if !committed[js.ID] {
			t.Errorf("job %d in the drained result was never acked to a client", js.ID)
		}
	}

	replayed, err := ReplayDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, b := res, *replayed
	a.Engine, b.Engine = "", ""
	aj, _ := json.Marshal(&a)
	bj, _ := json.Marshal(&b)
	if string(aj) != string(bj) {
		t.Errorf("recovered session diverges from crash-free replay:\nserved:   %s\nreplayed: %s", aj, bj)
	}
}

// checkCrashImageCheckpoint recovers a copy of the crash image in dir in
// this process, forces a checkpoint, and holds every shard's checkpoint to
// frameRecord(json.Marshal(cp)) with cp.Jobs the history an encoding/json
// decode of the image holds: the copy streamed from a SIGKILLed daemon's
// files is exactly what the one encoder writes.
func checkCrashImageCheckpoint(t *testing.T, dir string, shards int) {
	t.Helper()
	img := snapshotDir(t, dir)
	m, subdirs := chaosChildM, []string{img}
	if shards > 1 {
		m, subdirs = chaosShardedM, nil
		for i := 0; i < shards; i++ {
			subdirs = append(subdirs, filepath.Join(img, shardDirName(i)))
		}
	}
	hists := make([][]WALJob, shards)
	for i, sub := range subdirs {
		hists[i] = refHistory(t, sub, i+1-shards)
	}
	srv, err := New(Config{M: m, Shards: shards, TickInterval: -1, WALDir: img, Fsync: FsyncOff, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i, sub := range subdirs {
		if err := checkCheckpointOf(sub, hists[i]); err != nil {
			t.Errorf("shard %d: %v", i, err)
		}
	}
}

// refHistory decodes the job history of a durable directory with
// encoding/json alone: the checkpoint's jobs, then the WAL's job records
// with IDs above the checkpoint's (baseID without one).
func refHistory(t *testing.T, dir string, baseID int) []WALJob {
	t.Helper()
	var jobs []WALJob
	nextID := baseID
	data, err := os.ReadFile(filepath.Join(dir, checkpointFileName))
	switch {
	case err == nil:
		payload, err := parseFrame(bytes.TrimSuffix(data, []byte("\n")))
		if err != nil {
			t.Fatal(err)
		}
		var cp Checkpoint
		if err := json.Unmarshal(payload, &cp); err != nil {
			t.Fatal(err)
		}
		jobs, nextID = cp.Jobs, cp.NextID
	case !os.IsNotExist(err):
		t.Fatal(err)
	}
	payloads, _, err := scanWAL(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		var wj WALJob
		if err := json.Unmarshal(p, &wj); err != nil {
			t.Fatal(err)
		}
		if wj.Type == "job" && wj.Resp.ID > nextID {
			jobs = append(jobs, wj)
			nextID = wj.Resp.ID
		}
	}
	return jobs
}
