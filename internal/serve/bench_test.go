package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// benchAdvanceEvery/benchAdvanceTicks bound the live set in the HTTP-layer
// submission benchmarks: advance the session 8 ticks per 64 submissions,
// exactly the cadence BenchmarkSubmissionsEngine uses. The cadence matters
// twice over: it keeps the steady-state live set constant (~8 arrivals/tick
// at deadline 40) instead of growing with b.N, and it keeps the parked set
// the admission test rescans comparable on both sides of the wire-guard
// ratio — batching thousands of arrivals at one simulated instant would
// balloon the parked set and charge the scheduler's work to the wire.
const (
	benchAdvanceEvery = 64
	benchAdvanceTicks = 8
)

// BenchmarkSubmissionsHTTP measures end-to-end submissions/sec through the
// full stack: HTTP round trip, placer, shard lock, admission test, session
// arrival.
func BenchmarkSubmissionsHTTP(b *testing.B) {
	srv, err := New(Config{M: 8, QueueDepth: 1024, TickInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	var submitted atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := submitted.Add(1)
			spec := fmt.Sprintf(`{"w":%d,"l":2,"deadline":40,"profit":3}`, 4+i%13)
			resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
				b.Errorf("status %d", resp.StatusCode)
				return
			}
			// Keep the live set independent of b.N (Advance is monotone, so
			// racing goroutines just no-op on an already-passed clock).
			if i%benchAdvanceEvery == 0 {
				srv.Advance(i / benchAdvanceEvery * benchAdvanceTicks)
			}
		}
	})
}

// benchBatchBody builds a JSON array of n scalar specs, the payload the
// batch benchmarks replay. The spec matches BenchmarkSubmissionsEngine's
// exactly so the engine-side work (admission test, session arrival,
// schedule churn) is identical and the batch-vs-engine ratio isolates the
// wire: parse, placer, shard lock, WAL framing, response encode.
func benchBatchBody(n int) string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`{"w":16,"l":2,"deadline":40,"profit":3}`)
	}
	sb.WriteByte(']')
	return sb.String()
}

// benchHTTPConn is a minimal HTTP/1.1 load generator: one persistent TCP
// connection, pre-built request bytes, zero-allocation response reads. The
// batch benchmarks run client and server on the same host (often a single
// vCPU), so net/http's client — per-request goroutines, header maps, body
// plumbing — would bill a third of the machine to the load generator and
// appear in the wire-guard ratio as server cost. The requests on the wire
// are ordinary HTTP; only the generator is lean.
type benchHTTPConn struct {
	conn net.Conn
	br   *bufio.Reader
	buf  []byte // response-body scratch, valid until the next roundTrip
}

func dialBenchConn(tb testing.TB, tsURL string) *benchHTTPConn {
	tb.Helper()
	c, err := net.Dial("tcp", strings.TrimPrefix(tsURL, "http://"))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return &benchHTTPConn{conn: c, br: bufio.NewReaderSize(c, 64<<10)}
}

// benchRequest pre-serializes one POST so the benchmark loop writes fixed
// bytes instead of re-rendering headers per iteration.
func benchRequest(path, body string) []byte {
	return []byte("POST " + path + " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: " +
		strconv.Itoa(len(body)) + "\r\n\r\n" + body)
}

// roundTrip writes one pre-built request and reads one response, handling
// both identity (Content-Length) and chunked framing. The returned body
// aliases the connection scratch buffer.
func (bc *benchHTTPConn) roundTrip(req []byte) (status int, body []byte, err error) {
	if _, err := bc.conn.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := bc.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 {
		return 0, nil, fmt.Errorf("short status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	clen, chunked := -1, false
	for {
		h, err := bc.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		h = bytes.TrimRight(h, "\r\n")
		if len(h) == 0 {
			break
		}
		if v, ok := cutHeader(h, "content-length:"); ok {
			if clen, err = strconv.Atoi(v); err != nil {
				return 0, nil, fmt.Errorf("bad content-length %q", v)
			}
		} else if v, ok := cutHeader(h, "transfer-encoding:"); ok && v == "chunked" {
			chunked = true
		}
	}
	bc.buf = bc.buf[:0]
	switch {
	case chunked:
		for {
			line, err := bc.br.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			n, err := strconv.ParseInt(string(bytes.TrimRight(line, "\r\n")), 16, 64)
			if err != nil {
				return 0, nil, fmt.Errorf("bad chunk size %q", line)
			}
			if n == 0 {
				if _, err := bc.br.Discard(2); err != nil { // trailing CRLF
					return 0, nil, err
				}
				break
			}
			off := len(bc.buf)
			bc.buf = append(bc.buf, make([]byte, n)...)
			if _, err := io.ReadFull(bc.br, bc.buf[off:]); err != nil {
				return 0, nil, err
			}
			if _, err := bc.br.Discard(2); err != nil { // chunk CRLF
				return 0, nil, err
			}
		}
	case clen > 0:
		bc.buf = append(bc.buf, make([]byte, clen)...)
		if _, err := io.ReadFull(bc.br, bc.buf); err != nil {
			return 0, nil, err
		}
	}
	return status, bc.buf, nil
}

// cutHeader matches a header line against a lowercase "name:" prefix
// case-insensitively and returns the trimmed value.
func cutHeader(h []byte, prefix string) (string, bool) {
	if len(h) < len(prefix) {
		return "", false
	}
	for i := 0; i < len(prefix); i++ {
		c := h[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != prefix[i] {
			return "", false
		}
	}
	return string(bytes.TrimSpace(h[len(prefix):])), true
}

// postBenchBatch posts one pre-built batch request and checks every item
// was acknowledged, without decoding the body (count the status fields).
func postBenchBatch(b *testing.B, bc *benchHTTPConn, req []byte, n int) {
	b.Helper()
	status, raw, err := bc.roundTrip(req)
	if err != nil {
		b.Fatal(err)
	}
	if status != http.StatusOK {
		b.Fatalf("batch: code=%d body=%s", status, raw[:min(len(raw), 200)])
	}
	if got := bytes.Count(raw, []byte(`"status":200`)); got != n {
		b.Fatalf("batch acknowledged %d/%d items: %s", got, n, raw[:min(len(raw), 200)])
	}
}

// BenchmarkSubmissionsBatchHTTP measures end-to-end submissions/sec through
// POST /v1/jobs:batch: one HTTP round trip, one parse pass, and one locked
// commit per shard group carry `size` specs. ns/op is per batch; the
// items/s metric is the end-to-end submission rate.
func BenchmarkSubmissionsBatchHTTP(b *testing.B) {
	for _, size := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			runArm(b, Config{M: 8, QueueDepth: 1024, TickInterval: -1}, batchArm(size))
		})
	}
}

// BenchmarkSubmissionsBatchWAL is the durable batch path: group commit means
// one fsync window per shard group instead of one per record. fsync=interval
// is the deployment shape the ≥100k submissions/sec target is specified
// against; fsync=always shows what group commit alone buys.
func BenchmarkSubmissionsBatchWAL(b *testing.B) {
	for _, policy := range []FsyncPolicy{FsyncInterval, FsyncAlways} {
		for _, size := range []int{64, 256} {
			b.Run(fmt.Sprintf("%s/size=%d", policy, size), func(b *testing.B) {
				runArm(b, Config{
					M: 8, QueueDepth: 1024, TickInterval: -1,
					WALDir: b.TempDir(), Fsync: policy,
					CheckpointInterval: -1,
				}, batchArm(size))
			})
		}
	}
}

// batchArm posts b.N batches of size copies of the engine arm's spec to
// srv's POST /v1/jobs:batch over one persistent connection, advancing every
// shard at the engine arm's cadence (benchAdvanceEvery/benchAdvanceTicks),
// and reports the end-to-end items/s: the batch side of the wire guard and
// of the batch benchmarks.
func batchArm(size int) func(b *testing.B, srv *Server) {
	return func(b *testing.B, srv *Server) {
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		req := benchRequest("/v1/jobs:batch", benchBatchBody(size))
		bc := dialBenchConn(b, ts.URL)
		items := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			postBenchBatch(b, bc, req, size)
			items += size
			if items%benchAdvanceEvery < size {
				srv.Advance(int64(items / benchAdvanceEvery * benchAdvanceTicks))
			}
		}
		b.ReportMetric(float64(items)/b.Elapsed().Seconds(), "items/s")
	}
}

// runArm runs arm over a fresh daemon built from cfg and drains it after.
func runArm(b *testing.B, cfg Config, arm func(b *testing.B, srv *Server)) {
	srv, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Drain()
	arm(b, srv)
}

// armCost is runArm as one testing.Benchmark, in ns/op: the one measurement
// the perf guards (TestWireGuard, TestObsOverheadGuard,
// TestShardedEnginePathGuard) compare.
func armCost(cfg Config, arm func(b *testing.B, srv *Server)) float64 {
	return float64(testing.Benchmark(func(b *testing.B) { runArm(b, cfg, arm) }).NsPerOp())
}

// engineArm drives b.N submissions round-robin across srv's shards from the
// benchmark goroutine through the locked entry the HTTP path takes
// (submitTo), reporting the per-submission engine-path cost: the shard lock,
// spec build, admission query, session arrival, and the WAL when srv has
// one. Every shard advances
// benchAdvanceTicks per benchAdvanceEvery submissions, so the live set stays
// at a steady size instead of growing with b.N. The round-robin mirrors what
// the placer converges to under a uniform stream: equal load per shard. It
// is the engine arm of the serving benchmarks and of the perf guards.
func engineArm(b *testing.B, srv *Server) {
	b.Helper()
	spec := JobSpec{W: 16, L: 2, Deadline: 40, Profit: ScalarProfit(3)}
	clock := int64(0)
	n := len(srv.shards)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := submitTo(srv.shards[i%n], spec, ""); rep.status != http.StatusOK {
			b.Fatalf("status %d: %s", rep.status, rep.err)
		}
		if i%benchAdvanceEvery == benchAdvanceEvery-1 {
			clock += benchAdvanceTicks
			srv.Advance(clock)
		}
	}
}

// BenchmarkSubmissionsEngine measures the engine-side cost alone: spec
// build, admission query, session arrival — no HTTP.
func BenchmarkSubmissionsEngine(b *testing.B) {
	runArm(b, Config{M: 8, QueueDepth: 1, TickInterval: -1}, engineArm)
}

// BenchmarkSubmissionsEngineSharded measures the per-submission engine cost
// under 1/2/4/8 shards of the same 8-processor daemon. Shards share nothing,
// so N independent drivers sustain N× the single-driver rate as long as the
// per-submission cost on a capacity slice stays near the single-shard cost —
// this benchmark exposes that per-op cost; TestShardedEnginePathGuard pins
// the ratio.
func BenchmarkSubmissionsEngineSharded(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			runArm(b, Config{M: 8, Shards: shards, QueueDepth: 1, TickInterval: -1}, engineArm)
		})
	}
}

// BenchmarkSubmissionsWAL measures the engine-side submission cost with the
// write-ahead log enabled, one sub-benchmark per fsync policy. Compare
// against BenchmarkSubmissionsEngine for the durability overhead.
func BenchmarkSubmissionsWAL(b *testing.B) {
	for _, policy := range []FsyncPolicy{FsyncOff, FsyncInterval, FsyncAlways} {
		b.Run(string(policy), func(b *testing.B) {
			runArm(b, Config{
				M: 8, QueueDepth: 1, TickInterval: -1,
				WALDir: b.TempDir(), Fsync: policy,
				CheckpointInterval: -1, // isolate append cost from checkpoint cost
			}, engineArm)
		})
	}
}

// BenchmarkSubmissionsWALSharded measures wall-clock durable throughput with
// one driver goroutine per shard pushing through the shard locks under
// fsync=always: the per-shard WALs are independent files, so their syncs can
// overlap. How much they actually overlap is hardware-bound (independent
// flush streams; see BENCH_PR7.json for measured overlap on a virtio disk).
func BenchmarkSubmissionsWALSharded(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			srv, err := New(Config{
				M: 8, Shards: shards, QueueDepth: 1024, TickInterval: -1,
				WALDir: b.TempDir(), Fsync: FsyncAlways,
				CheckpointInterval: -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Drain()
			spec := JobSpec{W: 16, L: 2, Deadline: 40, Profit: ScalarProfit(3)}
			var wg sync.WaitGroup
			b.ResetTimer()
			for s, sh := range srv.shards {
				n := b.N / shards
				if s < b.N%shards {
					n++
				}
				wg.Add(1)
				go func(sh *shard, n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if rep := submitTo(sh, spec, ""); rep.status != http.StatusOK {
							b.Errorf("status %d: %s", rep.status, rep.err)
							return
						}
					}
				}(sh, n)
			}
			wg.Wait()
		})
	}
}

// TestShardedEnginePathGuard is the PR 7 throughput gate, run by
// `make bench-guard` with SPAA_BENCH_GUARD=1 (skipped otherwise: it runs
// real benchmarks and is too noisy for the ordinary test suite).
//
// Shards share nothing on the engine path, so aggregate capacity is
// N / (per-submission cost on a 1/N capacity slice): with 4 drivers the
// daemon sustains 4×r₄ submissions/sec where r₄ is one sharded driver's
// rate. The guard pins the sharded per-submission cost at ≤ 1.6× the
// single-shard cost, which is exactly aggregate(4 shards) ≥ 2.5× the
// single-shard engine-path throughput — measured as per-op cost rather than
// 4-goroutine wall clock so the gate holds on single-vCPU CI hosts, where
// wall-clock overlap measures the host's core count, not the refactor.
func TestShardedEnginePathGuard(t *testing.T) {
	if os.Getenv("SPAA_BENCH_GUARD") == "" {
		t.Skip("set SPAA_BENCH_GUARD=1 to run the sharded throughput gate")
	}
	measure := func(shards int) float64 {
		return armCost(Config{M: 8, Shards: shards, QueueDepth: 1, TickInterval: -1}, engineArm)
	}
	cost1 := measure(1)
	cost4 := measure(4)
	ratio := cost4 / cost1
	t.Logf("engine path: %.0f ns/op at 1 shard, %.0f ns/op at 4 shards (cost ratio %.2f, aggregate scaling %.2fx)",
		cost1, cost4, ratio, 4/ratio)
	if ratio > 1.6 {
		t.Errorf("sharded per-submission cost is %.2fx the single-shard cost (budget 1.6x): "+
			"4-shard aggregate throughput %.2fx falls below the 2.5x gate", ratio, 4/ratio)
	}
}

// BenchmarkCheckpoint measures one checkpoint of a durable shard holding 10³,
// 10⁴ and 10⁵ accepted jobs: the head and tail are encoded, the history is
// streamed from the previous checkpoint.json and the WAL through fixed-size
// buffers, and the file is fsynced and renamed. Bytes allocated per
// checkpoint are the head and tail alone, whatever the history's length;
// streamed-B is the history's bytes each checkpoint copies.
func BenchmarkCheckpoint(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		// Set up once per size: a sub-benchmark's function runs once per
		// round of b.N, and the history takes longer to build than to write.
		srv, err := New(Config{
			M: 8, QueueDepth: 1, TickInterval: -1,
			WALDir: b.TempDir(), Fsync: FsyncOff, CheckpointInterval: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		sh := srv.shards[0]
		spec := JobSpec{W: 16, L: 2, Deadline: 40, Profit: ScalarProfit(3)}
		clock := int64(0)
		for i := 0; sh.histLen() < n; i++ {
			if rep := submitTo(sh, spec, ""); rep.status != http.StatusOK {
				b.Fatalf("status %d: %s", rep.status, rep.err)
			}
			if i%64 == 63 {
				clock += 8
				srv.Advance(clock)
			}
		}
		b.Run(fmt.Sprintf("jobs=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sh.forceCheckpoint(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sh.ckpt.end-sh.ckpt.start), "streamed-B")
		})
		srv.Drain()
	}
}
