# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test vet fmt check race bench bench-guard obs-guard wire-guard schema-compat suite suite-check examples fuzz trace-demo api-check api-update chaos

all: vet test

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

# Fails if any file is not gofmt-clean (lists the offenders).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The full local gate: formatting, vet, build, tests, perf guards, the
# public-API snapshot, the crash-safety chaos harness, and the suite tables.
# The telemetry package is vetted on its own so a vet regression there is
# named in the output.
check: fmt vet build test bench-guard obs-guard wire-guard api-check schema-compat chaos suite-check
	go vet ./internal/telemetry/

# Crash-safety harness: SIGKILL the serving daemon under concurrent load at
# seeded points, restart it over the same WAL directory, and verify no
# acknowledged job is lost, no rejected job resurrects, duplicate retries
# collapse, and the recovered state matches a crash-free replay bit for bit.
chaos:
	go test -race -run 'TestChaos' -count=1 ./internal/serve/

# Wire/WAL schema compatibility gate: golden v1 fixtures (pre-v2 request
# bodies, WAL frames, checkpoints) replayed through the current decoder must
# produce byte-identical durable state and verdicts, and a default-policy
# daemon fed scalar specs must write byte-identical WAL records.
schema-compat:
	go test -run 'TestSchemaCompat' -count=1 ./internal/serve/

# Fails when the package's exported surface drifts from testdata/api.txt.
# Record a deliberate API change with `make api-update`.
api-check:
	go test -run TestPublicAPISnapshot .

api-update:
	go test -run TestPublicAPISnapshot -update .

# Perf regression gate: the allocation-budget guards on the engine's nil-
# telemetry path and on its interval discipline (RunAuto), the sharded serving-tier throughput gate (4-shard engine-
# path per-op cost within 1.6x of single-shard, i.e. aggregate >= 2.5x — see
# TestShardedEnginePathGuard and BENCH_PR7.json for methodology), plus a
# short 100-iteration smoke over the engine, queue, and admission
# micro-benchmarks and the durable checkpoint (10^3..10^5 jobs of history)
# so a broken benchmark is caught before it hides a perf regression. (The
# BenchmarkEXP_* table regenerations are excluded: at 100 iterations they
# are a full suite run, not a smoke.)
bench-guard:
	go vet ./...
	go test -run 'TestTelemetryNilPathAllocations|TestIntervalPathAllocations' .
	SPAA_BENCH_GUARD=1 go test -run TestShardedEnginePathGuard -count=1 ./internal/serve/
	go test -run xxx -bench 'BenchmarkEngine|BenchmarkSpeedScaledRun|BenchmarkOptUpperBound' -benchtime=100x .
	go test -run xxx -bench . -benchtime=100x ./internal/sim/ ./internal/queue/ ./internal/core/
	go test -run xxx -bench '^BenchmarkCheckpoint$$' -benchtime=100x -benchmem ./internal/serve/

# Observability cost gate: the instrumented engine path (stage timers +
# /metrics histograms) must stay within 5% of the nil-registry path — the
# zero-cost-when-nil idiom, measured against the BENCH_PR7 engine baseline
# (see TestObsOverheadGuard and BENCH_PR8.json for methodology).
obs-guard:
	SPAA_OBS_GUARD=1 go test -run TestObsOverheadGuard -count=1 ./internal/serve/

# Wire fast-path gate: the scalar-spec parser and verdict encoder must stay
# at zero allocations per item, and a 64-spec batch over real HTTP must cost
# at most 1.5x the bare engine path per item (see TestWireGuard and
# BENCH_PR9.json for methodology).
wire-guard:
	SPAA_WIRE_GUARD=1 go test -run TestWireGuard -count=1 ./internal/serve/

# -race across every package; the runner's worker pool and the parallel
# experiment grids are the concurrency under test.
race:
	go test -race ./...
	go test -race -count=2 ./internal/runner/ ./internal/experiments/ ./internal/telemetry/

# The full benchmark harness: one BenchmarkEXP_* per experiment plus engine
# micro-benchmarks.
bench:
	go test -bench=. -benchmem ./...

# The reproduction suite tables (EXPERIMENTS.md records a run of this).
suite:
	go run ./cmd/spaa-bench

# The suite tables must be byte-identical to bench_tables.txt serially and at
# the default -parallel: the runner places results by cell coordinates, so a
# difference is a behaviour change or a determinism bug. A change meant to
# move a table regenerates the file with
# `go run ./cmd/spaa-bench -parallel 1 > bench_tables.txt`.
suite-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	go run ./cmd/spaa-bench -parallel 1 > "$$tmp/serial.txt" && cmp "$$tmp/serial.txt" bench_tables.txt && \
	go run ./cmd/spaa-bench > "$$tmp/parallel.txt" && cmp "$$tmp/parallel.txt" bench_tables.txt && \
	echo "suite-check: tables byte-identical at -parallel 1 and the default"

# A ready-made observability demo: the Figure-1 adversarial stream under
# scheduler S with full telemetry. Open trace-demo.json at ui.perfetto.dev;
# trace-demo.jsonl is the decision-event stream.
trace-demo:
	go run ./cmd/spaa-sim -adversarial 2 -sched s -probe 1 \
		-perfetto trace-demo.json -events trace-demo.jsonl -telemetry-summary

examples:
	go run ./examples/quickstart
	go run ./examples/adversarial
	go run ./examples/mapreduce
	go run ./examples/profitdecay
	go run ./examples/hpc
	go run ./examples/realtime

# Short fuzz passes over the serialization surfaces, including the
# differential targets of every reflection-free codec (the scanner
# primitives, the graph and job-record codecs, the request parser, batch
# splitter and verdict encoder, and the recovery codec, each against the
# encoding/json code it stands in for; interned against per-job replay
# decode; the WAL scanner against arbitrary bytes). Their inputs are whole
# records and files, so minimizing each new input is capped at 100 runs:
# left at its 60-second default it takes most of a 10-second pass.
fuzz:
	go test -fuzz=FuzzDAGUnmarshal -fuzztime=10s ./internal/dag/
	go test -fuzz=FuzzInstanceUnmarshal -fuzztime=10s ./internal/workload/
	go test -run XXX -fuzz='^FuzzScan$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/fastjson/
	go test -run XXX -fuzz='^FuzzDAGCodec$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/dag/
	go test -run XXX -fuzz='^FuzzJobCodec$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/workload/
	go test -run XXX -fuzz='^FuzzMarshalJob$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/workload/
	go test -run XXX -fuzz='^FuzzParseJobSpecFast$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/serve/
	go test -run XXX -fuzz='^FuzzSplitJSONArray$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/serve/
	go test -run XXX -fuzz='^FuzzAppendJobResponse$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/serve/
	go test -run XXX -fuzz='^FuzzDecodeWALJob$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/serve/
	go test -run XXX -fuzz='^FuzzDecodeCheckpoint$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/serve/
	go test -run XXX -fuzz='^FuzzJobDecoderInterned$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/serve/
	go test -run XXX -fuzz='^FuzzScanWAL$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/serve/
