#!/bin/sh
# CI gate: vet, build, and the full test suite under the race detector.
# -short trims the Monte-Carlo trial budgets so the race run stays within
# a small-machine time budget; the plain `go test ./...` tier-1 gate runs
# the full budgets.
set -eux

cd "$(dirname "$0")"

gofmt_dirty=$(gofmt -l .)
test -z "$gofmt_dirty"

go vet ./...
go build ./...
go test -race -short ./...

# Allocation budgets without the race detector: every *AllocationBudget
# test of any package, one package at a time (-p 1: a budget read beside
# another package's tests measures the contention too); each test's doc
# comment states its reading and its budget. The race run above skips the
# two gateway budgets, whose HTTP exchanges the detector inflates. Beside
# them: the free lists' budget rules, the worker's working set across GC,
# the verify-vote answer buffers, and the node hop's connection rules.
go test -p 1 -run 'AllocationBudget$' -count=1 -v ./...
go test -run 'TestFreeList|TestBufPoolClassRoundTrip|TestMulAddIntoSteadyStateZeroAllocs' -count=1 -v ./internal/mat/
go test -run 'TestWarmWorkerSurvivesGC|TestQueuedVerifyTaskHoldsNoProduct|TestAnswerBuffersRecycled' -count=1 -v ./internal/serve/
go test -run 'TestAnswerBuffersRecycled|TestCallerCancelIsNotANodeFault|TestForwardEndsWithCallerContext|TestStaleKeepAliveRedials|TestHopKeepsOnlyReusableConnections|TestHopReadsRealReplies' -count=1 -v ./internal/cluster/

# Fuzz smoke: every native fuzz target, found per package by `go test
# -list`, five seconds each on top of its committed corpus (the plain test
# runs above already replay it). Each target's doc comment states its
# property. Minimization is bounded so the five seconds go to exploring.
fuzz=$(go test -list '^Fuzz' ./... | awk '/^Fuzz/ {f[n++] = $1} /^ok/ {for (i = 0; i < n; i++) print $2 "," f[i]; n = 0}')
test -n "$fuzz"
for t in $fuzz; do
	go test -run '^$' -fuzz "^${t#*,}\$" -fuzztime 5s -fuzzminimizetime 1x "${t%,*}"
done

# Chaos soak gate: the seeded short grid (24 fault-injected runs through
# the §4 recovery ladder, deterministic outcome table) under the race
# detector, time-boxed so a hung run fails fast instead of stalling CI.
go test -race -timeout 5m -run 'TestSoakShortDeterministic' ./internal/recovery/soak/

# Equivalence oracle: serving and the soak harness run on the functional
# runtime (no cache/DRAM timing, hierarchy dormant until a fault is
# injected). Every cell of the soak grid, under all three DGEMM verify
# modes, must end with the same recovery.Report and the same answer bits
# on the functional runtime as on the paper's timed platform, and the same
# again, machine.Result included, on ONE functional node reset between all
# the cells in shuffled order as on a node built for each (serving recycles
# its nodes).
go test -race -timeout 10m -run 'TestFunctionalRuntime' ./internal/recovery/soak/

# The benchmark is a module of its own (cmd/abftbench/go.mod), invisible to
# ./... above. Its bench_test.go also pins that the timed ladder level
# ends every f64 request kind exactly as serve.Service.Do does — a second,
# independent check of the same equivalence.
(cd cmd/abftbench && go vet . && go test .)

# The reproduction as a gate: every paper table and figure at full scale
# (≈20 s) must come out byte for byte as committed in paperfigs_output.txt.
# Its test-scale twin is TestSmallOutputGolden in internal/experiments, which
# the test runs above include.
go run ./cmd/paperfigs | cmp - paperfigs_output.txt

# Bench smoke: compile and run every benchmark once so the GFLOP/s suite
# (kernel layer, tables/figures) can't silently rot.
go test -bench=. -benchtime=1x -run='^$' ./...

# Fused-kernel bench gate: a short wall-clock comparison of two-pass
# (FullVerify) vs fused (FusedVerify) DGEMM under fault injection. The
# test fails if the fused faulted GFLOP/s regresses below the two-pass
# faulted GFLOP/s — the perf contract behind the fused verify mode.
# EXPERIMENTS.md quotes the same test at n=1024. n=256 is
# the smallest size where the contract structurally holds: below it the
# whole product is cache-resident and the two-pass sweep's memory-traffic
# penalty (the cost fused detection avoids) vanishes.
FUSED_BENCH=1 FUSED_BENCH_N=256 go test -timeout 10m \
	-run 'TestFusedVsTwoPassGate' -v ./internal/abft/

# Mixed-precision f32 ABFT gates: the variance-adaptive threshold must
# detect every injected fault above its bound (no silent wrong answers)
# and never fire on clean runs across adversarial magnitude/shape
# distributions (no false-positive restarts).
go test -race -timeout 5m \
	-run 'TestGEMM32CleanSweepNoFalsePositives|TestGEMM32FaultAboveBoundAlwaysDetected|TestGEMM32BitFlipNeverSilent' \
	./internal/abft/

# Wiring smoke: the one thing left at the process boundary. Every fault gate
# (node death mid-sweep, mid-job and mid-solve, the lying node, the tenant
# flood) is a Go test above that strikes on observed state; what no Go test
# reaches is the three main packages: flags parsed into the right Config
# fields, real sockets, expvar, and the SIGINT drain. So: three race-built
# workers behind a race-built gateway whose sharding, checkpoint and vote
# flags are set away from their defaults, five short abftload runs that
# each exit nonzero on a wrong answer (a fault-injected f64/f32 sweep, a
# vote sweep, a verify-vote sweep, whose verifiers decode their tasks and
# check them on real sockets, a sharded job checked against the client's own
# product, a CG long job), nothing killed, and every daemon required to drain on SIGINT
# with exit 0. The gateway gets no -self-url: workers must be handed the
# address its listener bound, and the CG job's checkpoints arriving there
# is the one counter read here, because only the binary has that default.
tmp=$(mktemp -d)
workers=
gate=
cleanup() {
	# A failed step must not leave daemons behind (SIGTERM drains them too).
	for p in $gate $workers; do kill "$p" 2>/dev/null || true; done
	wait
	rm -rf "$tmp"
}
trap cleanup EXIT
go build -race -o "$tmp/abftd" ./cmd/abftd
go build -race -o "$tmp/abftgate" ./cmd/abftgate
go build -race -o "$tmp/abftload" ./cmd/abftload
for port in 18431 18432 18433; do
	"$tmp/abftd" -addr "127.0.0.1:$port" &
	workers="$workers $!"
done
"$tmp/abftgate" -addr 127.0.0.1:18430 \
	-nodes "http://127.0.0.1:18431,http://127.0.0.1:18432,http://127.0.0.1:18433" \
	-shard-threshold 64 -shard-block 256 -checkpoint-every 2 \
	-vote-replicas 2 -suspect-trip 2 \
	-probe-interval 150ms -breaker-cooldown 500ms -seed 11 &
gate=$!
gw=http://127.0.0.1:18430
"$tmp/abftload" -addr "$gw" -wait 10s \
	-rates 40 -requests 20 -kernels gemm,cholesky -strategies "w_ck,p_ck+p_sd" \
	-verify-modes notified,fused -dtypes f64,f32 -n 48 \
	-fault-fraction 0.25 -fault-kind chip-failure -seed 7 \
	-retry-429 2 -min-complete 0.95
"$tmp/abftload" -addr "$gw" -kernels gemm -integrity vote \
	-rates 40 -requests 32 -n 48 -seed 19 -retry-429 2
"$tmp/abftload" -addr "$gw" -kernels gemm -integrity verify-vote \
	-rates 40 -requests 32 -n 48 -seed 23 -retry-429 2
"$tmp/abftload" -addr "$gw" -jobs 1 -job-n 512 -job-verify -seed 13
"$tmp/abftload" -addr "$gw" -jobs 1 -job-kernel cg -seed 17
curl -fsS "$gw/debug/vars" | grep -q '"checkpoints_stored":[1-9]'
# The workers' counters reach /debug/vars too (abftd's Publish wiring); the
# sweep lands on at least one of them.
for port in 18431 18432 18433; do
	curl -fsS "http://127.0.0.1:$port/debug/vars"
done | grep -q '"accepted":[1-9]'
# The gateway first, so nothing is forwarded to a worker that is leaving.
for p in $gate $workers; do
	kill -INT "$p"
	wait "$p"
done
