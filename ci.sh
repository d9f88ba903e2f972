#!/bin/sh
# CI gate: vet, build, the suite under the race detector (-short trims the
# Monte-Carlo budgets; the plain `go test ./...` runs them in full), then tiers.
set -eux

cd "$(dirname "$0")"

gofmt_dirty=$(gofmt -l .)
test -z "$gofmt_dirty"

go vet ./...
go build ./...
go test -race -short ./...

# No-race tier: every TestWarm* test (what a warm process keeps and spends),
# one package at a time; each test's doc comment states its reading and bound.
go test -p 1 -run '^TestWarm' -count=1 -v ./...

# Fuzz smoke: every native fuzz target (`go test -list`), 5 s each with
# minimization bounded; each target's doc comment states its property.
fuzz=$(go test -list '^Fuzz' ./... | awk '/^Fuzz/ {f[n++] = $1} /^ok/ {for (i = 0; i < n; i++) print $2 "," f[i]; n = 0}')
test -n "$fuzz"
for t in $fuzz; do
	go test -run '^$' -fuzz "^${t#*,}\$" -fuzztime 5s -fuzzminimizetime 1x "${t%,*}"
done

# Chaos soak gate and the functional-vs-timed oracle, under the race detector
# and time-boxed; the tests' doc comments state what they hold.
go test -race -timeout 5m -run 'TestSoakShortDeterministic' ./internal/recovery/soak/
go test -race -timeout 10m -run 'TestFunctionalRuntime' ./internal/recovery/soak/

# The benchmark module (cmd/abftbench/go.mod) is invisible to ./... above.
(cd cmd/abftbench && go vet . && go test .)

# The reproduction: every table and figure at full scale, byte for byte
# (TestSmallOutputGolden is its test-scale twin).
go run ./cmd/paperfigs | cmp - paperfigs_output.txt

# Bench smoke: every benchmark once, so none can silently rot.
go test -bench=. -benchtime=1x -run='^$' ./...

# Fused-vs-two-pass wall-clock gate (TestFusedVsTwoPassGate's doc comment).
FUSED_BENCH=1 FUSED_BENCH_N=256 go test -timeout 10m \
	-run 'TestFusedVsTwoPassGate' -v ./internal/abft/

# f32 ABFT gates: no silent wrong answer, no false-positive restart.
go test -race -timeout 5m \
	-run 'TestGEMM32CleanSweepNoFalsePositives|TestGEMM32FaultAboveBoundAlwaysDetected|TestGEMM32BitFlipNeverSilent' \
	./internal/abft/

# Wiring smoke across processes: three workers and a gateway, race-built, five
# abftload runs that fail on a wrong answer, and a SIGINT drain with exit 0.
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
# No -self-url: the CG job's checkpoints reach the gateway only if the
# workers were handed the address its listener bound.
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
