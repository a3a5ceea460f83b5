# Verification tiers for the MBAC reproduction.
#
#   tier-1   — build + full test suite (the driver's gate)
#   tier-1.5 — race detector over every package; concurrency-sensitive
#              packages (gateway, sim) must stay clean under -race
#   stat     — seeded statistical ensembles (build tag "stat"): the √2-law
#              assertions of Prop 3.3 through the instrumented gateway
#   bench    — admission hot-path benchmarks
#   bench-json — capture the gateway benchmarks as BENCH_gateway.json via
#              cmd/benchjson; bench-cmp diffs a fresh run against the
#              committed baseline (fails on >20% ns/op regression or any
#              allocs/op growth)
#   bench-server-json — capture the serving-layer benchmark (loopback
#              client -> server -> gateway) as BENCH_server.json;
#              bench-server-cmp diffs a fresh run against the committed
#              baseline, gating ns/decision (the budgeted number) and
#              allocs/op rather than ns/op of the whole pipelined round
#   bench-sim-json — capture the simulation-engine benchmarks (the columnar
#              impulsive replication kernel and the churn-heavy engine) at
#              -cpu 1 as BENCH_sim.json, environment recorded; bench-sim-cmp
#              diffs a fresh run against the committed baseline, gating
#              ns/op and allocs/op — the budget the statistical tiers spend
#              (n >= 3200 sqrt2-law ensembles) — and refuses (exit 2) a
#              baseline from a different environment
#   fuzz     — short adversarial-input fuzzing of the estimator and
#              controller (checked-in corpora replay in plain `go test`)
#   vet      — gofmt and go vet (enum name completeness is not here: each
#              enum's internal/enum table panics at package init on an
#              unnamed or duplicate constant, so every test binary checks it)
#   chaos    — fault-injection soaks (build tag "chaos") under -race:
#              estimator NaN/Inf bursts, stalled ticks, leaked clients; ends
#              with bench-cmp so the lifecycle/degradation machinery is also
#              held to the serving-path perf budget
#   net      — network serving tier (build tag "net"): the loopback
#              end-to-end soak (client -> server -> gateway, open loop,
#              concurrent, graceful drain) under -race, then bench-cmp so
#              the serving layer can't regress the admission hot path
#   cluster  — multi-gateway routing tier (build tag "cluster"): the
#              4-instance skewed-arrival soak (per-instance sqrt2-law
#              audits) and the concurrent drain/failover soak under -race,
#              then both serving-path perf guards — the routing layer must
#              not tax the single-gateway budget it multiplexes
#   adaptive — adaptive measurement tier (build tag "adaptive"): the
#              regime-shift soak (renegotiated RCBR whose correlation time
#              collapses mid-run; the controller must track T̂_c, converge
#              T_m to T̃_h and hold the eq. 41 masking level) under -race,
#              then both serving-path perf guards — adaptation off must
#              leave the admit fast path untouched
#   flake    — the serving packages' tests (server, cluster, wire, client)
#              and the concurrent replay's (loadgen, cmd/gateway)
#              repeated FLAKE_COUNT times under the race detector, so a
#              test-harness race that fails only now and then (a writer
#              goroutine outliving its test, a counter read before the
#              server bumps it) surfaces here instead of in tier-1
#   scenario — declarative scenario suite (build tag "scenario"): every
#              config under scenarios/ runs its seed x arm matrix and must
#              grade to its declared Confirmed/Refuted verdict — including
#              the slow impulsive sqrt2-law ensembles excluded from tier-1;
#              ends with bench-cmp so scenario plumbing can't tax the
#              admission hot path. The fast scenarios also replay in tier-1
#              via the byte-exact golden reports (results/golden/scenario/)
#              and the network-twin test.

GO ?= go

.PHONY: all build test race flake test-stat bench bench-json bench-cmp bench-server-json bench-server-cmp bench-sim-json bench-sim-cmp fuzz golden vet test-chaos test-net test-cluster test-adaptive test-scenario scenarios

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1.5: the whole tree under the race detector. The gateway and the
# simulation worker pool are the packages with real concurrency; the rest
# ride along as a regression net.
race:
	$(GO) test -race ./...

# Flake tier: many race-detector repetitions of the packages whose tests
# drive real sockets and goroutines.
FLAKE_COUNT ?= 20

flake:
	$(GO) test -race -count=$(FLAKE_COUNT) ./internal/server ./internal/cluster ./internal/wire ./client ./internal/loadgen ./cmd/gateway

# Statistical tier: deterministic seeded ensembles (several seconds of
# simulation), excluded from tier-1 by the "stat" build tag. The columnar/
# scalar differential and the competing-exponentials clock's differential
# against the event heap run under -race here (the columnar path shares
# worker-local arenas), and the tier ends with the engine perf guard — the
# statistical power this tier spends was bought by the columnar speedup.
test-stat:
	$(GO) test -tags stat -run 'TestStat' -v .
	$(GO) test -tags stat -race -run 'TestStat' -v ./internal/sim
	$(MAKE) bench-sim-cmp

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Serving-path benchmark baseline: the Gateway benchmarks captured as JSON.
# `make bench-json` refreshes BENCH_gateway.json in place (commit the
# change when a perf PR moves the numbers); `make bench-cmp` measures
# without overwriting and diffs against the committed baseline. -cpu 1
# pins GOMAXPROCS so the baseline and a fresh run compare like with like;
# benchjson records it and bench-cmp refuses a baseline taken under a
# different GOMAXPROCS, CPU count or Go version.
GATEWAY_BENCH = $(GO) test -run '^$$' -bench 'BenchmarkGateway' -benchtime 2s -cpu 1 -benchmem .

bench-json:
	$(GATEWAY_BENCH) | $(GO) run ./cmd/benchjson -out BENCH_gateway.json

bench-cmp:
	$(GATEWAY_BENCH) | $(GO) run ./cmd/benchjson -out /tmp/BENCH_gateway.new.json
	$(GO) run ./cmd/benchjson -cmp -threshold 20 -metric ns/op,allocs/op BENCH_gateway.json /tmp/BENCH_gateway.new.json

# Serving-layer benchmark baseline: the end-to-end loopback bench captured
# as JSON, gated on ns/decision (departs ride along in each round, so raw
# ns/op measures the whole 128-frame pipeline, not the budget).
# -count 3 because the loopback round trip is scheduler-bound: benchjson
# collapses replicates to the fastest run, the stable estimator on a
# shared machine. -cpu 1 pins GOMAXPROCS, as for the gateway and sim
# baselines.
SERVER_BENCH = $(GO) test -run '^$$' -bench 'BenchmarkServerAdmit' -benchtime 2s -count 3 -cpu 1 -benchmem ./internal/server

bench-server-json:
	$(SERVER_BENCH) | $(GO) run ./cmd/benchjson -out BENCH_server.json

bench-server-cmp:
	$(SERVER_BENCH) | $(GO) run ./cmd/benchjson -out /tmp/BENCH_server.new.json
	$(GO) run ./cmd/benchjson -cmp -threshold 20 -metric ns/decision,allocs/op BENCH_server.json /tmp/BENCH_server.new.json

# Simulation-engine benchmark baseline: the columnar impulsive-replication
# kernel (the hot path behind every ensemble) and the churn-heavy engine
# (arrival/departure/heap traffic). -count 4 because replication benches
# are FP-throughput-bound and scheduler noise is one-sided: benchjson
# collapses replicates to the fastest run. -cpu 1 pins GOMAXPROCS, because
# ImpulsiveReplication's allocs/op grow with the replication pool's worker
# count; benchjson records it and bench-sim-cmp refuses a baseline taken
# under a different GOMAXPROCS, CPU count or Go version.
SIM_BENCH = $(GO) test -run '^$$' -bench 'BenchmarkImpulsiveReplication$$|BenchmarkEngineChurn' -benchtime 1s -count 4 -cpu 1 -benchmem ./internal/sim

bench-sim-json:
	$(SIM_BENCH) | $(GO) run ./cmd/benchjson -out BENCH_sim.json

bench-sim-cmp:
	$(SIM_BENCH) | $(GO) run ./cmd/benchjson -out /tmp/BENCH_sim.new.json
	$(GO) run ./cmd/benchjson -cmp -threshold 20 -metric ns/op,allocs/op BENCH_sim.json /tmp/BENCH_sim.new.json

FUZZTIME ?= 30s

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzExponentialEstimator -fuzztime $(FUZZTIME) ./internal/estimator
	$(GO) test -run '^$$' -fuzz FuzzWindow -fuzztime $(FUZZTIME) ./internal/estimator
	$(GO) test -run '^$$' -fuzz FuzzAggregateOnly -fuzztime $(FUZZTIME) ./internal/estimator
	$(GO) test -run '^$$' -fuzz FuzzCertaintyEquivalent -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzFrameDecode -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzScenarioConfig -fuzztime $(FUZZTIME) ./internal/scenario

golden:
	$(GO) test ./internal/experiments -run TestGolden -update-golden
	$(GO) test ./internal/scenario -run TestGoldenScenarioReports -update-golden

# Static tier: gofmt (any file it would rewrite fails the tier; hidden
# directories such as the benchmark's build cache are skipped) and the
# standard vet pass.
vet:
	@unformatted=$$(gofmt -l $$(find . -name '*.go' -not -path './.*')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...

# Chaos tier: seeded fault-injection soaks under the race detector, then
# the serving-path perf guard — leases and degradation must not tax the
# admission hot path beyond the committed budget.
test-chaos:
	$(GO) test -tags chaos -race -run 'TestChaos' -v ./internal/gateway
	$(MAKE) bench-cmp

# Network tier: the loopback end-to-end soak and the sharded pipelined
# identity test under the race detector, then both serving-path perf
# guards — the network layer must hold the gateway budget it fronts and
# its own per-decision budget.
test-net:
	$(GO) test -tags net -race -run 'TestSoak|TestSharded' -v ./internal/loadgen
	$(MAKE) bench-cmp
	$(MAKE) bench-server-cmp

# Cluster tier: the multi-gateway soaks under the race detector — skewed
# arrivals against per-instance sqrt2-law audits, and a drain/failover
# storm with concurrent ticks and placements — then both serving-path
# perf guards: routing, pinning and migration must not regress the
# admission budget of the instances they front.
test-cluster:
	$(GO) test -tags cluster -race -run 'TestClusterSkewedSoak|TestClusterFailoverSoak' -v ./internal/cluster
	$(MAKE) bench-cmp
	$(MAKE) bench-server-cmp

# Adaptive tier: the regime-shift soak under the race detector — the
# online time-scale controller retuning a live gateway's measurement
# memory against concurrent admissions — then both serving-path perf
# guards: with no Tuner attached the admit fast path must stay on the
# committed budget (BenchmarkGatewayAdmitAdaptive in the gateway baseline
# additionally pins the tuner-on tick cost).
test-adaptive:
	$(GO) test -tags adaptive -race -run 'TestAdaptiveRegimeShiftSoak' -v ./internal/adaptive
	$(MAKE) bench-cmp
	$(MAKE) bench-server-cmp

# Scenario tier: the full declarative suite (including the slow impulsive
# sqrt2-law ensembles), then both perf guards — the scenario engine drives
# the same gateway everything else does, and its seed x arm matrices run
# on the simulation engine whose budget bench-sim-cmp enforces.
test-scenario:
	$(GO) test -tags scenario -run 'TestScenarioSuite' -timeout 30m -v ./internal/scenario
	$(MAKE) bench-cmp
	$(MAKE) bench-sim-cmp

# Regenerate the FINDINGS reports under results/scenario from the built-in
# suite (cmd/scenario exits nonzero if any verdict mismatches its expect).
scenarios:
	$(GO) run ./cmd/scenario -dir scenarios -out results/scenario -strict
