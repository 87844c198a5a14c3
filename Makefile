.PHONY: tier1 race lint bench benchcheck benchsched benchall fmt serve-smoke cluster-smoke profile perfbench-check fuzz-match

# Tier 1: the fast correctness gate.
tier1:
	go build ./...
	go test ./...

# The benchmark harness (perfbench/) is its own module that imports this
# one, so `go build ./...` at the root never compiles it. Vet and test it so
# a root API change that breaks the harness fails here, not in a benchmark
# run.
perfbench-check:
	cd perfbench && go vet ./... && go test ./...

# Fuzz smoke for the subgraph matcher: 20 s of FuzzFind, which checks the
# bit-row matcher against its map-based reference (same mappings, same
# budget cut) on random blocks.
fuzz-match:
	go test -run='^$$' -fuzz=FuzzFind -fuzztime=20s ./internal/match

# Static analysis: the project lint suite (iselint enforces the determinism,
# zero-allocation and concurrency contracts; see DESIGN.md §9) plus gofmt
# cleanliness. The sweep covers the commands too, so the daemon and CLIs sit
# under the same passes as the library. Findings are cached under .cache/lint
# keyed by the content hash of every module source file, so a no-op re-run is
# instant; any source edit invalidates the whole program-level entry.
lint:
	go run ./cmd/iselint -cache .cache/lint ./internal/... ./cmd/...
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi

# Tier 2: lint + vet + race detector across every package (slower; run
# before merging anything that touches internal/parallel, core, or flow).
race: lint
	go vet ./...
	go test -race ./...

# Benchmarks: the exploration + flow benchmarks (ExploreMI / ExploreSI /
# Headline / BuildPool plus the engine-ablation pair) and the instrumented
# round-loop pair from internal/core (ExploreIter{Trace,Flight}{Off,On} —
# the nil-path ones must stay at 0 allocs/op, see DESIGN.md §16), 5
# repetitions each, folded into BENCH_pool.json with per-benchmark ns/op and
# allocs/op deltas against the committed exploration-era report
# BENCH_explore.json — the committed file is read, never regenerated here, so
# it stays the fixed comparison point for the cross-block arena-reuse work.
# Deltas worse than +10% land in the report's `regressions` section, which
# `make benchcheck` turns into an exit status (PR 6's ExploreSI/Headline
# regressions landed silently in the JSON; this makes that impossible).
# `make benchsched` refreshes BENCH_sched.json itself (kernel benchmarks
# against the pre-kernel text baseline); `make benchall` runs everything
# without JSON post-processing.
bench:
	go test -bench 'Explore|Headline|BuildPool' -benchmem -count 5 -run XXX . ./internal/core \
		| go run ./cmd/benchjson -prev BENCH_explore.json -maxdelta 10 \
			-cmd "go test -bench 'Explore|Headline|BuildPool' -benchmem -count 5 -run XXX . ./internal/core" \
			-o BENCH_pool.json
	@cat BENCH_pool.json

# Fail if the committed bench report records regressions against its -prev
# comparison point.
benchcheck:
	go run ./cmd/benchjson -check BENCH_pool.json

benchsched:
	go test -bench 'Sched|Explore|Headline' -benchmem -count 5 \
		| go run ./cmd/benchjson -baseline BENCH_baseline.txt -o BENCH_sched.json
	@cat BENCH_sched.json

benchall:
	go test -bench=. -benchmem

fmt:
	gofmt -l .

# End-to-end smoke test of the service daemon: builds the real iseserve and
# iseexplore binaries, boots the daemon on a random port, submits a job over
# HTTP, streams its SSE progress, asserts the result matches the CLI run, and
# scrapes /metrics, failing on malformed Prometheus exposition lines. Gated
# behind an env var so plain `go test ./...` stays fast.
serve-smoke:
	ISESERVE_SMOKE=1 go test -run TestServeSmoke -v ./cmd/iseserve/

# End-to-end smoke test of fleet mode (DESIGN.md §15–16): boots one
# coordinator and two worker daemons on loopback, runs the same distributed
# job twice, asserts both results match the single-node CLI answer byte for
# byte, requires the second job to be served from the shared eval-cache tier
# (remote-hit counters must grow on the coordinator's /metrics), and
# validates the fleet observability surface: the merged Chrome trace shows
# both workers' tracks inside the coordinator's dispatch spans on one
# monotone timeline, both jobs record identical convergence flight series,
# and /v1/fleet/metrics serves a valid node-labeled exposition.
cluster-smoke:
	ISECLUSTER_SMOKE=1 go test -run TestClusterSmoke -v ./cmd/iseserve/

# CPU-profile the headline benchmark and print the top-10 hot functions.
# Artifacts land in /tmp so the repo stays clean.
profile:
	go run ./cmd/isebench -headline -fast -cpuprofile /tmp/ise-cpu.out
	go tool pprof -top -nodecount=10 /tmp/ise-cpu.out
