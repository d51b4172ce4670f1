# Development entry points. CI runs the same commands (see
# .github/workflows/ci.yml); BENCH files are recorded with `make bench`.

DATE := $(shell date +%F)

.PHONY: build test vet race tier1 bench bench-smoke alloc-guard serve-smoke cluster-smoke fault-smoke obs-smoke overload-smoke

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

# The tier-1 gate: build, vet, test — what every change must keep green.
tier1: build vet test

# run-tests runs `go test -run '$(1)' $(2) $(3)` ($(2) flags, $(3)
# packages) once the pattern is proven live: every named package must hold a
# test it matches, and so must every |-separated alternative across the
# packages. go test alone exits 0 with "[no tests to run]" when a pattern
# matches nothing, so a renamed test would otherwise silently gate nothing.
define run-tests
	@for pkg in $(3); do \
		go test -list '$(1)' $$pkg | grep -Eq '^(Test|Example|Fuzz)' || \
			{ echo "-run '$(1)' matches no test in $$pkg" >&2; exit 1; }; \
	done; \
	for alt in $$(echo '$(1)' | tr '|' ' '); do \
		go test -list "$$alt" $(3) | grep -Eq '^(Test|Example|Fuzz)' || \
			{ echo "-run alternative '$$alt' matches no test in $(3)" >&2; exit 1; }; \
	done
	go test -run '$(1)' $(2) $(3)
endef

race:
	go test -race . ./internal/popsnet ./internal/obs ./internal/wirebin ./internal/service/... ./internal/cluster/... ./internal/chaos ./cmd/popsserved ./cmd/popsproxy

# End-to-end serving smoke: start popsserved on an ephemeral port, route a
# permutation through pops.ServiceClient, and assert the second call is
# answered by the fingerprint plan cache (plan flag + /stats hit counter).
# TestServeSmokeStream additionally POSTs /route/stream over raw TCP and
# asserts the slot records arrive as >= 2 separate HTTP chunks,
# TestServeSmokeStreamBinary repeats that with Accept: application/x-pops-bin
# (binary Content-Type negotiated, >= 2 chunks, frames decode to
# meta + slots + done), and TestServeSmokeStreamHRelation round-trips an
# h-relation workload through /route/stream the same way — >= 2 chunks, and
# a workload plan cache hit when the identical relation is streamed again.
serve-smoke:
	$(call run-tests,TestServeSmoke|TestServeSmokeStream,-count=1 -v,./cmd/popsserved)

# End-to-end cluster smoke: boot three in-process popsserved backends and a
# popsproxy front door, drive a permutation trace through the unchanged
# single-node client, kill one backend mid-trace, and assert zero failed
# requests (the dead node is ejected, its keys fail over to the next ring
# owner) plus a full-trace replay answered from the owning nodes' plan
# caches. TestClusterSmokeStream repeats the exercise for /route/stream, and
# TestClusterSmokeStreamBinary pins the codec to binary end to end — the
# proxy must relay the backends' binary framing intact.
cluster-smoke:
	$(call run-tests,TestClusterSmoke,-count=1 -v,./cmd/popsproxy)

# End-to-end fault-tolerance smoke: round-trip a FaultyPermutation workload
# through a live popsserved, verify the served schedule on the fault-injected
# simulator (full delivery, zero dead-coupler use), assert the replay is a
# cache hit and the /stats fault counters moved, and assert a dead-group
# request comes back as a typed *pops.UnroutableError across the wire.
fault-smoke:
	$(call run-tests,TestFaultSmoke,-count=1 -v,./cmd/popsserved)

# End-to-end overload smoke: two throttled popsserved backends behind a
# popsproxy, a 4x load ramp with one backend degraded to 200ms per request.
# Asserts the robustness contract: nonzero typed sheds (429 + Retry-After),
# admitted p99 within 5x of the uncontended baseline, the slow node's
# circuit breaker opens (health checks alone cannot catch it) and re-closes
# once the slowness lifts. The shed-don't-collapse and tenant-fairness
# properties are covered in-process by ./internal/chaos.
overload-smoke:
	$(call run-tests,TestOverloadSmoke,-count=1 -v,./cmd/popsproxy)
	$(call run-tests,TestOverloadShedsDontCollapse|TestTenantWeightedFairness,-count=1 -v,./internal/chaos)

# End-to-end observability smoke: boot popsserved with a -debug-addr
# listener, route a permutation under a caller-chosen X-Request-Id, and
# assert the ID echoes through the client round trip, GET /metrics serves
# Prometheus text with a (d, g, strategy)-labeled plan-time series, the
# traced request lands in GET /debug/slow, and the debug listener answers
# both /metrics and net/http/pprof.
obs-smoke:
	$(call run-tests,TestObsSmoke,-count=1 -v,./cmd/popsserved)

# Record a BENCH_<date>.json with the benchmark set the baselines use.
# Override the output or note: make bench BENCH_OUT=BENCH_x.json BENCH_NOTE="..."
BENCH_OUT  ?= BENCH_$(DATE).json
BENCH_NOTE ?= recorded with make bench
bench:
	go run ./cmd/benchrecord -out $(BENCH_OUT) -note "$(BENCH_NOTE)"

# One-iteration benchmark pass: compile-and-run smoke, no timing value.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x -benchmem ./...

# The steady-state allocation guard of the coloring engine: fails if
# Factorizer/Matcher/Splitter reuse regresses past the alloc budget. The
# streaming path is covered too: a warmed Stream drain allocates nothing
# beyond its handle, and ExecuteStream+Collect stays within Execute's budget
# plus the fixed stream handles. TestHRelationPooledAllocBudget guards the
# pooled h-relation path of Execute: steady state must stay under half the
# allocations of a fresh Planner per call (the measured delta is recorded
# in BENCH_2026-07-30_hrelation.json). The tracing layer
# rides the same gate: span recording, the tracer's pooled Start/Finish
# cycle, plan-time Observe on an existing key, and a traced plan-cache hit
# must all stay at 0 allocs/op. The binary wire codec holds the same bar:
# a pooled slot-frame encode+decode cycle and a Reframer relay step are
# 0 allocs/op in steady state (the measured codec delta is recorded in
# BENCH_2026-08-08_wirebin.json), a POPS(16,64) schedule response decodes
# at its exact allocation count (every slice presized, no append growth),
# and a hostile element count fails as corrupt before it can allocate.
alloc-guard:
	$(call run-tests,TestFactorizerAllocBudget|TestStreamAllocBudget|TestMatcherSteadyStateAllocFree|TestSplitterSteadyStateAllocFree,-count=1,./internal/edgecolor ./internal/matching ./internal/graph)
	$(call run-tests,TestSpanAllocBudget|TestPlanTimesObserveAllocBudget,-count=1,./internal/obs)
	$(call run-tests,TestWireEncodeAllocBudget|TestReframerAllocBudget|TestDecodeResponseAllocBudget|TestDecodeHostileCountBounded,-count=1,./internal/wirebin)
	$(call run-tests,TestExecuteStreamAllocBudget|TestHRelationPooledAllocBudget|TestCachedHitSpanAllocBudget,-count=1,.)
