GO ?= go

.PHONY: all build vet test race examples figures bench-test bench-smoke rulecheck-guard fuzz-smoke cover loc ci experiments samebytes clean

all: ci

build:
	$(GO) build ./...

# The root ./... skips bench/ (a module of its own), so it is vetted on
# its own; gofmt -l prints the files it would rewrite (bench/ included)
# and any output fails the target.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# -timeout backstops regressions that hang (e.g. a cache follower parked
# behind a flight nobody completes) instead of letting CI stall until the
# job-level kill.
test:
	$(GO) test -timeout 300s ./...

# The suite under the race detector. Coverage is `cover`'s own run:
# instrumenting for both at once made internal/volcano's tests five
# times slower.
race:
	$(GO) test -race -timeout 600s ./...

# The example programs are package main without tests: run each one, and
# fail on the first non-zero exit.
examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run "./$$d" || exit 1; done

# The repository benchmark (bench/, a module of its own that the root
# module's ./... skips) imports server, wire, volcano, plancache and obs:
# its smoke test runs every workload at a small scale and checks
# BENCHMARK.json against the runner. Serving, caching and execution are
# measured there and nowhere else (bench/README.md: `bash bench/run.sh`).
bench-test:
	cd bench && $(GO) test -timeout 300s ./...

# A short benchmark smoke: three iterations of the figure benchmarks —
# Fig10/11 put the Prairie-generated and the hand-coded optimizer side by
# side (time and allocations, the paper's 5% claim), Fig12–14 stress the
# search engine hardest (E3/E4 sweeps and the exploration figure) — of
# the merge-heavy searches, which report merges and repaired expressions
# per search, and of SearchCold, one round of the benchmark's search_cold
# programs: its allocs/program is that workload's allocs_per_op, and of
# ObsGuard, the same searches unobserved (off) and with metrics plus
# per-rule timing (on): the on/off ratio is the price of the observer and
# its stopwatch, and of ExecPlans, the exec_plans workload's six plans
# compiled and run on 4096-row tables: the executor's time, bytes and
# objects per run, and of ChurnReplay, serve_churn's request cycle
# replayed through a 32-entry plan cache: the cache layer's search work
# per request and hit rate. Full runs: `go test -bench=. -benchmem`.
bench-smoke:
	$(GO) test -run 'XXX' -bench 'Fig1[01234]|ExploreMerges|SearchCold|ObsGuard|ExecPlans|ChurnReplay' -benchmem -benchtime 3x .

# Rule-correctness guard: the per-rule differential verifier must give
# every trans_rule of every served rule set a "verified" verdict, and
# the mutation-testing mode must kill at least 95%
# of seeded rule corruptions, and every rule's sites, checks and mutant
# verdicts must read as testdata/verdicts.golden pins them
# (internal/rulecheck; DESIGN.md §4.14).
rulecheck-guard:
	$(GO) test -run 'TestShippedRuleSetsVerified|TestMutationKillRate|TestVerdictsGolden' -timeout 300s ./internal/rulecheck

# Fuzz smoke: every fuzz target for FUZZTIME each. FuzzParse drives the
# rule-language front end (parse -> format -> parse fixed point);
# FuzzFingerprint property-tests the plan-cache fingerprint invariants
# (commutative-input swaps, attrs reordering); FuzzCacheEntry hammers
# the cache-entry codec bench measures (garbage rejected without panics,
# decodables reach an encode/decode fixed point); FuzzOptimizeRequest
# drives /v1/optimize's body decoder and request preparation, the
# server's one outside input (4xx with an error, or a servable request);
# FuzzAttrKernels holds the join rules' attribute and predicate kernels
# (linear Union, two-set tests, two-predicate splits, the associativity
# test) to the code they replaced, seeded with Union's aliasing symbols.
# Seed corpora live under testdata/fuzz/; crashers are gitignored until
# promoted. go test -fuzz exits 0 on a name that matches no fuzz test,
# so each target must first be listed by go test -list.
FUZZTIME ?= 30s
FUZZ_TARGETS = FuzzParse:./internal/prairielang FuzzFingerprint:. FuzzCacheEntry:./internal/wire \
	FuzzOptimizeRequest:./internal/server FuzzAttrKernels:./internal/core
fuzz-smoke:
	@for tp in $(FUZZ_TARGETS); do \
		echo "== $${tp%%:*}"; \
		$(GO) test -list "^$${tp%%:*}\$$" "$${tp#*:}" | grep -qx "$${tp%%:*}" || \
			{ echo "fuzz-smoke: no fuzz test $${tp%%:*} in $${tp#*:}"; exit 1; }; \
		$(GO) test -run '^$$' -fuzz "^$${tp%%:*}\$$" -fuzztime $(FUZZTIME) "$${tp#*:}" || exit 1; \
	done

# Statement-coverage gate: one run of the suite writes the profile, then
# a per-package summary and a hard floor on the total
# (scripts/cover.awk). Baseline with the rulecheck package landed: 76.0%;
# the floor leaves headroom for unexercised glue in new code, not for
# regressions.
COVER_FLOOR ?= 75.5
cover:
	$(GO) test -timeout 600s -coverprofile=cover.out ./...
	@awk -v floor=$(COVER_FLOOR) -f scripts/cover.awk cover.out

# Non-test Go lines by package and in total: the number ROADMAP's
# pruning item tracks (bench/ is the benchmark's own module and is not
# counted).
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		     END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

ci: vet build examples race bench-test bench-smoke rulecheck-guard fuzz-smoke cover

# Regenerate every paper table/figure (sequential, paper-faithful timing).
experiments: build
	$(GO) run ./cmd/optbench -experiment all

# The tables EXPERIMENTS.md records for Table 5 and Figures 10-14, one
# optbench run each, under a line saying where and when: E2 goes to 7
# joins, E4 to 4 in time (fig13) and to 5 in classes (fig14), one and two
# past the paper's wall (-maxclasses counts classes, one more than
# joins). About a minute, most of it fig13; fig13 at -maxclasses 6 works
# too but takes 90 s on 2 vCPUs by itself.
figures: build
	@echo "# $$(nproc) CPUs, $$($(GO) env GOOS)/$$($(GO) env GOARCH), $$($(GO) env GOVERSION), commit $$(git rev-parse --short HEAD), $$(date -u +%F)"
	$(GO) run ./cmd/optbench -experiment table5
	$(GO) run ./cmd/optbench -experiment fig10 -repeats 10
	$(GO) run ./cmd/optbench -experiment fig11 -maxclasses 8
	$(GO) run ./cmd/optbench -experiment fig12 -repeats 10
	$(GO) run ./cmd/optbench -experiment fig13 -maxclasses 5
	$(GO) run ./cmd/optbench -experiment fig14 -maxclasses 6

# Same answers at two commits: `optbench -experiment plandump` (every
# program of the benchmark's four workload pools, searched cold: digests
# of plan text, wire plan and memo dump, cost, counters) here and at
# BASE, checked out in a temporary git worktree, diffed. BASE must have
# the experiment; cmd/optbench/testdata/plandump.csv.golden holds the
# same table between commits.
BASE ?= HEAD
samebytes:
	@dir=$$(mktemp -d) && trap 'git worktree remove --force "$$dir/base"; rm -rf "$$dir"' EXIT && \
	git worktree add --detach --quiet "$$dir/base" $(BASE) && \
	(cd "$$dir/base" && $(GO) run ./cmd/optbench -experiment plandump -csv) > "$$dir/base.csv" && \
	$(GO) run ./cmd/optbench -experiment plandump -csv > "$$dir/head.csv" && \
	diff "$$dir/base.csv" "$$dir/head.csv" && echo "samebytes: the working tree searches as $(BASE) does"

clean:
	$(GO) clean ./...
