# lbsq build/verification entry points. `make verify` is the tier-1 gate
# (see README.md): vet, build, race-enabled tests, and a fuzz smoke run
# of every Fuzz* target under internal/. `make lint` and `make cover` are the fast CI
# gates (formatting + vet, and per-package coverage floors). Everything
# is stdlib-only Go.

GO ?= go
GOFMT ?= gofmt

# staticcheck runs in `make lint` only when the binary is present (CI
# installs the pinned version below; local trees without it still get
# gofmt + vet). Keep the pin in sync with .github/workflows/ci.yml.
STATICCHECK ?= staticcheck
STATICCHECK_VERSION = 2025.1.1

# Packages that must stay above the coverage floor (see `make cover`).
COVER_PKGS = internal/core internal/geom internal/metrics internal/trust internal/cache internal/faults internal/sim internal/p2p internal/broadcast
COVER_MIN ?= 70

.PHONY: all build vet test race lint loc loc-check unlinked unlinked-check cover cover-profile cover-check fuzz-smoke verify goldens continuous-identity trust-identity nnv-identity prefill-identity residual-sweep soak bench bench-check bench-e2e-check

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The experiments suite alone takes minutes under race instrumentation on
# slow runners, so give the package-level timeout explicit headroom instead
# of relying on go test's 10-minute default.
race:
	$(GO) test -race -timeout 45m ./...

# Fast static gates: gofmt (fails loudly listing unformatted files) and
# go vet. CI runs this before anything expensive.
lint:
	@unformatted=$$($(GOFMT) -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./... && echo "lint: staticcheck clean"; \
	else \
		echo "lint: staticcheck not installed, skipping (CI pins $(STATICCHECK_VERSION))"; \
	fi
	@echo "lint: gofmt and vet clean"

# Per-package statement-coverage floors. A default -coverprofile run
# covers each package by its own tests only, which is what the
# `coverage: N% of statements` line go test prints per package reports,
# so the floors are read off that output. Split so the expensive test run
# (cover-profile, which keeps the output in results/cover.txt beside the
# profile) and the cheap floor check (cover-check) are separate steps: CI
# runs the suite exactly once. cover-check fails below COVER_MIN and
# when a listed package has no coverage line at all.
cover: cover-profile cover-check

cover-profile:
	@mkdir -p results
	@$(GO) test -count=1 -coverprofile=results/cover.out ./... > results/cover.txt 2>&1; \
		status=$$?; cat results/cover.txt; exit $$status

cover-check:
	@awk -v pkgs="$(COVER_PKGS)" -v min=$(COVER_MIN) ' \
		$$1 == "ok" { for (i = 3; i < NF; i++) if ($$i == "coverage:") pct[$$2] = $$(i+1) + 0 } \
		END { n = split(pkgs, want, " "); \
			for (i = 1; i <= n; i++) { p = "lbsq/" want[i]; \
				if (!(p in pct)) { print "cover-check: no coverage line for " p; bad = 1 } \
				else if (pct[p] < min) { printf "cover-check: %s %.1f%% is below %d%%\n", p, pct[p], min; bad = 1 } \
				else printf "cover-check: %s %.1f%%\n", p, pct[p] } \
			exit bad }' results/cover.txt

# Short native-fuzzing runs of every fuzz target under internal/: the wire
# decoders and the attack mangler against arbitrary bytes and geometry, and
# the scratch kernels (MVR union, local clearance, subtraction, conflict
# detection, quarantine outline, IR repair, on-air client) against the
# references they replaced — each target's doc comment states its contract.
# The seed corpora are part of the gate: a missing testdata corpus means a
# fuzz target silently lost its regression inputs, so fail loudly instead
# of fuzzing from nothing. Explicit -timeout keeps a hung target from
# stalling CI for go test's 10-minute default.
# The target list is read off the source (every `func Fuzz*` under
# internal/, as pkg:Target), so a new target joins the gate without an
# edit here. The -fuzz pattern is anchored because go test refuses to fuzz
# when it matches two targets, as one target's name may prefix another's.
FUZZ_TARGETS = $(shell grep -rHo '^func Fuzz[A-Za-z0-9_]*' internal --include='*_test.go' | \
	sed -E 's,^internal/([^/]+)/[^:]*:func ,\1:,' | sort -u)

fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; f=$${t##*:}; \
		if [ ! -d internal/$$pkg/testdata/fuzz/$$f ]; then \
			echo "fuzz-smoke: internal/$$pkg/testdata/fuzz/$$f corpus missing"; exit 1; \
		fi; \
	done
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; f=$${t##*:}; \
		echo "$(GO) test -run='^$$' -fuzz=^$$f\$$ -fuzztime=5s -timeout 5m ./internal/$$pkg"; \
		$(GO) test -run='^$$' -fuzz="^$$f\$$" -fuzztime=5s -timeout 5m ./internal/$$pkg || exit 1; \
	done

verify: vet build race fuzz-smoke
	@echo "verify: all gates passed"

# Committed goldens (internal/sim/testdata/golden, DESIGN.md §14.4):
# TestGolden runs in `make test` and `make race` and fails on any
# difference. Run this only for an intended behaviour change, and review
# the resulting diff like code; amd64 only (the files are float-bit exact).
goldens:
	$(GO) test -count=1 -run 'TestGolden' ./internal/sim -update

# The size measures ROADMAP.md tracks (aim 2), with the exact commands:
# non-test lines of internal/sim, all non-test Go lines outside the bench/
# module, the counts its item 2 quotes — lines of world.go, lines of
# world.go that gate on a layer pointer, Stats fields, lbsq-sim flags and
# how many of them main.go registers by hand rather than from the knob
# declarations, commands under cmd/ — and item 3's: lines of stats.go +
# metrics.go, lines outside metrics.go that touch the metrics bundle, how
# many internal/ packages import internal/metrics, and the exported fields
# of the `type …Config struct` declarations under internal/ (the options a
# layer takes besides the knobs; all counts over non-test files) — and the
# lines of DESIGN.md and EXPERIMENTS.md, which item 3(d) shrinks.
LOC_SIM = ls internal/sim/*.go | grep -v _test.go | xargs cat | wc -l
LOC_ALL = find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l
LOC_MAIN = wc -l < cmd/lbsq-sim/main.go
LOC_HAND = grep -cE '^[[:space:]]*fs\.[A-Za-z0-9]*Var\(' cmd/lbsq-sim/main.go
LOC_FLAGS = $(GO) run ./cmd/lbsq-sim -h 2>&1 | grep -cE '^  -'
LOC_LEDGER = cat internal/sim/stats.go internal/sim/metrics.go | wc -l
LOC_MX = grep -rl '"lbsq/internal/metrics"' internal --include='*.go' --exclude='*_test.go' | \
	xargs -n1 dirname | sort -u | wc -l
LOC_CONFIG = find internal -name '*.go' -not -name '*_test.go' | xargs awk \
	'/^type [A-Za-z0-9_]*Config struct/ { c = 1; next } c && /^}/ { c = 0 } c && /^\t[A-Z]/ { n++ } END { print n + 0 }'
LOC_DESIGN = wc -l < DESIGN.md
LOC_EXPERIMENTS = wc -l < EXPERIMENTS.md
loc:
	@printf 'loc: internal/sim non-test lines: '; $(LOC_SIM)
	@printf 'loc: all non-test, non-bench lines: '; $(LOC_ALL)
	@printf 'loc: internal/sim/world.go lines: '; wc -l < internal/sim/world.go
	@printf 'loc: "!= nil" layer gates in world.go: '; grep -c '!= nil' internal/sim/world.go
	@printf 'loc: Stats fields: '; \
		awk '/^type Stats struct/,/^}/' internal/sim/stats.go | grep -cE '^\s[A-Z][A-Za-z0-9]* '
	@printf 'loc: lbsq-sim flags: '; $(LOC_FLAGS)
	@printf 'loc: lbsq-sim flags registered by hand: '; $(LOC_HAND)
	@printf 'loc: cmd/lbsq-sim/main.go lines: '; $(LOC_MAIN)
	@printf 'loc: cmd/ directories: '; ls -d cmd/*/ | wc -l
	@printf 'loc: internal/sim stats.go + metrics.go lines: '; $(LOC_LEDGER)
	@printf 'loc: "w.mx" lines outside metrics.go: '; \
		ls internal/sim/*.go | grep -v -e _test.go -e /metrics.go | xargs cat | grep -c 'w\.mx'
	@printf 'loc: internal/ packages importing internal/metrics: '; $(LOC_MX)
	@printf 'loc: exported fields of internal/ *Config structs: '; $(LOC_CONFIG)
	@printf 'loc: DESIGN.md lines: '; $(LOC_DESIGN)
	@printf 'loc: EXPERIMENTS.md lines: '; $(LOC_EXPERIMENTS)

# Ceilings on the size measures that crept between re-anchors (17,079 →
# 17,425 non-test lines over PRs 21–23 with nothing noticing), set at the
# values of the last PR that lowered them. A PR that needs more raises the
# ceiling in the same diff, where a reviewer sees it; one that shrinks the
# system lowers it. Reading counters and gauges when the registry
# snapshots lowered the totals and the observability ledger (stats.go +
# metrics.go, ROADMAP item 2's measure): /metrics keeps no copy of Stats,
# the phase-span types left internal/metrics, and internal/sim is the one
# internal/ package importing it. Bounded best-first kNN in caller scratch
# paid for itself inside internal/rtree (one STR level function, no
# container/heap queue) and lowered the totals again. Deleting the
# multiple-POI-type dimension (-types) and the tree-structured air index,
# which no experiment ran, lowered them once more and set the flag
# ceiling, so a deleted knob cannot return unnoticed. Range-checking a
# knob once, in sim.Params.Validate, deleted the clamps and validators
# below it and the trust policy fields only tests set: it lowered the
# totals again and set the config-field ceiling, so a deleted option
# cannot return unnoticed either. Deleting the functions no binary links
# and only their own tests called (make unlinked), and the nil-Injector
# path, lowered the total once more. Cutting SBWQ, the trust screen and
# the safe exits on the one kernel NNV uses, and deleting the row strips
# and two more subtraction routines, lowered the totals again. Writing a
# collected region once, into the query's one table that later stages
# read in place, deleted the reply staging and the reach cut's copy and
# lowered them once more. Giving each query result one owner — one entry
# point per core algorithm, on the caller's scratch; one trust-screen row
# per surviving claim; a screen that owns its arena — deleted the pooled
# twins, the piece tiling and the screened copy, and lowered them again.
# Making the R-tree's item a POI deleted the conversion loops around the
# ground truth, and lowered them once more. Judging a cached region against
# an invalidation report in one place, and cutting its repair with the one
# kernel, deleted the row-strip subtraction and lowered the total again.
# Selecting the on-air answer and sorting only the search square's share
# of the merge, with the copies the whole list's dedup drops decided
# exactly, raised it by 63 lines that deleting TaintedCandidates did not
# pay for. Letting the channel's copy of an ID win the on-air merge deleted
# that predecessor search, which paid for the bounded-row skip and lowered
# the total by 11. Summing each trust screen's report into Stats deleted
# the engine's parallel counters, the on-air wrappers that allocated a
# scratch per call went, and the total fell by 30. The two design documents
# are capped at their size then, so that they can only shrink. Keeping the
# armed path's scratch in caller storage and its per-host ledgers in arrays
# left the code totals where they were and EXPERIMENTS.md one line shorter.
# Making Stats the one tally, with the fault injector and the breakers
# returning what each call did, deleted their tallies and the copy into
# Stats and lowered the total again; DESIGN.md lost its sentences about
# deleted code and is capped at its new length. Letting the cache copy what
# it keeps, and core answer in scratch, deleted the counting copies and
# lowered the total by 2. Splitting the warm start into a serial draw pass
# and a build pass on sweep workers, in rounds that bound its memory,
# raised internal/sim by 33 lines, the total by 41 with Client.Share's
# copy, and the design documents by its description. Deleting the options
# no measuring caller varied (the crowd centre, the governor's separate
# switch, the good-state burst loss, the never-set broadcast config, the
# sweep worker count) lowered the flag ceiling to 60 and the totals again.
LOC_MAX_ALL = 14472
LOC_MAX_SIM = 4226
LOC_MAX_FLAGS = 60
LOC_MAX_CONFIG = 16
LOC_MAX_MAIN = 245
LOC_MAX_HAND = 10
LOC_MAX_MX = 1
LOC_MAX_LEDGER = 616
LOC_MAX_DESIGN = 2037
LOC_MAX_EXPERIMENTS = 1544
loc-check:
	@check() { if [ "$$2" -gt "$$3" ]; then echo "loc-check: $$1: $$2, ceiling $$3"; exit 1; fi; \
			echo "loc-check: $$1: $$2 (ceiling $$3)"; }; \
		check 'all non-test, non-bench lines' $$($(LOC_ALL)) $(LOC_MAX_ALL) && \
		check 'internal/sim non-test lines' $$($(LOC_SIM)) $(LOC_MAX_SIM) && \
		check 'cmd/lbsq-sim/main.go lines' $$($(LOC_MAIN)) $(LOC_MAX_MAIN) && \
		check 'lbsq-sim flags' $$($(LOC_FLAGS)) $(LOC_MAX_FLAGS) && \
		check 'exported fields of internal/ *Config structs' $$($(LOC_CONFIG)) $(LOC_MAX_CONFIG) && \
		check 'lbsq-sim flags registered by hand' $$($(LOC_HAND)) $(LOC_MAX_HAND) && \
		check 'internal/ packages importing internal/metrics' $$($(LOC_MX)) $(LOC_MAX_MX) && \
		check 'internal/sim stats.go + metrics.go lines' $$($(LOC_LEDGER)) $(LOC_MAX_LEDGER) && \
		check 'DESIGN.md lines' $$($(LOC_DESIGN)) $(LOC_MAX_DESIGN) && \
		check 'EXPERIMENTS.md lines' $$($(LOC_EXPERIMENTS)) $(LOC_MAX_EXPERIMENTS)

# Production code is what a binary links (ROADMAP item 3(c)). `make
# unlinked` builds every package main under ./... and the bench/ module
# with inlining off (-gcflags=all=-l, so no function disappears into an
# inlined caller), collects the text symbols under lbsq/internal/ they link
# (go tool nm), and prints every function of an internal/ package archive
# (go list -export) that none of them links. Closures and init are
# dropped, (*T).M is folded into T.M and generic instantiation suffixes
# are stripped. unlinked-check diffs the report against UNLINKED_KEEP, one
# "symbol<TAB>reason" line per function kept although only tests call it
# (an oracle, an inspection hook, a priced frame format): a new function
# that only tests call fails it, and so does a listed one a binary now
# links or that is gone.
UNLINKED_KEEP = results/test_support_symbols.txt
unlinked:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -gcflags=all=-l -o "$$tmp/bin/" ./...; \
	(cd bench && $(GO) build -gcflags=all=-l -o "$$tmp/bin/bench" .); \
	syms() { sed -n 's,^ *[0-9a-f]* T lbsq/internal/,,p' | \
		grep -vE '\.(func|gowrap|deferwrap)[0-9]|\.init(\.[0-9]+)?$$' | \
		sed -E 's/\(\*([^)]*)\)/\1/; s/\[.*\]//' | LC_ALL=C sort -u; }; \
	for b in "$$tmp"/bin/*; do $(GO) tool nm "$$b"; done | syms > "$$tmp/linked"; \
	archives=$$($(GO) list -export -f '{{.Export}}' ./internal/...); \
	for a in $$archives; do $(GO) tool nm "$$a"; done | syms > "$$tmp/all"; \
	LC_ALL=C comm -23 "$$tmp/all" "$$tmp/linked"

unlinked-check:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(MAKE) -s --no-print-directory unlinked > "$$tmp/report"; \
	if awk -F '\t' 'NF != 2 || $$2 == "" { print "unlinked-check: $(UNLINKED_KEEP):" NR ": want symbol<TAB>reason"; bad = 1 } END { exit !bad }' $(UNLINKED_KEEP); then exit 1; fi; \
	cut -f1 $(UNLINKED_KEEP) | LC_ALL=C sort > "$$tmp/kept"; \
	if diff "$$tmp/kept" "$$tmp/report" > "$$tmp/diff"; then \
		echo "unlinked-check: the $$(wc -l < "$$tmp/report") functions no binary links are the ones $(UNLINKED_KEEP) lists"; \
	else \
		echo "unlinked-check: the functions no binary links differ from $(UNLINKED_KEEP)"; \
		echo "  '>' no binary links it and the list does not name it: delete it, or list it with the test that needs it"; \
		echo "  '<' listed, but a binary links it now or it is gone: drop its line"; \
		grep '^[<>]' "$$tmp/diff"; exit 1; \
	fi

# Continuous-query identity lane (DESIGN.md §15): armed run-twice
# determinism for both query kinds, the safe-region
# differential gate, and the safe-exit radii — the capped frame equal to
# the whole clearance bit for bit, and no answer change inside a radius —
# all under the race detector.
# CI runs this as its own verify step so a continuous regression is
# named in the job log instead of buried in the full race run.
continuous-identity:
	$(call run-named,./internal/sim,TestContinuous)
	$(call run-named,./internal/core,TestSafeExit TestQuickSafeExit)

# Trust-screen identity lane (DESIGN.md §11.5): the scratch-based screen
# kernel against the verbatim pre-kernel body, and its claim-coverage
# detection against the retired pair loop, over thousands of screens and
# over the table of cases closed containment could fool (plus their fuzz
# seeds); the quarantine outline against the ledger it is derived from —
# the same point set cut out, the incremental outline equal to the
# brute-force one; that a screen does not depend on what the scratch held
# before;
# and the aliasing contract of the rows (valid until the next screen,
# inputs are never written); the host-indexed ledgers — reputations on
# sparse host ids and the breakers — against the maps they replaced; and
# what the breakers' and the fault injector's calls return, summed, against
# the tallies they kept before Stats became the one tally — under the race
# detector, as its own CI step so a regression is named in the job log.
TRUST_IDENTITY = TestScreenMatchesReference TestCrossValidationCases \
	TestOutlineSubtractsTheSameSet TestDedupByID TestScreenIndependentOfScratchHistory \
	FuzzDetectConflicts FuzzOutline TestScreenRowsValidUntilNextScreen TestScreenDoesNotMutate \
	TestLedgerMatchesReference TestBreakerSetMatchesReference TestInjectorMatchesReference
trust-identity:
	$(call run-named,./internal/trust ./internal/p2p ./internal/faults,$(TRUST_IDENTITY))

# Query-local NNV identity lane (DESIGN.md §9.3): NNV against the verbatim
# gather-all, sort-all, decompose-all body over thousands of grid and
# adversarial inputs, SBNN's on-air merge against the sort-all body, with
# the channel's copy of an ID winning, over random schedules and heaps
# (and its table of hand-built copies), every candidate scan with Bounded
# rows against the same scan with every flag cleared, the contract that no
# result aliases the peers' POI slices it now scans in place, the reach
# cut's committed corpus
# (NNV over the regions the cut keeps against NNV over all of them), the
# symmetry corpora (NNV, SBWQ, the reach cut and the cut kernel under the
# square's eight symmetries, with no reference at all), and the cut
# kernel's committed corpora against its brute-force oracles (DESIGN.md
# §9.2); and, since the reach cut reads the query's collection in place,
# that a reply that does not arrive leaves the collection as it was and
# that every collected query decides as NNV over a brute-force collection
# — under the race detector, as its own CI step.
NNV_IDENTITY = TestNNVMatchesReference TestSBNNMergeMatchesReference TestKnownInsideTable \
	TestBoundedRowsMatchFullScan TestCoreDoesNotRetainPeerSlices FuzzReachCut \
	FuzzNNVSymmetry FuzzSymmetry FuzzRectUnion FuzzLocalClearance FuzzSubtractOne TestCutOneHole
nnv-identity:
	$(call run-named,./internal/core ./internal/geom,$(NNV_IDENTITY))
	$(call run-named,./internal/sim,TestFailedReplyLeavesCollection TestCollectionComplete)

# Warm-start and repair identity lane (DESIGN.md §9.1, §12.3): prefill,
# whose build pass stages each host's regions in its block's buffer and
# copies out only the survivors, against the reference that inserts every
# region with a slice of its own (both query kinds, both policies, a
# capacity that shrinks and evicts), every kept list an exact-size array
# overlapping no other, at 1, 2, 3 and 8 workers with the world stream
# after it; the cache's shrink against the body it replaced; and the IR repair — the
# verdict against a brute-force scan of the report, the kernel cut held to
# its contract (disjoint pieces covering the region less the cut cells,
# each survivor in its first piece) on the named cases, random grid
# inputs and the fuzz corpus, Cache.Reconcile against the loop spelled
# out over the verdict, and the report's removed-ID index against the map
# it replaced; and what a cache keeps (Insert an exact-size copy, Stage the
# caller's slice until Own copies it, a repair its region's own array) —
# under the race detector, as its own CI step.
PREFILL_IDENTITY = TestPrefillMatchesReference TestPrefillWorkersIdentity TestShrinkRegionMatchesReference \
	TestReconcileRegionMatchesReference TestCacheReconcileMatchesReference FuzzReconcileRegion \
	TestInvalSetRemovesMatchesReference TestInsertKeepsExactCopy TestStageAliasesOwnCopies \
	TestReconcileReusesRegionArray
prefill-identity:
	$(call run-named,./internal/sim ./internal/cache,$(PREFILL_IDENTITY))

# run-named runs, under the race detector, the tests of packages $(1)
# whose names match one of the space-separated patterns $(2). It fails
# first when a pattern lists no test or fuzz target in them (go test
# -list): a renamed or deleted test would otherwise leave its lane
# silently, the lane still passing.
empty :=
space := $(empty) $(empty)
define run-named
@for n in $(strip $(2)); do \
	if ! $(GO) test -list "$$n" $(1) | grep -Eq '^(Test|Fuzz)'; then \
		echo "$@: $$n names no test in $(1)"; exit 1; fi; \
done
$(GO) test -race -count=1 -run '$(subst $(space),|,$(strip $(2)))' $(1)
endef

# Residual sweep (ROADMAP item 1(c)): 60 lbsq-sim runs, seeds 12-41 of
# both query kinds, with byzantine liars under audits while POIs churn and
# peers' claims are surgically repaired, every exact answer self-checked.
# Runs that are known to fail are listed in RESIDUAL_KNOWN, one "kind
# seed" per line. The sweep fails when any other run fails, and names a
# listed run that now passes so the list can shrink. Run it whenever a
# change reorders a random draw or regenerates a golden: a failure pinned
# to one seed moves with the draws, and the sweep follows it.
RESIDUAL_KNOWN = internal/sim/testdata/residual_known.txt
RESIDUAL_FLAGS = -set la -side 2 -hours 0.2 -prefill 5 -owncache -selfcheck \
	-byzantine-rate 0.1 -attack mix -audit-rate 0.3 -update-rate 4 -ir-period 20 -ir-window 4
residual-sweep:
	@mkdir -p .residual_build
	$(GO) build -o .residual_build/lbsq-sim ./cmd/lbsq-sim
	@bad=0; for kind in window knn; do for seed in $$(seq 12 41); do \
		if .residual_build/lbsq-sim $(RESIDUAL_FLAGS) -kind $$kind -seed $$seed > /dev/null 2>&1; then \
			if grep -qx "$$kind $$seed" $(RESIDUAL_KNOWN); then \
				echo "residual-sweep: $$kind seed $$seed passes now: drop it from $(RESIDUAL_KNOWN)"; fi; \
		elif grep -qx "$$kind $$seed" $(RESIDUAL_KNOWN); then \
			echo "residual-sweep: $$kind seed $$seed fails (listed)"; \
		else \
			echo "residual-sweep: FAIL: lbsq-sim $(RESIDUAL_FLAGS) -kind $$kind -seed $$seed"; bad=1; \
		fi; \
	done; done; \
	if [ $$bad -eq 0 ]; then echo "residual-sweep: no failure outside $(RESIDUAL_KNOWN)"; fi; exit $$bad

# Chaos soak sweep: randomized fault/churn/resilience schedules with
# metamorphic invariants after every run (see internal/sim/soak_test.go).
# SOAK_SCHEDULES widens the sweep beyond the 20-schedule acceptance
# floor; the nightly CI lane raises it further via the environment.
SOAK_SCHEDULES ?= 32
soak:
	SOAK_SCHEDULES=$(SOAK_SCHEDULES) $(GO) test -run='Soak' -count=1 -v ./internal/sim

# Fault/resilience benchmark grid: one JSON line per cell into
# results/BENCH_faults.json. Sweeps request-loss with and without the
# deadline/breaker/churn knobs so the two degradation curves can be compared.
# Runs in one process through the sweep engine
# (internal/experiments.FaultGrid); rows are seed-deterministic apart
# from wall_seconds. bench-check regenerates the rows into a temp file and
# fails unless they equal the committed ones with wall_seconds zeroed on
# both sides.
BENCH_CMD = $(GO) run ./cmd/lbsq-figures -fig faults -side 2 -hours 0.1
bench:
	@mkdir -p results
	$(BENCH_CMD) > results/BENCH_faults.json
	@echo "bench: wrote results/BENCH_faults.json"

bench-check:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(BENCH_CMD) > "$$tmp/new.json" || exit 1; \
	zero='s/"wall_seconds":[0-9.e+-]*/"wall_seconds":0/'; \
	sed "$$zero" results/BENCH_faults.json > "$$tmp/old.json"; \
	sed -i "$$zero" "$$tmp/new.json"; \
	if cmp "$$tmp/old.json" "$$tmp/new.json"; then \
		echo "bench-check: fault-grid rows match results/BENCH_faults.json"; \
	else \
		echo "bench-check: fault-grid rows differ from results/BENCH_faults.json (make bench regenerates them)"; exit 1; \
	fi

# The end-to-end benchmark (bench/, see BENCHMARK.json) is a module of its
# own, so tier-1 never builds it — yet it drives the exported surface of
# internal/sim, internal/core and internal/geom from outside. Vet it, run
# its tests and one shrunken pass of every workload, so a signature it
# depends on cannot change unnoticed, and compare each workload's
# sim_digest with BENCH_DIGESTS, one "workload digest" line per workload.
# The digests are amd64-exact, like the goldens: a change that moves one on
# purpose regenerates the file in the same diff.
BENCH_DIGESTS = results/bench_quick_digests.txt
bench-e2e-check:
	cd bench && $(GO) vet . && $(GO) test ./...
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	(cd bench && $(GO) run . -quick) > "$$tmp/quick.txt" || exit 1; \
	cat "$$tmp/quick.txt"; \
	awk '/ sim_digest [0-9a-f]+$$/ { sub(/:$$/, "", $$1); print $$1, $$NF }' "$$tmp/quick.txt" > "$$tmp/digests.txt"; \
	if cmp -s $(BENCH_DIGESTS) "$$tmp/digests.txt"; then \
		echo "bench-e2e-check: every sim_digest matches $(BENCH_DIGESTS)"; \
	else \
		echo "bench-e2e-check: sim_digests differ from $(BENCH_DIGESTS)"; \
		echo "committed:"; cat $(BENCH_DIGESTS); echo "this run:"; cat "$$tmp/digests.txt"; exit 1; \
	fi
