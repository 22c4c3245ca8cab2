# Development targets. `make ci` is the gate every change must pass:
# gofmt, vet, build, the full test suite under the race detector, a
# stress pass over the concurrent serving, metrics, store and parallel
# enumeration paths, a short fuzz run of the filter-soundness invariant,
# and a one-iteration benchmark smoke pass to catch bit-rotted bench
# code.

GO ?= go

.PHONY: ci fmt vet build test race race-stress isolated fuzz-smoke bench-smoke bench-json bench-parallel bench-preprocess bench-sched bench-serve bench-obs bench-kernels bench-batch bench-store

ci: fmt vet build race race-stress isolated fuzz-smoke bench-smoke

# Every .go file is gofmt-clean; the offenders are printed.
fmt:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt -l . lists:" >&2; echo "$$out" >&2; exit 1; }

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Under the race detector: the serving layer's 100-goroutine
# concurrent-Submit stress over shared cached plans, plus the metrics
# registry's concurrent counter/gauge/histogram hammering. Any
# cross-worker state leak trips -race here. The store stress churns
# register/replace/unregister through the durable manager (and the
# HTTP surface) and verifies a restart reconstructs the exact state.
# The graph stress is the concurrent first use of the lazily built NLF
# index (8 goroutines racing into one sync.Once). The core cap test
# (TestParallelCapExactUnderContention) races 1–8 workers to a cap that
# lands inside leaf runs, with and without a sink whose calls must never
# overlap; the donation stress (TestStressDonation) repeats 8-worker runs
# whose running searches feed sleeping workers donated prefixes, under a
# static GQL order and under the DP-iso preset, whose tasks re-derive
# the adaptive pool from their prefixes; the
# plan-engine stress (TestStressPlanEngines) sends mixed sequential,
# parallel and cancelled requests from 8 goroutines to one plan, whose
# free list hands each run its engines and takes them back; the
# cold-scratch stress (TestStressColdScratch) builds GraphQL, CFL and
# DP-iso plans from 8 goroutines against two data graphs, whose free
# lists hand every filter and candidate-space build its bitmaps and
# row buffers and take them back clear.
race-stress:
	$(GO) test -race -run 'Stress|CapExactUnderContention' -count 1 ./internal/graph ./internal/core ./internal/service ./internal/obs ./internal/obs/flight ./internal/store ./cmd/smatchd

# The tests that read the runtime's own counters (allocation budgets,
# the /metrics runtime families), each alone in its process, five times:
# in a package run they share a heap with the tests before them, whose
# garbage collections can hide a test that needs one, or an allocation
# a test should not count.
ISOLATED_PKGS = ./internal/graph ./internal/service ./internal/core ./internal/enumerate ./cmd/smatchd

isolated:
	@set -e; for p in $(ISOLATED_PKGS); do \
	  tests=$$($(GO) test -list 'Alloc|RuntimeFamilies' $$p); \
	  for t in $$(echo "$$tests" | grep '^Test'); do \
	    echo "isolated: $$p $$t" >&2; $(GO) test -run "^$$t\$$" -count 5 $$p; \
	  done; \
	done

# Short corpus-plus-mutation runs of the fuzz targets: filter soundness
# (candidate sets never drop a ground-truth embedding vertex), GraphQL's
# per-label-class matching test (the same verdict as one matching over
# all of N(u), for every (u, v) in every refinement state, resumed from
# the witnesses the rounds recorded, below and above 64 labels),
# intersection-kernel equivalence (every kernel — merge, gallop, hybrid,
# block over flat views, every selector policy — produces identical
# output), and
# batch grouping (SubmitBatch over arbitrary item mixes stays index-
# aligned, isolates per-item failures, matches sequential embeddings,
# and builds exactly one plan per group), and snapshot round-trip
# (Decode of arbitrary bytes never panics, fails typed, or yields the
# fingerprint-verified graph; valid snapshots round-trip exactly), and
# profile rendering (Render/Chrome export never panic on arbitrary
# span trees and always emit parseable output), and donation (a search
# that hands the rest of its shallowest open level to an idle worker,
# whether each offer is taken or refused, enumerates with the tasks it
# donated exactly the sequential embedding multiset, for every local
# method, failing sets, adaptive order and VF2++; 10 s, as it is the one
# target that drives DP-iso's pool, re-derived from each task's prefix,
# through donated prefixes at every depth), and the NDJSON wire format
# (the delta line encoder reads, after every step of a sequence of
# mappings, exactly what encoding/json writes; so does the stream after
# every run through the run sink, whose lines past the first are spliced),
# and the text parsers (Parse and ParseEdgeList — the tokenizer that
# cuts every buffered line at once and reads each field's value in the
# pass that splits it — return the graph or the error text of verbatim
# copies of their pre-tokenizer versions; 10 s), and Parse's round trip
# through Write, and the NLF index's label runs and counts (each run —
# laid out by the counting scatter over dense label ranks — is N(v)
# filtered by label and each Count its length, on label alphabets below
# and above 64 and on sparse labels near 2³², and CoveredBy and nlfOK
# are the counting reference),
# and the candidate space (every list is the ascending positions in
# C(u′) of N(v) ∩ C(u′) and every block view decodes to its list, for
# the full and the tree variant; built along a random order, every kept
# pair is the full build's, no other pair exists), and
# the differential oracle (every preset and any legal configuration
# tuple, fresh and over a cached plan, at 1 and 4 workers, through every
# sink form, capped and uncapped, returns the brute-force embedding
# multiset; its seeds start with the four counted-tail rows after the
# 65-vertex path — a tail with a same-label pair, counted at caps 1 and
# 7 and by 4 uncapped workers; one under homomorphism; one under failing
# sets that counts 0; one a third same-label vertex cuts short, so the
# loop runs over it).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzFilterSoundness -fuzztime 5s ./internal/filter
	$(GO) test -run '^$$' -fuzz FuzzSemiPerfectClasses -fuzztime 5s ./internal/filter
	$(GO) test -run '^$$' -fuzz FuzzNLFLabelRuns -fuzztime 5s ./internal/filter
	$(GO) test -run '^$$' -fuzz FuzzDonation -fuzztime 10s ./internal/enumerate
	$(GO) test -run '^$$' -fuzz FuzzIntersectKernels -fuzztime 5s ./internal/intersect
	$(GO) test -run '^$$' -fuzz FuzzBatchGrouping -fuzztime 5s ./internal/service
	$(GO) test -run '^$$' -fuzz FuzzSnapshotRoundTrip -fuzztime 5s ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzProfileRender -fuzztime 5s ./internal/obs/flight
	$(GO) test -run '^$$' -fuzz FuzzLineEncoder -fuzztime 5s ./cmd/smatchd
	$(GO) test -run '^$$' -fuzz FuzzRunSink -fuzztime 5s ./cmd/smatchd
	$(GO) test -run '^$$' -fuzz FuzzQueryMemo -fuzztime 5s ./cmd/smatchd
	$(GO) test -run '^$$' -fuzz FuzzParseMatchesReference -fuzztime 10s ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s ./internal/graph
	$(GO) test -run '^$$' -fuzz FuzzBuildPositions -fuzztime 5s ./internal/candspace
	$(GO) test -run '^$$' -fuzz FuzzDifferential -fuzztime 10s ./internal/core

bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The committed performance trajectory (ROADMAP aim 1):
# `make bench-json PR=13` runs the repository benchmark (BENCHMARK.json,
# cmd/smatchbench) once per workload and saves each run's final JSON
# line — correct/attempted/failed and the end-to-end metrics — with the
# commit, toolchain and GOMAXPROCS as BENCH_13.json at the repo root.
# A failed run (exit status non-zero) leaves no file. Full per-run
# output stays in .bench_build/bench-json-<workload>.log.
BENCH_WORKLOADS = serve-warm serve-cold enum-heavy stream-embeddings

bench-json:
	@test -n "$(PR)" || { echo "usage: make bench-json PR=<n>" >&2; exit 2; }
	@set -e; mkdir -p .bench_build; \
	sha=$$(git rev-parse HEAD 2>/dev/null || echo unknown); \
	git diff --quiet HEAD 2>/dev/null || sha=$$sha-dirty; \
	{ printf '{"pr":"%s","git_sha":"%s","go_version":"%s","gomaxprocs":%s,"workloads":{' \
	    "$(PR)" "$$sha" "$$($(GO) env GOVERSION)" "$${GOMAXPROCS:-$$(nproc)}"; \
	  sep=; for w in $(BENCH_WORKLOADS); do \
	    echo "bench-json: $$w" >&2; \
	    $(GO) run ./cmd/smatchbench -workload $$w > .bench_build/bench-json-$$w.log; \
	    printf '%s\n"%s":%s' "$$sep" "$$w" "$$(tail -n 1 .bench_build/bench-json-$$w.log)"; sep=,; \
	  done; printf '\n}}\n'; } > .bench_build/BENCH_$(PR).json; \
	mv .bench_build/BENCH_$(PR).json BENCH_$(PR).json; echo "bench-json: wrote BENCH_$(PR).json" >&2

# The parallel-scaling measurement behind EXPERIMENTS.md's
# "Parallel scaling" section: the sequential engine and the parallel
# runner at 4/8 workers (steal-*) on the skew fixture, against the
# strided-* rows of the benchmark's own static-stride comparator
# (bench_test.go stridedNodes — not a core code path), reporting
# proj-speedup; plus the fresh-vs-reused engine allocation pair.
bench-parallel:
	$(GO) test -run '^$$' -bench BenchmarkParallelSkew -benchmem -benchtime 5x .

# The preprocessing measurement behind EXPERIMENTS.md's "Preprocessing
# phases" section: every phase on the request's goroutine (ns/op,
# allocs/op); and BenchmarkPreprocessColdMix, serve-cold's plan mix
# in-process (ns, B, allocs and the per-stage split per plan), behind
# "Cold path II"; and BenchmarkNLFIndex, the build time and bytes of the
# g20 graph's NLF index, which the first filter against a registered
# graph pays (behind "Cold path III").
bench-preprocess:
	$(GO) test -run '^$$' -bench 'BenchmarkPreprocess|BenchmarkNLFIndex' -benchmem -benchtime 5x .

# The scheduler measurement behind EXPERIMENTS.md's "Donation" section:
# the parallel runner at 1/2/4/8 workers on the skew fixture, reporting
# proj-speedup and the tasks running searches donated.
bench-sched:
	$(GO) test -run '^$$' -bench BenchmarkSplitSkew -benchmem -benchtime 5x .

# The repeated-query serving measurement behind EXPERIMENTS.md's
# "Serving" section: cold (uncached) vs warm (plan-cache hit) Submit.
bench-serve:
	$(GO) test -run '^$$' -bench 'BenchmarkServe' -benchmem -benchtime 2s ./internal/service

# The batched-serving measurement behind EXPERIMENTS.md's "Batching"
# section: per-item cost of SubmitBatch at sizes 1/8/64 against the
# sequential warm baseline.
bench-batch:
	$(GO) test -run '^$$' -bench 'BenchmarkServeWarm|BenchmarkBatchSubmit' -benchmem -benchtime 2s ./internal/service

# The instrumentation-overhead measurements behind EXPERIMENTS.md's
# "Instrumentation overhead" and "Profile overhead" sections: span
# tracing off vs on, and EXPLAIN/ANALYZE profiling off vs on, over the
# skew workload, sequential and parallel.
bench-obs:
	$(GO) test -run '^$$' -bench 'BenchmarkObsOverhead|BenchmarkProfileOverhead' -benchmem -benchtime 5x .

# The durable-store measurements behind EXPERIMENTS.md's "Restart"
# section: snapshot encode/decode throughput, the full file-open path
# (copy vs mmap vs the text loader it replaces), and the cost of the
# optional full-fingerprint verification.
bench-store:
	$(GO) test -run '^$$' -bench 'BenchmarkSnapshot|BenchmarkFingerprintVerify' -benchmem -benchtime 2s ./internal/store

# The intersection-kernel measurements behind EXPERIMENTS.md's
# "Adaptive kernels" section: the raw kernel grid over the
# density/skew fixtures, end-to-end enumeration under each kernel
# policy, and the flat block-layout footprint.
bench-kernels:
	$(GO) test -run '^$$' -bench 'BenchmarkIntersectKernels|BenchmarkEnumerateKernelPolicy|BenchmarkCandSpaceBlockLayout' -benchmem .
