# Convenience wrappers around dune; `make verify` is the full
# correctness gate: build, the whole test suite (which includes the
# @verify alias below), then an explicit verified O4 compile +
# differential run of the Fig. 1 dot product on each paper machine.

MCC = dune exec bin/mcc.exe --

.PHONY: all build test verify bench bench-json bench-validate bench-e2e \
  estimate triage profile alias-report sched-report tvalid-report \
  serve-bench clean

all: build

build:
	dune build

test: build
	dune runtest

verify: build
	dune runtest
	$(MCC) --bench dotproduct -O O4 --machine alpha --verify
	$(MCC) --bench dotproduct -O O4 --machine mc88100 --verify
	$(MCC) --bench dotproduct -O O4 --machine mc68030 --verify

bench: build
	dune exec bench/main.exe

# Quick sweep that writes and self-validates BENCH_sim.json (the harness
# refuses to write a document that fails its independent re-parse).
bench-json: build
	MAC_QUICK=1 dune exec bench/main.exe

# The repo's end-to-end benchmark: exactly the BENCHMARK.json command
# for one workload and seed (see bench/e2e/README.md), e.g.
# `make bench-e2e W=paper-sweep SEED=1`. RUN_SECONDS defaults to the
# manifest's run_seconds.
W ?= paper-sweep
SEED ?= 1
RUN_SECONDS ?= 20

bench-e2e: build
	dune exec -- bench/e2e/bench.exe --workload $(W) --seed $(SEED) \
	  --seconds $(RUN_SECONDS)

# One gate for all three bench artifacts: re-validate whichever of
# BENCH_sim.json / BENCH_est.json / BENCH_serve.json exist with the
# same independent parsers the emitting harnesses use (dispatched on
# each document's own schema field). MAC_TVALID_BUDGET=<seconds> or
# MAC_TVALID_MAX_RATIO=<fraction> additionally gates the sim sweep's
# total translation-validation time — the CI regression tripwire for
# the incremental validator.
bench-validate: build
	dune exec bench/validate.exe

# The static-estimation sweep: predict every paper-table cell without
# simulating, pin each prediction against the simulator, and write the
# schema-validated BENCH_est.json (the harness exits non-zero when the
# median cycle error exceeds the documented tolerance).
estimate: build
	dune exec bench/estimate.exe -- --size 48

# The payoff mode: rank cells by predicted coalescing benefit and only
# simulate the interesting half.
triage: build
	dune exec bench/estimate.exe -- --size 48 --triage

# Load-test the mccd compile daemon: fork it with a fresh cache, replay
# a duplicate-heavy burst from several client processes, and write the
# schema-validated BENCH_serve.json (the harness exits non-zero unless
# cache hits are byte-identical to the cold compile and the hit-path p50
# latency beats the miss path by the documented factor).
serve-bench: build
	dune exec bench/serve.exe

# Where compile time goes: the Table II sweep in the paper's measurement
# configuration, with the per-pass wall-clock breakdown.
profile: build
	$(MCC) --table --force --machine alpha --size 64 --profile-passes

# The eight benchmarks (`--bench`) the report loops below walk.
BENCHES = dotproduct convolution image_add image_add16 image_xor \
  translate eqntott mirror

# What the static disambiguation oracle proved: per benchmark, the
# guards emitted vs discharged (with their certificates), under the
# asserted layout facts, with the audit re-verifying every certificate.
alias-report: build
	@for b in $(BENCHES); do \
	  echo "== $$b"; \
	  $(MCC) --bench $$b -O O4 --machine alpha --force --assume-layout \
	    --explain-alias --verify-level full || exit 1; \
	done

# What the software pipeliner did: per benchmark, every loop's MII /
# achieved II / stage count and commit status, with the schedule audit
# re-verifying every certificate (--verify-level full).
sched-report: build
	@for b in $(BENCHES); do \
	  echo "== $$b"; \
	  $(MCC) --bench $$b -O O4 --machine mc88100 --force \
	    --explain-sched --verify-level full || exit 1; \
	done

# What the translation validator proved: per benchmark, a forced-O4
# compile with every pass validated (--explain-tvalid implies
# --verify-level full) and the per-pass counters — validations run,
# block pairs checked vs skipped (generic-transfer equality), loop
# regions carved, audited fallbacks with reasons, time.
tvalid-report: build
	@for b in $(BENCHES); do \
	  echo "== $$b"; \
	  $(MCC) --bench $$b -O O4 --machine alpha --force --assume-layout \
	    --explain-tvalid || exit 1; \
	done

clean:
	dune clean
