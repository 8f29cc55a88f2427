# Convenience wrappers around dune; `make verify` is the full
# correctness gate: build, the whole test suite (which includes the
# @verify alias below), then an explicit verified O4 compile +
# differential run of the Fig. 1 dot product on each paper machine.

MCC = dune exec bin/mcc.exe --

.PHONY: all build test verify bench bench-e2e triage explain clean

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

# The paper printer: every FIG/TAB/SCHED/PREH/ABL/FULL section
# (MAC_QUICK=1 for 64x64 images instead of the paper's 500x500).
bench: build
	dune exec bench/main.exe

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

# The static estimator's payoff mode: rank cells by predicted
# coalescing benefit and only simulate the interesting half.
triage: build
	$(MCC) --triage --size 48

# The eight benchmarks (`--bench`) the explain loop walks.
BENCHES = dotproduct convolution image_add image_add16 image_xor \
  translate eqntott mirror

# What coalescing did to every benchmark, audited (`mcc --explain`):
# - alpha, under the asserted layout facts: the guards emitted vs
#   discharged with their certificates (alias) and the per-pass
#   translation validation counters and fallbacks (tvalid);
# - mc88100: every loop's MII / achieved II / stage count and commit
#   status from the software pipeliner (sched);
# then the Table II sweep in the paper's measurement configuration
# with the per-pass compile-time breakdown (passes). The per-benchmark
# compiles run at --verify-level full, so a rejected certificate or
# validation fails the target.
explain: build
	@for b in $(BENCHES); do \
	  echo "== $$b"; \
	  $(MCC) --bench $$b -O O4 --machine alpha --force --assume-layout \
	    --verify-level full --explain=alias,tvalid || exit 1; \
	  $(MCC) --bench $$b -O O4 --machine mc88100 --force \
	    --verify-level full --explain=sched || exit 1; \
	done
	$(MCC) --table --force --machine alpha --size 64 --explain=passes

clean:
	dune clean
