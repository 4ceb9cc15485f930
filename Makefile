GO ?= go

.PHONY: all build vet lint test fuzz bench-real bench-compare bench-pairs binaries verify clean

all: verify

## build: compile every package
build:
	$(GO) build ./...

## vet: static analysis (part of the tier-1 flow)
vet:
	$(GO) vet ./...

## lint: gofmt -l + go vet, the same as verify's lint leg; exits non-zero
## on any unformatted file or vet finding (the lock and cancellation
## contracts are tests: README "Invariants & contract tests")
lint: vet
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed:"; echo "$$out"; exit 1; fi

## test: full test suite, including the paper-figure goldens
## (internal/experiments/testdata; UPDATE_GOLDEN=1 rewrites them)
test:
	$(GO) test ./...

## fuzz: native fuzzing from the committed seed corpora (testdata/fuzz) —
## scripts/fuzz.sh, the one list of targets and times (verify runs it too):
## no panic, allocation bounded by the input, decode(encode(x)) == x
fuzz:
	sh scripts/fuzz.sh

## bench-real: the real-cost benchmark (benchmark/README.md) — four
## workloads, end to end and layer by layer, ~3.5 min; every number lands
## in $(OUT)
OUT ?= .bench_build/bench.json
bench-real:
	@mkdir -p $(dir $(OUT))
	$(GO) run ./benchmark -out $(OUT)

## bench-compare: judge bench-real run B against run A (exit 1 on any
## "worse"): make bench-compare A=before.json B=after.json
bench-compare:
	$(GO) run ./benchmark -compare $(A) $(B)

## bench-pairs: N alternating runs of one workload from two checkouts, every
## pair, medians, quartiles and wins/losses per end-to-end metric:
## make bench-pairs PARENT=/root/scratch/parent WORKLOAD=diag-heavy [N=10 SECONDS=10 CHANGE=.]
CHANGE ?= .
N ?= 10
SECONDS ?= 10
bench-pairs:
	scripts/bench-pairs.sh $(PARENT) $(CHANGE) $(WORKLOAD) $(N) $(SECONDS)

## binaries: every cmd/ tool and examples/ program must compile
binaries:
	@mkdir -p bin
	$(GO) build -o bin/ ./cmd/...
	@set -e; for d in examples/*/; do \
		echo "build $$d"; \
		$(GO) build -o /dev/null "./$$d"; \
	done

## verify: the tier-1 gate, scripts/verify.sh — build, lint (gofmt + vet),
## test, race (the contract tests three times), the fuzz leg, binary compile
## checks and the spd trio / trace / metrics / bootstrap smokes
verify:
	sh scripts/verify.sh

clean:
	rm -rf bin
	$(GO) clean -testcache
