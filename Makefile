GO ?= go

.PHONY: all build vet lint test fuzz bench-real bench-compare bench-pairs binaries verify clean

all: verify

## build: compile every package
build:
	$(GO) build ./...

## vet: static analysis (part of the tier-1 flow)
vet:
	$(GO) vet ./...

## lint: gofmt + go vet + the splint invariant suite (detlint, sortlint,
## locklint, ctxlint — see README "Invariants & static analysis"); exits
## non-zero on any unformatted file or splint finding
lint: vet
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed:"; echo "$$out"; exit 1; fi
	$(GO) run ./cmd/splint ./...

## test: full test suite, including the paper-figure goldens
## (internal/experiments/testdata; UPDATE_GOLDEN=1 rewrites them)
test:
	$(GO) test ./...

## fuzz: 10 s of native fuzzing over the segment decoder (seed corpus in
## internal/store/testdata/fuzz) — no panic, allocation bounded by the
## input, decode(encode(x)) == x
fuzz:
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzDecodeSegment -fuzztime 10s

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

## verify: the tier-1 gate, scripts/verify.sh — build, lint (gofmt + vet +
## splint), test, race, the fuzz leg, binary compile checks and the spd
## trio / trace / metrics / bootstrap smokes
verify:
	sh scripts/verify.sh

clean:
	rm -rf bin
	$(GO) clean -testcache
