GO ?= go

.PHONY: all build vet test race bench bench-parallel bench-parallel-quick bench-wire bench-wire-quick fuzz

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Every end-to-end scenario (two-tenant chaos, trace partition, cluster
# failover, instrument wedge, DAG equivalence and crash-resume, the
# mixed microscopy facility) is an ordinary go test: test and race run
# them all.
race:
	$(GO) test -race -shuffle=on ./...

# Full benchmark sweep (figures + ablations + parallelism).
bench:
	$(GO) test -bench=. -benchmem .

# Regenerate BENCH_parallel.json — the fleet/pipelining/ML parallelism record.
bench-parallel:
	$(GO) run ./cmd/benchparallel -o BENCH_parallel.json

# Fast variant for CI smoke: small transfers, single repetitions.
bench-parallel-quick:
	$(GO) run ./cmd/benchparallel -quick -o BENCH_parallel.json

# Regenerate BENCH_wire.json — the v1-vs-v2 framing and streaming-
# analysis record. The thresholds double as the regression gate: v2
# must carry at least 2x the RPC throughput of v1 over the saturated
# control link, and the streamed verdict must land within 10% of the
# acquisition window after instrument release.
bench-wire:
	$(GO) run ./cmd/benchparallel -o '' -wire-o BENCH_wire.json -min-wire-speedup 2 -max-stream-lag 0.1

# Fast variant for CI smoke, with looser thresholds for noisy runners.
bench-wire-quick:
	$(GO) run ./cmd/benchparallel -quick -o '' -wire-o BENCH_wire.json -min-wire-speedup 1.5 -max-stream-lag 0.25

fuzz:
	for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' "$$pkg" | grep '^Fuzz' || true); do \
			$(GO) test -run "^$$target$$" -fuzz "^$$target$$" -fuzztime=10s "$$pkg" || exit 1; \
		done; \
	done
