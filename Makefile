GO ?= go

DIST_PKGS = ./internal/par/... ./internal/core/... ./internal/sampling/... ./internal/transport/... ./internal/cluster/... ./internal/dkv/... ./internal/store/... ./internal/engine/... ./internal/dist/... ./internal/serve/... ./internal/obs/...

.PHONY: build fmt vet test race bench-dist bench-serve bench-gate check

build:
	$(GO) build ./...

# fmt fails if any file is not gofmt-clean (prints the offenders).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs the distribution-stack packages under the race detector —
# the failure-propagation and seed-parity tests are only meaningful with
# it on (the parity test exercises the pipelined load/compute overlap).
race:
	$(GO) test -race $(DIST_PKGS)

# bench-dist refreshes the BENCH_dist.json perf snapshot.
bench-dist:
	scripts/bench_dist.sh

# bench-serve appends a serving-tier record (qps / p99 / flip latency)
# to the same BENCH_dist.json series.
bench-serve:
	scripts/bench_serve.sh

# bench-gate fails if the latest BENCH_dist.json records regress more than
# BENCH_GATE_THRESHOLD_PCT (default 25%) against the trailing same-cpu median.
bench-gate:
	scripts/bench_gate.sh

check: fmt vet build race test
