GO ?= go

.PHONY: build test lint check bench bench-live perf-gate

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs go vet plus cliclint, the in-tree go/analysis suite that
# enforces the CLIC invariants (see DESIGN.md, "Static analysis &
# invariants" and "Lock hierarchy & concurrency discipline"): clicerr,
# simtime, bufown, metricname, tracestage, lockorder, blockunderlock,
# atomicmix.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/cliclint ./...

# check is the full gate: build, lint, and the test suite under the race
# detector (the live stack runs real goroutines) with the lockcheck
# build tag, so the runtime lock-rank assertions are armed: any
# acquisition that inverts the declared //lockorder: hierarchy panics
# instead of deadlocking some other day. benchmark/ is its own module
# that compiles against internal/..., so `./...` never sees it: vet and
# test it here, and run each engine microbenchmark once so they cannot rot.
# internal/live has a Linux (amd64/arm64) side and a portable side behind
# one seam; the host builds only one of them, so cross-build the other
# (a non-Linux OS, and a Linux without the raw-syscall reader).
# The loss-recovery wire tests and the watchdog's clean-run test assert
# on what a node does NOT send or report within a wall-clock interval,
# so they run twenty more times: a timing dependence shows up here, not
# as a one-in-forty CI failure.
check: build lint
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=386 $(GO) build ./internal/live/
	$(GO) test -race -tags lockcheck ./...
	$(GO) test -race -tags lockcheck -run 'Nack|FastRetransmit|UnknownType|WatchdogCleanRun' -count=20 ./internal/live/
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/sim

bench:
	$(GO) run ./cmd/clicbench all

# bench-live measures the real loopback datapath — the single-pair
# sweep (E15) and the many-peer fan-in sweep (E18) — and appends
# labeled entries to BENCH_live.json. The 0-alloc guards run first
# (including the sharded steady state): a steady-state allocation
# regression fails the target before it can skew the throughput
# numbers.
LIVE_LABEL ?= local
bench-live:
	$(GO) test -count=1 -run 'TestSteadyState' ./internal/live/
	$(GO) run ./cmd/clicbench -live-out BENCH_live.json -live-label "$(LIVE_LABEL)" live
	$(GO) run ./cmd/clicbench -live-out BENCH_live.json -live-label "$(LIVE_LABEL)" fanin

# perf-gate is the local twin of CI's perf-gate job: seed a baseline on
# this machine (median of 3 runs, MAD noise bands), re-measure and
# check against it, then prove the gate actually fires by injecting a
# 20% throughput regression that must exit non-zero. Use
# `clicbench -seed-baseline bench/baseline.json -runs 5 live` to
# refresh the committed baseline instead.
perf-gate:
	$(GO) test -count=1 ./internal/perfreg/
	$(GO) run ./cmd/clicbench -seed-baseline .perfgate-baseline.json -runs 3 live
	$(GO) run ./cmd/clicbench -baseline .perfgate-baseline.json -check live
	@if $(GO) run ./cmd/clicbench -baseline .perfgate-baseline.json -check -canary 0.8 live >/dev/null; then \
		echo "perf-gate: injected canary regression was NOT caught"; \
		rm -f .perfgate-baseline.json; exit 1; \
	else \
		echo "perf-gate: canary regression correctly tripped the gate"; \
	fi
	@rm -f .perfgate-baseline.json
	$(GO) run ./cmd/clicbench -seed-baseline .perfgate-fanin.json -runs 3 fanin
	$(GO) run ./cmd/clicbench -baseline .perfgate-fanin.json -check fanin
	@rm -f .perfgate-fanin.json
