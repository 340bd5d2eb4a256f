GO ?= go

.PHONY: build test lint check bench

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
# the direct-call rung tests hand the socket's reader role between
# goroutines, the piggy-backed ack scripts assert that no ack
# datagram is sent, the per-burst bookkeeping tests assert the
# order of a mid-burst flush, ack and wait, the ack-join and
# ack-request scripts assert which acks a burst sends and which it
# leaves owed, the RTO-repair scripts assert that an expiry sends the
# head and the newest frame and nothing else until the next, the
# expiry-class scripts assert which expiry is a probe and which backs
# off (a stream that never asks is released by one probe a message),
# the confirmation tests assert that SendConfirm returns on the ack of its
# frame, over a script and over a lossy pair, and the fault-stage test
# asserts that a lossy pair still writes superframes and accounts for
# every datagram, so they run twenty more
# times: a timing dependence or a lost hand-over shows up here, not as
# a one-in-forty CI failure.
check: build lint
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=386 $(GO) build ./internal/live/
	$(GO) test -race -tags lockcheck ./...
	$(GO) test -race -tags lockcheck -run 'Nack|FastRetransmit|UnknownType|WatchdogCleanRun|DirectRung|Piggyback|FirstWindowAcked|SendBurst|AckSample|AckReordered|AckRequest|UnaskedAck|UnaskedStreamReleasedByProbe|RTORepair|RTOExpiryClasses|SendConfirm|FaultsKeepTheBatch' -count=20 ./internal/live/
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/sim

bench:
	$(GO) run ./cmd/clicbench all
