//go:build !race

package live

import (
	"runtime/debug"
	"testing"

	"repro/internal/perfreg"
)

// The alloc guards pin the tentpole's core claim — steady-state TX and
// RX are allocation-free — with testing.AllocsPerRun, so a regression
// fails `go test` instead of quietly eroding the datapath. They are
// excluded under -race (the detector instruments allocations) and run
// with the GC disabled: sync.Pool drops its victim cache on every GC
// cycle, which would charge the guard for refills the steady state
// never pays.

// TestSteadyStateSendZeroAlloc drives the full transport — fragment,
// encode, pool, window, socket burst, receive burst, resequence, ack,
// ack processing, release — and asserts zero allocations per message.
// The destination port queue is pre-filled so delivery takes the
// drop-before-copy path: the one allocation the API owes (the
// delivered Message.Data copy) is excluded, everything the transport
// itself does is measured.
func TestSteadyStateSendZeroAlloc(t *testing.T) {
	a, b := wbPair(t, DefaultConfig())
	const port = 20
	payload := wbPattern(1024) // single fragment at MTU 1500

	fill := b.portChan(port)
	for len(fill) < cap(fill) {
		if err := a.Send(1, port, payload); err != nil {
			t.Fatal(err)
		}
	}
	// Warm every resident structure (pool, stage, ack scratch, timers).
	for i := 0; i < 128; i++ {
		if err := a.Send(1, port, payload); err != nil {
			t.Fatal(err)
		}
	}
	streamQuiesce(t, a, 1)

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	avg := testing.AllocsPerRun(200, func() {
		if err := a.Send(1, port, payload); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state send allocates %.2f allocs/msg; the 0-copy datapath regressed", avg)
	}
}

// TestSteadyStateRoundTripZeroAlloc measures a complete 0-byte
// round trip through Send and Recv — the paper's C6 ping-pong shape.
// A zero-length message makes the delivery copy itself free, so this
// guard covers the receive API path the send guard deliberately
// bypasses, and with it the direct-call rung: the goroutine in Recv
// reads the socket and runs the protocol itself.
func TestSteadyStateRoundTripZeroAlloc(t *testing.T) {
	a, b := wbPair(t, DefaultConfig())
	const port = 21
	for i := 0; i < 64; i++ {
		if err := a.Send(1, port, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Recv(port); err != nil {
			t.Fatal(err)
		}
	}
	streamQuiesce(t, a, 1)

	direct0 := directBursts(b)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	avg := testing.AllocsPerRun(200, func() {
		if err := a.Send(1, port, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Recv(port); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state round trip allocates %.2f allocs; the 0-copy datapath regressed", avg)
	}
	if directBursts(b) == direct0 {
		t.Error("no Recv call read the socket itself: the direct path went unmeasured")
	}
}

// TestSteadyStateShardedSendZeroAlloc repeats the send guard on a
// multi-shard receiver with flow control active: REUSEPORT sharding,
// the per-peer in-flight cap, credit absorption from every ack, and
// the pacer bookkeeping must all stay off the allocator once warm. A
// regression here means the many-peer machinery put an allocation on
// the single-peer hot path.
func TestSteadyStateShardedSendZeroAlloc(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 2
	cfg.PeerInFlight = cfg.Window
	a, b := wbPair(t, cfg)
	if b.Shards() < 2 {
		t.Skipf("sharding unsupported on this platform (%d shard)", b.Shards())
	}
	const port = 23
	payload := wbPattern(1024)

	fill := b.portChan(port)
	for len(fill) < cap(fill) {
		if err := a.Send(1, port, payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 128; i++ {
		if err := a.Send(1, port, payload); err != nil {
			t.Fatal(err)
		}
	}
	streamQuiesce(t, a, 1)

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	avg := testing.AllocsPerRun(200, func() {
		if err := a.Send(1, port, payload); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("sharded steady-state send allocates %.2f allocs/msg; flow control or sharding regressed the 0-copy path", avg)
	}
}

// TestProfilingGateDisabledZeroAlloc pins the cost contract of the
// perfreg stage labels: with profiling disabled (the default), the
// pprof.Do wrappers on send, flushTx, dispatch, and the timer
// callbacks must reduce to a single atomic load — no context, label
// set, or closure allocation on the hot path. If a future change
// hoists the closure construction out of the Enabled() branch, this
// guard catches the new allocations even when the other guards'
// payloads happen to mask them.
func TestProfilingGateDisabledZeroAlloc(t *testing.T) {
	if perfreg.Enabled() {
		t.Fatal("perfreg profiling is armed inside the test binary; a test forgot to Disable")
	}
	a, b := wbPair(t, DefaultConfig())
	const port = 22
	payload := wbPattern(4096) // multi-fragment: exercises flushTx bursts too
	for i := 0; i < 64; i++ {
		if err := a.Send(1, port, payload); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Recv(port); err != nil {
			t.Fatal(err)
		}
	}
	streamQuiesce(t, a, 1)

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	avg := testing.AllocsPerRun(200, func() {
		if err := a.Send(1, port, payload); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Recv(port); err != nil {
			t.Fatal(err)
		}
	})
	// One allocation per run is the delivered Message.Data copy the
	// Recv API owes; the labelled transport itself must add zero.
	if avg > 1 {
		t.Fatalf("labelled hot path with profiling disabled allocates %.2f allocs/round (want <= 1, the delivery copy); the Enabled() gate leaks", avg)
	}
}

// TestCleanStreamNoRecovery pins the other half of "the clean fast path
// pays one compare": on a loss-free stream no hole ever outlives a
// burst — the sender writes in order and loopback keeps the order — so
// not one NACK is sent and not one frame fast-retransmitted. It lives
// with the alloc guards because 5 000 x 64 KiB is seconds without the
// race detector and half a minute with it.
func TestCleanStreamNoRecovery(t *testing.T) {
	const (
		msgs = 5000
		port = 24
	)
	a, b := streamPair(t, msgs)
	errs := make(chan error, 1)
	go func() {
		payload := wbPattern(64 << 10)
		for i := 0; i < msgs; i++ {
			if err := a.Send(1, port, payload); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	drain(t, a, b, port, msgs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	for _, n := range []*Node{a, b} {
		if nacks, fast := n.nacksSent.Value(), n.fastRetransmits.Value(); nacks != 0 || fast != 0 {
			t.Errorf("node %d: %d NACKs sent, %d fast retransmits on a clean stream, want 0 and 0", n.ID, nacks, fast)
		}
	}
}
