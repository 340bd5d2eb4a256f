package live

import (
	"errors"
	"sort"
	"testing"
	"time"
)

// The direct-call rung: on a single-socket node a goroutine blocked in
// Recv reads the socket and runs the protocol itself. These tests pin
// its contract — it is taken on sparse traffic, the socket never sits
// unread behind a departed reader, rxLoop keeps acking for an
// application that stops reading, and Close reaches a direct reader.

// echoLoop answers k messages on port with empty replies, stopping
// early if Recv fails.
func echoLoop(n *Node, peer int, port uint16, k int) {
	for i := 0; i < k; i++ {
		if _, err := n.Recv(port); err != nil {
			return
		}
		if err := n.Send(peer, port, nil); err != nil {
			return
		}
	}
}

// directBursts sums n's shards' direct-rung burst counters
// (live_rx_direct_bursts_total across its shard series).
func directBursts(n *Node) int64 {
	var sum int64
	for _, s := range n.shards {
		sum += s.direct.Value()
	}
	return sum
}

// rungTimed reports whether a mean round trip of rtt leaves the rung's
// timing claims testable: they assume the application re-enters Recv
// well within rxTakeover. Under -tags lockcheck every lock acquisition
// captures a stack trace and a round trip takes about a millisecond, so
// by design rxLoop reads most messages; the tests then check only what
// must hold at any speed, with the rank assertions armed.
func rungTimed(t *testing.T, rtt time.Duration) bool {
	if rtt < rxTakeover/4 {
		return true
	}
	t.Logf("mean round trip %v is not well under rxTakeover (%v): timing assertions skipped", rtt, rxTakeover)
	return false
}

// pingPong runs k depth-1 round trips from a to the echo on b and
// returns their mean duration.
func pingPong(t *testing.T, a *Node, port uint16, k int) time.Duration {
	t.Helper()
	t0 := time.Now()
	for i := 0; i < k; i++ {
		if err := a.Send(1, port, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Recv(port); err != nil {
			t.Fatal(err)
		}
	}
	return time.Since(t0) / time.Duration(k)
}

// TestDirectRungPingPongTakesMessagesDirectly: with one Recv caller per
// node, every message after warm-up is read by the goroutine waiting
// for it — one direct burst per message and no port-queue hand-off. A
// hand-off happens only when rxLoop took the socket back, i.e. a Recv
// caller stayed away for a whole rxTakeover; on a loaded test host the
// scheduler can do that to a goroutine now and then, hence the small
// allowance. Every message must arrive at any speed.
func TestDirectRungPingPongTakesMessagesDirectly(t *testing.T) {
	const (
		port   = 50
		rounds = 1000
	)
	a, b := wbPair(t, DefaultConfig())
	go echoLoop(b, 0, port, 200+rounds)
	rtt := pingPong(t, a, port, 200)

	hand0 := a.rxHandoffs.Value() + b.rxHandoffs.Value()
	direct0 := directBursts(a) + directBursts(b)
	pingPong(t, a, port, rounds)
	hand := a.rxHandoffs.Value() + b.rxHandoffs.Value() - hand0
	direct := directBursts(a) + directBursts(b) - direct0

	const msgs = 2 * rounds
	t.Logf("%d hand-offs and %d direct bursts for %d messages", hand, direct, msgs)
	if !rungTimed(t, rtt) {
		return
	}
	if hand > msgs/50 {
		t.Errorf("%d of %d ping-pong messages went through a port queue; the direct rung is not being taken", hand, msgs)
	}
	if direct < msgs*9/10 {
		t.Errorf("%d direct bursts for %d messages, want about one each", direct, msgs)
	}
}

// TestDirectRungPacedServerStaysDirect: requests arrive 2 ms apart, so
// the echo's Recv caller waits in the poller for several rxTakeover
// periods per message. That is a reader at work, not an application
// that stopped reading: rxLoop must leave it the socket, and the echo's
// requests must not go through its port queue. (The client is the other
// case: it leaves Recv for 2 ms, so its rxLoop takes the socket back and
// its replies are handed off; that side is not asserted.)
func TestDirectRungPacedServerStaysDirect(t *testing.T) {
	const (
		port   = 59
		rounds = 200
		gap    = 2 * time.Millisecond
	)
	a, b := wbPair(t, DefaultConfig())
	go echoLoop(b, 0, port, 100+rounds)
	rtt := pingPong(t, a, port, 100)

	hand0, direct0 := b.rxHandoffs.Value(), directBursts(b)
	for i := 0; i < rounds; i++ {
		time.Sleep(gap)
		pingPong(t, a, port, 1)
	}
	hand, direct := b.rxHandoffs.Value()-hand0, directBursts(b)-direct0
	t.Logf("echo side: %d hand-offs and %d direct bursts for %d requests %v apart", hand, direct, rounds, gap)
	if !rungTimed(t, rtt) {
		return
	}
	if hand > rounds/20 {
		t.Errorf("%d of %d paced requests went through the echo's port queue: rxLoop took the socket from a Recv caller that was reading", hand, rounds)
	}
}

// TestDirectRungTwoCallersHandOver: two Recv callers on different ports
// of one node, messages alternating between them. A reader that leaves
// must pass the socket straight to the other parked caller, never to an
// empty poller that only rxLoop's nap would notice: the oracle counts
// bursts, not time. Every message of the alternating phase is one burst,
// and it must be read by a Recv caller (live_rx_direct_bursts_total);
// a socket left unread after a reader leaves is picked up by rxLoop
// instead, and that burst does not count. The one-caller and
// alternating medians are logged: their difference once bounded the
// test, but it sits inside the race detector's noise.
func TestDirectRungTwoCallersHandOver(t *testing.T) {
	const p1, p2, p3 = 51, 52, 53
	a, b := wbPair(t, DefaultConfig())
	got := make(chan time.Time, 1)
	serve := func(p uint16, k int) {
		for range k {
			if _, err := b.Recv(p); err != nil {
				return
			}
			got <- time.Now()
		}
	}
	// The one-caller phase's server leaves with its last message, so in
	// the alternating phase the reader is always p1's or p2's caller, and
	// it leaves with every message it reads for itself.
	go serve(p3, sendToMedianMsgs)
	one := sendToMedian(t, a, got, p3, p3)
	go serve(p1, sendToMedianMsgs/2)
	go serve(p2, sendToMedianMsgs/2)
	d0, b0 := directBursts(b), b.shards[0].bursts.Value()
	two := sendToMedian(t, a, got, p1, p2)
	direct, bursts := directBursts(b)-d0, b.shards[0].bursts.Value()-b0
	t.Logf("median send-to-receive: %v with one caller, %v alternating between two; %d of %d bursts (%d messages) read by a Recv caller",
		one, two, direct, bursts, sendToMedianMsgs)
	if !rungTimed(t, 2*one) {
		return
	}
	if direct < sendToMedianMsgs*95/100 {
		t.Errorf("%d of %d alternating messages read by a Recv caller, want at least 95%%: the socket sat unread after a reader left", direct, sendToMedianMsgs)
	}
}

// sendToMedianMsgs is how many messages sendToMedian sends.
const sendToMedianMsgs = 200

// sendToMedian sends sendToMedianMsgs messages from a alternately to
// ports p and q, each after the previous one was received, and returns
// the median time from send to receipt past a warm-up.
func sendToMedian(t *testing.T, a *Node, got <-chan time.Time, p, q uint16) time.Duration {
	t.Helper()
	var lat []time.Duration
	for i := 0; i < sendToMedianMsgs; i++ {
		port := p
		if i%2 == 1 {
			port = q
		}
		t0 := time.Now()
		if err := a.Send(1, port, nil); err != nil {
			t.Fatal(err)
		}
		select {
		case t1 := <-got:
			if i >= 20 { // past warm-up
				lat = append(lat, t1.Sub(t0))
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d on port %d never received", i, port)
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[len(lat)/2]
}

// TestDirectRungReaderLeavesStillAcks: the application echoes for a
// while, reading directly, and then stops calling Recv. rxLoop must
// take the socket back on its own, in time for the acks: the peer's
// stream of three windows drains with no retransmission timeout.
func TestDirectRungReaderLeavesStillAcks(t *testing.T) {
	const port = 56
	cfg := DefaultConfig()
	cfg.PortDepth = 4 * cfg.Window // nobody drains the stream; keep it undropped
	a, b := wbPair(t, cfg)
	go echoLoop(b, 0, port, 50)
	rtt := pingPong(t, a, port, 50)
	if directBursts(b) == 0 {
		t.Fatal("the Recv caller never read the socket itself")
	}
	streamQuiesce(t, a, 1)
	backoffs := a.rtoBackoffs.Value()
	for i := 0; i < 3*cfg.Window; i++ {
		if err := a.Send(1, port+1, wbPattern(512)); err != nil {
			t.Fatal(err)
		}
	}
	streamQuiesce(t, a, 1)
	d := a.rtoBackoffs.Value() - backoffs
	if !rungTimed(t, rtt) {
		t.Logf("%d RTO backoffs", d)
	} else if d != 0 {
		t.Errorf("%d RTO backoffs while the receiving application was away; rxLoop did not take the socket back in time", d)
	}
	if n := len(b.portChan(port + 1)); n != 3*cfg.Window {
		t.Errorf("%d of %d messages queued", n, 3*cfg.Window)
	}
}

// TestDirectRungCloseUnblocksReader: Close must reach a Recv caller that
// is parked in the poller as the socket's reader, not only one parked
// on its port queue.
func TestDirectRungCloseUnblocksReader(t *testing.T) {
	const port, other = 57, 58
	a, b := wbPair(t, DefaultConfig())
	d0 := directBursts(b)
	errc := make(chan error, 1)
	go func() {
		_, err := b.Recv(port)
		errc <- err
	}()
	// rxLoop hands the socket over after a burst that finds a Recv
	// caller parked; a message to a port nobody reads makes that burst,
	// and once the caller reads, the next such message is its burst.
	deadline := time.Now().Add(5 * time.Second)
	for directBursts(b) == d0 {
		if time.Now().After(deadline) {
			t.Fatal("the parked Recv caller never took the reader role")
		}
		if err := a.Send(1, other, nil); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond) // let it park in the poller
	closed := make(chan struct{})
	go func() { b.Close(); close(closed) }()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("direct reader returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the direct reader")
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung waiting for the reader role")
	}
}
