package live_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/health"
	"repro/internal/live"
	"repro/internal/proto"
)

// The tests in this file pin the send path's per-burst bookkeeping (a
// staged burst is pushed under one lock hold and one clock read, and a
// window that runs out mid-burst flushes, acks and waits in that order)
// and the ack path's one latency sample per ack.

// histCount reads a histogram's observation count from a node's
// telemetry registry.
func histCount(t testing.TB, n *live.Node, name string) int64 {
	t.Helper()
	for _, m := range n.Telemetry().Snapshot() {
		if m.Name == name && m.Count != nil {
			return *m.Count
		}
	}
	t.Fatalf("no histogram %s", name)
	return 0
}

// TestFirstWindowAckedInBurst: a peer that fills the receiver's window
// (4) on a new channel, before any ack, asks for an ack on the frame
// that fills it, and the burst that delivers that frame must answer
// it. There is no first-window case: the request is the whole rule.
func TestFirstWindowAckedInBurst(t *testing.T) {
	cfg := parkedTimers()
	cfg.Window = 4
	a := node(t, 0, cfg)
	p := newWirePeer(t, a, 5)

	p.data(0, 1, 2)
	p.ask(3)
	got := p.expect("after a full first window", proto.Header{Type: proto.TypeAck, Seq: 4})
	p.granted("the first ack", got[0].hdr)
	recvInOrder(t, a, 0, 1, 2, 3)
	if got := a.HealthSnapshot().Counters["ack_probes"]; got != 0 {
		t.Errorf("ack_probes = %d, want 0", got)
	}
}

// TestSendBurstFlushAckThenWait pins the mid-burst order at the wire.
// The node owes the scripted peer an ack for one frame (nobody asked for
// it), then stages a five-fragment
// message whose short last fragment takes that ack. The window (4) ends
// the push after four fragments: those four must leave first, then the
// taken ack on its own, and only then may the sender wait. The peer's
// ack lets the fifth fragment out, still carrying the ack it took.
func TestSendBurstFlushAckThenWait(t *testing.T) {
	cfg := parkedTimers()
	cfg.Window = 4
	a := node(t, 0, cfg)
	p := newWirePeer(t, a, 5)

	p.data(0)
	p.expect("after one frame that asked for no ack")
	frag := cfg.MTU - proto.HeaderBytes
	sent := make(chan error, 1)
	go func() { sent <- a.Send(5, wirePort, pattern(4*frag+100)) }()
	p.expect("the window's worth of the burst, then the taken ack",
		proto.Header{Type: proto.TypeData, Seq: 0}, proto.Header{Type: proto.TypeData, Seq: 1},
		proto.Header{Type: proto.TypeData, Seq: 2}, proto.Header{Type: proto.TypeData, Seq: 3},
		proto.Header{Type: proto.TypeAck, Seq: 1})
	select {
	case err := <-sent:
		t.Fatalf("send returned (%v) with its last fragment outside the window", err)
	default:
	}

	p.control(proto.TypeAck, 4)
	dg := p.expect("after the window opened", proto.Header{Type: proto.TypeData, Seq: 4})[0]
	if cum, _, body, piggy := ackExt(t, dg); !piggy || cum != 1 || len(body) != 100 {
		t.Fatalf("last fragment %v: ack extension %v cum %d, %d bytes, want the cum 1 it took and 100 bytes",
			dg.hdr, piggy, cum, len(body))
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	recvInOrder(t, a, 0)
}

// TestSendBurstLargerThanWindow: 64 KiB messages (45 fragments, a
// 43-fragment burst) both ways over a pair whose window (4) and
// per-peer cap (2) are far below the burst, so nearly every push runs
// out of window mid-burst. Every message must arrive byte-exact with no
// RTO backoff: a sender that waited without flushing what it pushed
// would leave its peer nothing to ack and stall until an RTO. And the
// cap must not hand the pace to a timer: the frame that fills the
// capped window asks for its ack, so no RTO expiry has to probe for
// one. When the receiver guessed instead (an ack stride and the last
// credit it sent, neither of which sees the sender's cap), 176 of 178
// acks were its delayed-ack timer's and the exchange took 0.42 s; it
// must take a tenth of that.
func TestSendBurstLargerThanWindow(t *testing.T) {
	cfg := live.DefaultConfig()
	cfg.Window, cfg.PeerInFlight = 4, 2
	cfg.RetransmitTimeout, cfg.RTOMin, cfg.RTOMax = 500*time.Millisecond, 500*time.Millisecond, 2*time.Second
	a, b := pair(t, cfg)
	bound := slowHostBound(t, a, b, 42*time.Millisecond)
	const msgs, port, size = 8, 40, 64 << 10
	payload := func(from, i int) []byte {
		m := pattern(size)
		m[0], m[1], m[size-1] = byte(from), byte(i), byte(i)
		return m
	}
	nodes := []*live.Node{a, b}
	errc := make(chan error, 4)
	var wg sync.WaitGroup
	for me, n := range nodes {
		peer := 1 - me
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := range msgs {
				if err := n.Send(peer, port, payload(me, i)); err != nil {
					errc <- fmt.Errorf("node %d send %d: %w", me, i, err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := range msgs {
				m, err := n.Recv(port)
				if err != nil {
					errc <- fmt.Errorf("node %d recv %d: %w", me, i, err)
					return
				}
				if m.Src != peer || !bytes.Equal(m.Data, payload(peer, i)) {
					errc <- fmt.Errorf("node %d message %d from %d: %d bytes, not the %d sent", me, i, m.Src, len(m.Data), size)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	start := time.Now()
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("exchange of %d × 64 KiB each way did not finish in 60 s; health: %+v", msgs, a.HealthSnapshot())
	}
	took := time.Since(start)
	t.Logf("%d × 64 KiB each way in %v", msgs, took)
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	for _, n := range nodes {
		if got := counterValue(t, n, "live_rto_backoffs_total"); got != 0 {
			t.Errorf("node %d: live_rto_backoffs_total = %d, want 0", n.ID, got)
		}
		if got := counterValue(t, n, "live_ack_probes_total"); got != 0 {
			t.Errorf("node %d: live_ack_probes_total = %d, want 0: the capped sender was paced by its RTO", n.ID, got)
		}
	}
	if took >= bound {
		t.Errorf("exchange took %v, want under %v", took, bound)
	}
}

// slowHostBound scales a wall-clock bound set for full speed by how
// much slower than 50 µs a small round trip between a and b is, so the
// race detector and lockcheck, which slow every lock and channel
// operation, stretch the bound in proportion instead of failing it.
func slowHostBound(t *testing.T, a, b *live.Node, bound time.Duration) time.Duration {
	t.Helper()
	const port, rounds, ref = 41, 50, 50 * time.Microsecond
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		if err := a.Send(1, port, []byte("rtt")); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Recv(port); err != nil {
			t.Fatal(err)
		}
		if err := b.Send(0, port, []byte("rtt")); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Recv(port); err != nil {
			t.Fatal(err)
		}
	}
	rtt := time.Since(t0) / rounds
	if rtt > ref {
		bound = bound * rtt / ref
	}
	t.Logf("mean round trip %v: bound %v", rtt, bound)
	return bound
}

// TestAckSampleOnePerAck: a clean stream of 64 KiB messages to the
// scripted peer, which acknowledges every eighth frame and the last.
// Every such ack releases frames, and each must give the sender exactly
// one ack-latency sample, not one per frame it released. (A live pair
// cannot pin the count: its burst acks and a blocked sender's acks are
// framed under the channel lock but written after it, so two can
// cross, and the older one then releases nothing.)
func TestAckSampleOnePerAck(t *testing.T) {
	cfg := parkedTimers()
	a := node(t, 0, cfg)
	p := newWirePeer(t, a, 5)
	const msgs, size, stride = 16, 64 << 10, 8
	errc := make(chan error, 1)
	go func() {
		for range msgs {
			if err := a.Send(5, wirePort, pattern(size)); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	frag := cfg.MTU - proto.HeaderBytes
	frames := msgs * ((size + frag - 1) / frag)
	acks := 0
	for seq := range frames {
		dg, ok := p.next(2 * time.Second)
		if !ok || dg.hdr.Type != proto.TypeData || dg.hdr.Seq != uint32(seq) {
			t.Fatalf("frame %d: got %v (ok %v)", seq, dg.hdr, ok)
		}
		if (seq+1)%stride == 0 || seq+1 == frames {
			p.control(proto.TypeAck, uint32(seq+1))
			acks++
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	snap := waitTx(t, a, 5, "stream never fully acknowledged",
		func(tc *health.ChannelSnapshot) bool { return tc.InFlight == 0 })
	if rt := snap.Counters["retransmits"]; rt != 0 {
		t.Fatalf("%d retransmits on a clean stream", rt)
	}
	if got := histCount(t, a, "live_ack_latency_ns"); got != int64(acks) {
		t.Errorf("live_ack_latency_ns has %d samples for %d acks (%d frames), want one per ack", got, acks, frames)
	}
}

// TestAckSampleKarnSkipsRepairedHead: an ack whose oldest released
// frame was resent on a NACK cannot tell which send it answers, so it
// gives no sample at all — the later frames it releases included —
// and SRTT stays where the last clean ack left it. The next ack of a
// frame sent once samples again.
func TestAckSampleKarnSkipsRepairedHead(t *testing.T) {
	a := node(t, 0, parkedTimers())
	p := newWirePeer(t, a, 5)
	sentWindow(t, a, p, 5)

	p.control(proto.TypeAck, 1)
	snap := waitTx(t, a, 5, "ack of frame 0 never absorbed",
		func(tc *health.ChannelSnapshot) bool { return tc.InFlight == 3 })
	srtt := snapChan(&snap, 5, "tx").SRTTNs
	if srtt <= 0 {
		t.Fatalf("SRTT %d after the first clean ack, want a sample", srtt)
	}
	if got := histCount(t, a, "live_ack_latency_ns"); got != 1 {
		t.Fatalf("%d ack-latency samples after one ack, want 1", got)
	}

	p.control(proto.TypeNack, 1)
	p.expect("after NACK cum 1", proto.Header{Type: proto.TypeData, Seq: 1})
	time.Sleep(time.Millisecond) // later frames' latencies differ from the first sample's
	p.control(proto.TypeAck, 4)
	snap = waitTx(t, a, 5, "ack of the repaired head never absorbed",
		func(tc *health.ChannelSnapshot) bool { return tc.InFlight == 0 })
	if got := snapChan(&snap, 5, "tx").SRTTNs; got != srtt {
		t.Errorf("SRTT moved %d → %d on the ack covering the repaired head", srtt, got)
	}
	if got := histCount(t, a, "live_ack_latency_ns"); got != 1 {
		t.Errorf("%d ack-latency samples after the repaired head's ack, want still 1", got)
	}

	if err := a.Send(5, wirePort, []byte("clean")); err != nil {
		t.Fatal(err)
	}
	p.expect("a clean frame", proto.Header{Type: proto.TypeData, Seq: 4})
	p.control(proto.TypeAck, 5)
	waitTx(t, a, 5, "ack of the clean frame never absorbed",
		func(tc *health.ChannelSnapshot) bool { return tc.InFlight == 0 })
	if got := histCount(t, a, "live_ack_latency_ns"); got != 2 {
		t.Errorf("%d ack-latency samples after a clean frame's ack, want 2", got)
	}
}
