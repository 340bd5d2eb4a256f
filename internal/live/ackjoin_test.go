package live_test

import (
	"testing"

	"repro/internal/health"
	"repro/internal/live"
	"repro/internal/proto"
)

// The tests in this file pin the two ack rules at the wire, with the
// scripted peer of nack_test.go. An ack is a join of (cum, edge): the
// sender keeps the newest of each, so no ack, however late, moves
// anything back. And the sender asks for the acks it needs
// (FlagAckReq): the receiver acks at the end of a burst only when a
// frame asked, a duplicate came in or a hole opened, and leaves any
// other ack owed to a reverse data frame.

// TestAckReorderedNewestFirst: two acks for the node's four frames
// arrive newest first, then the older one again. The window base and
// the edge must stay at the newest ack's values. When the ack carried a
// credit relative to its cum and the sender applied each ack's credit
// before checking it for progress, the older ack moved the credit back.
func TestAckReorderedNewestFirst(t *testing.T) {
	a := node(t, 0, parkedTimers())
	p := newWirePeer(t, a, 5)
	sentWindow(t, a, p, 5)

	older := proto.Header{Type: proto.TypeAck, Seq: 2, Len: 33}
	newer := proto.Header{Type: proto.TypeAck, Seq: 4, Len: 36}
	p.write(newer, nil)
	waitTx(t, a, 5, "the newer ack never released the window",
		func(tc *health.ChannelSnapshot) bool { return tc.InFlight == 0 })
	p.write(older, nil)
	p.write(older, nil)
	// A data frame behind the stale acks: once it is delivered, the acks
	// before it on the same socket were absorbed too.
	p.data(0)
	recvInOrder(t, a, 0)
	if tc := txState(t, a); tc.AckedSeq != 4 || tc.Credit != 32 || tc.InFlight != 0 {
		t.Fatalf("tx channel after the stale acks: %+v, want acked 4 and edge 36 (credit 32)", tc)
	}

	// The edge still grants what it said: a full window from seq 4.
	if err := a.Send(5, wirePort, pattern(31*(1500-proto.HeaderBytes)+1)); err != nil {
		t.Fatal(err)
	}
	var frames []proto.Header
	for seq := uint32(4); seq < 36; seq++ {
		frames = append(frames, proto.Header{Type: proto.TypeData, Seq: seq})
	}
	p.expect("a window below the newest edge", frames...)
}

// TestAckRequestAnsweredInBurst: two frames that do not ask draw
// nothing; then two more, the second asking for an ack. The burst that
// delivers it must end with the ack.
func TestAckRequestAnsweredInBurst(t *testing.T) {
	a := node(t, 0, parkedTimers())
	p := newWirePeer(t, a, 5)

	p.data(0, 1)
	p.expect("after two frames that asked for nothing")
	p.data(2)
	p.ask(3)
	got := p.expect("after a frame that asked", proto.Header{Type: proto.TypeAck, Seq: 4})
	p.granted("the requested ack", got[0].hdr)
	recvInOrder(t, a, 0, 1, 2, 3)
	snap := a.HealthSnapshot()
	for name, want := range map[string]int64{"acks_sent": 1, "ack_probes": 0, "rx_dup_frames": 0} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
}

// TestUnaskedAckRidesReverseData: ten frames that never ask — under
// half the window, as a sender that is not running out of it sends
// them — draw no stand-alone ack, where an ack stride of eight would
// have sent one. The ack stays owed until the node's next data frame to
// the peer carries it.
func TestUnaskedAckRidesReverseData(t *testing.T) {
	a := node(t, 0, parkedTimers())
	p := newWirePeer(t, a, 5)

	p.data(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	recvInOrder(t, a, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	p.expect("after ten frames that asked for nothing")
	if got := rxState(t, a).SinceAck; got != 10 {
		t.Errorf("rx channel owes an ack for %d frames, want 10", got)
	}

	if err := a.Send(5, wirePort, []byte("reply")); err != nil {
		t.Fatal(err)
	}
	dg := p.expect("the reply", proto.Header{Type: proto.TypeData, Seq: 0})[0]
	if cum, edge, _, piggy := ackExt(t, dg); !piggy || cum != 10 || edge-cum < 1 || edge-cum > p.window {
		t.Fatalf("reply %v: ack extension %v cum %d edge %d, want cum 10 and a grant of 1..%d", dg.hdr, piggy, cum, edge, p.window)
	}
	snap := a.HealthSnapshot()
	for name, want := range map[string]int64{"acks_sent": 0, "piggyback_acks": 1} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
}

// rxState reads the node's rx channel from the scripted peer.
func rxState(t *testing.T, n *live.Node) health.ChannelSnapshot {
	t.Helper()
	snap := n.HealthSnapshot()
	rc := snapChan(&snap, 5, "rx")
	if rc == nil {
		t.Fatal("no rx channel from the scripted peer")
	}
	return *rc
}
