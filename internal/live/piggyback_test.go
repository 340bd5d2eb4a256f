package live_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/health"
	"repro/internal/live"
	"repro/internal/proto"
)

// The tests in this file pin piggy-backed acks at the wire with the
// scripted peer of nack_test.go: a data frame with FlagAck carries the
// cumulative ack and edge of its sender's reverse channel in an 8-byte
// extension, the node absorbs it like a TypeAck, and a node that
// answers a request acknowledges it inside the reply.

// dataAck sends one single-fragment message for seq whose FlagAck
// extension acknowledges the node's frames up to cum and grants it
// frames below edge; flags are added to the header.
func (p *wirePeer) dataAck(seq, cum, edge uint32, flags uint8) {
	p.t.Helper()
	var ext [proto.AckExtBytes]byte
	proto.PutAckExt(ext[:], cum, edge)
	body := wireBody(seq)
	p.write(proto.Header{Type: proto.TypeData, Flags: proto.FlagFirst | proto.FlagLast | proto.FlagAck | flags,
		Port: wirePort, Seq: seq, Len: uint32(len(body))}, append(ext[:], body...))
}

// ackExt decodes the extension of a data frame the node sent; ok is
// false when the frame carries none.
func ackExt(t *testing.T, dg wireDgram) (cum, edge uint32, body []byte, ok bool) {
	t.Helper()
	if dg.hdr.Flags&proto.FlagAck == 0 {
		return 0, 0, dg.raw[proto.HeaderBytes:], false
	}
	cum, edge, body, err := proto.DecodeAckExt(dg.raw[proto.HeaderBytes:])
	if err != nil {
		t.Fatalf("frame %v: %v", dg.hdr, err)
	}
	return cum, edge, body, true
}

// txState reads the node's tx channel to the scripted peer.
func txState(t *testing.T, n *live.Node) health.ChannelSnapshot {
	t.Helper()
	snap := n.HealthSnapshot()
	tc := snapChan(&snap, 5, "tx")
	if tc == nil {
		t.Fatal("no tx channel to the scripted peer")
	}
	return *tc
}

// TestPiggybackReleasesWindow: a data frame whose extension
// acknowledges the node's four frames in flight releases them and joins
// its edge exactly as a TypeAck would, and the node answers with
// nothing: no retransmission, no backoff, and (its timers parked) no
// ack of its own for the one frame it received.
func TestPiggybackReleasesWindow(t *testing.T) {
	a := node(t, 0, parkedTimers())
	p := newWirePeer(t, a, 5)
	sentWindow(t, a, p, 5)

	p.dataAck(0, 4, 35, 0)
	snap := waitTx(t, a, 5, "window never released by the piggy-backed ack",
		func(tc *health.ChannelSnapshot) bool { return tc.InFlight == 0 })
	if tc := snapChan(&snap, 5, "tx"); tc.AckedSeq != 4 || tc.Credit != 31 {
		t.Errorf("tx channel after the piggy-backed ack: %+v, want acked 4 and edge 35 (credit 31)", tc)
	}
	recvInOrder(t, a, 0)
	p.expect("after the piggy-backed ack")
	snap = a.HealthSnapshot()
	for name, want := range map[string]int64{"retransmits": 0, "rto_backoffs": 0, "acks_sent": 0} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
}

// TestPiggybackEchoNoStandaloneAcks: 200 request/response exchanges
// with the scripted peer, each request acknowledging the previous
// reply in its extension. Every reply must acknowledge its request in
// its own extension, and the node sends no ack datagram at all. The
// peer's last frame goes unanswered, and the node still sends nothing:
// no timer guesses that the peer wants an ack. The peer asks when its
// RTO resends that frame with FlagAckReq, and that duplicate draws
// exactly one ack. The node's own RTO is parked.
func TestPiggybackEchoNoStandaloneAcks(t *testing.T) {
	a := node(t, 0, parkedTimers())
	p := newWirePeer(t, a, 5)
	const echoes = 200
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < echoes; i++ {
			m, err := a.Recv(wirePort)
			if err == nil {
				err = a.Send(5, wirePort, m.Data)
			}
			if err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i := uint32(0); i < echoes; i++ {
		p.dataAck(i, i, i+32, 0)
		dg, ok := p.next(2 * time.Second)
		if !ok {
			t.Fatalf("no reply to request %d", i)
		}
		cum, edge, body, piggy := ackExt(t, dg)
		if dg.hdr.Type != proto.TypeData || dg.hdr.Seq != i || !piggy || cum != i+1 || edge-cum < 1 || edge-cum > 32 {
			t.Fatalf("reply %d: %v (ack extension %v: cum %d edge %d), want data seq %d acknowledging %d",
				i, dg.hdr, piggy, cum, edge, i, i+1)
		}
		if !bytes.Equal(body, wireBody(i)) {
			t.Fatalf("reply %d carries %q, want %q", i, body, wireBody(i))
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if tc := txState(t, a); tc.InFlight != 1 {
		t.Errorf("tx channel after the exchange: %+v, want only the last reply in flight", tc)
	}
	snap := a.HealthSnapshot()
	if got := snap.Counters["acks_sent"]; got != 0 {
		t.Fatalf("%d stand-alone acks during the exchange, want 0", got)
	}
	if got := snap.Counters["piggyback_acks"]; got != echoes {
		t.Errorf("piggyback_acks = %d, want %d", got, echoes)
	}

	// The tail: a frame nobody answers, acknowledging the last reply.
	p.dataAck(echoes, echoes, echoes+32, 0)
	p.expect("after the unanswered tail")
	waitTx(t, a, 5, "the tail's extension never released the last reply",
		func(tc *health.ChannelSnapshot) bool { return tc.InFlight == 0 })
	// The peer's RTO probe: the tail again, asking.
	p.dataAck(echoes, echoes, echoes+32, proto.FlagAckReq)
	p.expect("after the tail's probe", proto.Header{Type: proto.TypeAck, Seq: echoes + 1})
	snap = a.HealthSnapshot()
	for name, want := range map[string]int64{"acks_sent": 1, "rx_dup_frames": 1, "retransmits": 0, "ack_probes": 0} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
}

// TestPiggybackStaleExtensionIgnored: extensions ride in frames that
// can be retransmitted, duplicated or reordered, so one can arrive
// after a newer ack. The sender joins it like any ack: a cum at or
// below the window base releases nothing, an edge at or below the
// highest one seen grants nothing, and an edge beyond next + Window is
// corrupt. None of them may move the window or the edge back.
func TestPiggybackStaleExtensionIgnored(t *testing.T) {
	a := node(t, 0, parkedTimers())
	p := newWirePeer(t, a, 5)
	sentWindow(t, a, p, 5)

	// The channel starts with edge 32 (its Window), so a fresh edge is
	// above that.
	p.dataAck(0, 2, 33, 0)
	p.expect("after a fresh extension")
	want := func(step string, acked uint32, inFlight, credit int) {
		t.Helper()
		if tc := txState(t, a); tc.AckedSeq != acked || tc.InFlight != inFlight || tc.Credit != credit {
			t.Fatalf("%s: tx channel %+v, want acked %d, %d in flight, edge %d", step, tc, acked, inFlight, int(acked)+credit)
		}
	}
	want("fresh extension", 2, 2, 31)

	// Replays of frame 0: each is a duplicate, so the node re-acks it at
	// once (cum 1) — the proof that the frame was processed.
	for _, ext := range []struct {
		step      string
		cum, edge uint32
	}{
		{"lower cum, lower edge", 1, 5},
		{"lower cum, same edge", 0, 33},
		{"same cum, lower edge", 2, 32},
		{"cum beyond anything sent", 9, 3},
		{"edge beyond next + Window", 2, 4 + 32 + 1},
	} {
		p.dataAck(0, ext.cum, ext.edge, 0)
		p.expect(ext.step, proto.Header{Type: proto.TypeAck, Seq: 1})
		want(ext.step, 2, 2, 31)
	}

	p.dataAck(1, 4, 35, 0)
	waitTx(t, a, 5, "the next fresh extension never released the window",
		func(tc *health.ChannelSnapshot) bool { return tc.InFlight == 0 })
	want("next fresh extension", 4, 0, 31)
	recvInOrder(t, a, 0, 1)
}

// TestPiggybackHoleStillNacked: piggy-backing takes over the ack
// stride, never the hole report. A hole between piggy-backed replies
// draws exactly one TypeNack, frames parking behind it draw nothing,
// and once it fills the next reply acknowledges everything.
func TestPiggybackHoleStillNacked(t *testing.T) {
	a := node(t, 0, parkedTimers())
	p := newWirePeer(t, a, 5)
	reply := func(step string, seq uint32, wantCum uint32, wantPiggy bool) {
		t.Helper()
		if err := a.Send(5, wirePort, []byte(step)); err != nil {
			t.Fatal(err)
		}
		dg := p.expect(step, proto.Header{Type: proto.TypeData, Seq: seq})[0]
		cum, _, _, piggy := ackExt(t, dg)
		if piggy != wantPiggy || cum != wantCum {
			t.Fatalf("%s: reply %v carries ack extension %v cum %d, want %v cum %d",
				step, dg.hdr, piggy, cum, wantPiggy, wantCum)
		}
	}

	p.data(0)
	p.expect("after 0")
	reply("reply after 0", 0, 1, true)
	p.data(2)
	p.expect("after 2: a hole at 1", proto.Header{Type: proto.TypeNack, Seq: 1})
	reply("reply with the hole open", 1, 0, false)
	p.data(3)
	p.expect("after 3 parked behind the reported hole")
	p.data(1)
	p.expect("after the hole filled")
	reply("reply after the hole filled", 2, 4, true)
	recvInOrder(t, a, 0, 1, 2, 3)

	snap := a.HealthSnapshot()
	for name, want := range map[string]int64{"nacks_sent": 1, "acks_sent": 1, "piggyback_acks": 2} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
}

// TestPingPongNoStandaloneAcks: on a live pair, 2 000 request/response
// exchanges each acknowledge the other direction inside the data
// frames, so neither node sends an ack datagram, where the ack stride
// alone would send 250 each. The RTO is parked: under the race detector
// a round trip takes milliseconds, an RTO that fired early would draw
// re-acks of its duplicates, and the probe of the last reply, which
// nothing answers, would draw one ack.
func TestPingPongNoStandaloneAcks(t *testing.T) {
	a, b := pair(t, parkedTimers())
	const echoes, port = 2000, 30
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < echoes; i++ {
			m, err := b.Recv(port)
			if err == nil {
				err = b.Send(0, port, m.Data)
			}
			if err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < echoes; i++ {
		req := []byte(fmt.Sprintf("echo %04d", i))
		if err := a.Send(1, port, req); err != nil {
			t.Fatal(err)
		}
		m, err := a.Recv(port)
		if err != nil {
			t.Fatal(err)
		}
		if m.Src != 1 || !bytes.Equal(m.Data, req) {
			t.Fatalf("echo %d: got %q from %d, want %q from 1", i, m.Data, m.Src, req)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	// Every request but the first acknowledges the reply before it.
	for _, c := range []struct {
		n     *live.Node
		piggy int64
	}{{a, echoes - 1}, {b, echoes}} {
		snap := c.n.HealthSnapshot()
		if got := snap.Counters["acks_sent"]; got != 0 {
			t.Errorf("node %d sent %d stand-alone acks in %d echoes, want 0", c.n.ID, got, echoes)
		}
		if got := snap.Counters["piggyback_acks"]; got != c.piggy {
			t.Errorf("node %d piggy-backed %d acks, want %d", c.n.ID, got, c.piggy)
		}
	}
}

// TestPiggybackBlockedSenderAcksFirst: a send that took the reverse
// channel's ack into its frame and then finds the window full must send
// that ack as a datagram of its own before it waits. The peer may be
// blocked on its own window until that ack arrives; two such senders
// would otherwise each hold the ack the other waits for, until an RTO.
func TestPiggybackBlockedSenderAcksFirst(t *testing.T) {
	cfg := parkedTimers()
	cfg.Window = 4
	a := node(t, 0, cfg)
	p := newWirePeer(t, a, 5)
	sentWindow(t, a, p, 5) // four frames: the window is full

	p.data(0)
	p.expect("after 0")
	sent := make(chan error, 1)
	go func() { sent <- a.Send(5, wirePort, []byte("blocked")) }()
	p.expect("the blocked send's ack", proto.Header{Type: proto.TypeAck, Seq: 1})
	select {
	case err := <-sent:
		t.Fatalf("send returned (%v) with the window full", err)
	default:
	}

	p.control(proto.TypeAck, 4)
	dg := p.expect("after the window opened", proto.Header{Type: proto.TypeData, Seq: 4})[0]
	if cum, _, body, piggy := ackExt(t, dg); !piggy || cum != 1 || string(body) != "blocked" {
		t.Fatalf("released frame %v: ack extension %v cum %d body %q, want the cum 1 it took and %q",
			dg.hdr, piggy, cum, body, "blocked")
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	recvInOrder(t, a, 0)
}

// TestRTORunsFromLastProgress pins the lazy RTO. Ack progress moves the
// deadline without touching the timer, and a fire that finds the
// deadline ahead re-arms for the remainder, so the timeout still runs
// from the last progress: acks that keep coming, each well inside the
// RTO, draw no retransmission even long after the first send, and once
// they stop the head is resent one RTO after the last of them, not
// earlier. No frame asked for an ack, so that expiry is a probe, with
// no backoff.
func TestRTORunsFromLastProgress(t *testing.T) {
	const rto = 200 * time.Millisecond
	cfg := parkedTimers()
	cfg.RetransmitTimeout, cfg.RTOMin, cfg.RTOMax = rto, rto, rto
	a := node(t, 0, cfg)
	p := newWirePeer(t, a, 5)
	frag := cfg.MTU - proto.HeaderBytes
	if err := a.Send(5, wirePort, pattern(7*frag+100)); err != nil {
		t.Fatal(err)
	}
	var frames []proto.Header
	for seq := uint32(0); seq < 8; seq++ {
		frames = append(frames, proto.Header{Type: proto.TypeData, Seq: seq})
	}
	p.expect("the eight fragments", frames...)

	// Seven acks 50 ms apart: 350 ms of progress, past the RTO counted
	// from the first send.
	var last time.Time
	for cum := uint32(1); cum < 8; cum++ {
		p.control(proto.TypeAck, cum)
		last = time.Now()
		if dg, ok := p.next(rto / 4); ok {
			t.Fatalf("after ack %d: %v sent while acks were progressing", cum, dg.hdr)
		}
	}
	dg, ok := p.next(2 * time.Second)
	if !ok || dg.hdr.Type != proto.TypeData || dg.hdr.Seq != 7 {
		t.Fatalf("after the acks stopped: %v (ok %v), want frame 7 resent", dg.hdr, ok)
	}
	if since := time.Since(last); since < rto {
		t.Fatalf("frame 7 resent %v after the last progress, before the %v RTO", since, rto)
	}
	snap := a.HealthSnapshot()
	for name, want := range map[string]int64{"retransmits": 1, "ack_probes": 1, "rto_backoffs": 0} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
}
