package live_test

import (
	"bytes"
	"errors"
	"net"
	"net/netip"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/health"
	"repro/internal/live"
	"repro/internal/proto"
	"repro/internal/trace"
)

// The tests in this file play one end of the protocol by hand over a
// raw UDP socket, datagram by datagram, against a node whose RTO timer
// is parked far beyond the test's lifetime (the node's only timer: the
// receive side has none): every datagram the node emits is then an
// answer to one the script sent, and timer-driven recovery cannot make a
// broken NACK path pass.

// parkedTimers is DefaultConfig with the RTO out of the picture.
func parkedTimers() live.Config {
	cfg := live.DefaultConfig()
	cfg.RetransmitTimeout = 10 * time.Second
	cfg.RTOMin = 10 * time.Second
	cfg.RTOMax = 20 * time.Second
	return cfg
}

// quiet is how long the scripts listen to conclude "no datagram": two
// orders above a loopback round trip, three below the parked timer.
const quiet = 40 * time.Millisecond

// wirePeer is the scripted end: a bare UDP socket registered with the
// node under test as peer id. window is the node's Window, which the
// scripted acks grant past their cum.
type wirePeer struct {
	t      *testing.T
	conn   *net.UDPConn
	node   netip.AddrPort
	window uint32
}

const wirePort = 9 // CLIC port the scripted data frames address

func newWirePeer(t *testing.T, n *live.Node, id int) *wirePeer {
	t.Helper()
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	n.AddPeer(id, conn.LocalAddr().(*net.UDPAddr))
	return &wirePeer{t: t, conn: conn, node: n.Addr().AddrPort(), window: uint32(n.HealthSnapshot().Window)}
}

func (p *wirePeer) write(hdr proto.Header, payload []byte) {
	p.t.Helper()
	if _, err := p.conn.WriteToUDPAddrPort(append(hdr.Encode(nil), payload...), p.node); err != nil {
		p.t.Fatal(err)
	}
}

// data sends one single-fragment message per sequence number; the
// payload names the sequence so delivery order and identity are
// checkable.
func (p *wirePeer) data(seqs ...uint32) {
	p.t.Helper()
	for _, seq := range seqs {
		p.frame(seq, 0)
	}
}

// ask sends seq's message with FlagAckReq, as a sender does on the
// frame that fills its window.
func (p *wirePeer) ask(seq uint32) {
	p.t.Helper()
	p.frame(seq, proto.FlagAckReq)
}

func (p *wirePeer) frame(seq uint32, flags uint8) {
	p.t.Helper()
	body := wireBody(seq)
	p.write(proto.Header{Type: proto.TypeData, Flags: proto.FlagFirst | proto.FlagLast | flags,
		Port: wirePort, Seq: seq, Len: uint32(len(body))}, body)
}

func wireBody(seq uint32) []byte { return []byte{'s', 'e', 'q', byte(seq)} }

// control sends a cumulative ack or NACK granting a full window past
// cum.
func (p *wirePeer) control(typ proto.PacketType, cum uint32) {
	p.t.Helper()
	p.write(proto.Header{Type: typ, Seq: cum, Len: cum + p.window}, nil)
}

// granted fails unless an ack the node sent carries an edge past its
// cum and at most a window past it: the resequencer parks every frame
// the edge grants.
func (p *wirePeer) granted(what string, h proto.Header) {
	p.t.Helper()
	if g := h.Len - h.Seq; g < 1 || g > p.window {
		p.t.Fatalf("%s grants %d frames past its cum (%v), want 1..%d", what, int32(g), h, p.window)
	}
}

// wireDgram is one datagram the node sent to the scripted peer.
type wireDgram struct {
	hdr proto.Header
	raw []byte
}

// next returns the node's next datagram, or ok=false when none comes
// within d.
func (p *wirePeer) next(d time.Duration) (dg wireDgram, ok bool) {
	p.t.Helper()
	buf := make([]byte, 64<<10)
	p.conn.SetReadDeadline(time.Now().Add(d)) //nolint:errcheck // a failed deadline shows up as the read's error
	n, _, err := p.conn.ReadFromUDPAddrPort(buf)
	if err != nil {
		if ne, isNet := err.(net.Error); isNet && ne.Timeout() {
			return wireDgram{}, false
		}
		p.t.Fatal(err)
	}
	hdr, _, err := proto.DecodeHeader(buf[:n])
	if err != nil {
		p.t.Fatalf("node sent a runt datagram: %v", err)
	}
	return wireDgram{hdr: hdr, raw: buf[:n]}, true
}

// expect reads the node's next len(want) datagrams, requires them to be
// the given (type, seq) sequence, and then requires the node to stay
// quiet: a wait that is long where a datagram is due and short where
// none is, so a slow host can delay a pass but not fail one.
func (p *wirePeer) expect(step string, want ...proto.Header) []wireDgram {
	p.t.Helper()
	got := make([]wireDgram, 0, len(want))
	for i, w := range want {
		dg, ok := p.next(2 * time.Second)
		if !ok {
			p.t.Fatalf("%s: node sent %d datagrams, want %d (next due: type %d seq %d)", step, i, len(want), w.Type, w.Seq)
		}
		if dg.hdr.Type != w.Type || dg.hdr.Seq != w.Seq {
			p.t.Fatalf("%s: datagram %d is %v, want type %d seq %d", step, i, dg.hdr, w.Type, w.Seq)
		}
		got = append(got, dg)
	}
	if dg, ok := p.next(quiet); ok {
		p.t.Fatalf("%s: unexpected extra datagram %v", step, dg.hdr)
	}
	return got
}

// recvInOrder asserts the node delivers exactly the messages for seqs,
// in that order, byte for byte, and nothing after them.
func recvInOrder(t *testing.T, n *live.Node, seqs ...uint32) {
	t.Helper()
	for _, seq := range seqs {
		deadline := time.Now().Add(2 * time.Second)
		for {
			m, ok := n.TryRecv(wirePort)
			if ok {
				if !bytes.Equal(m.Data, wireBody(seq)) {
					t.Fatalf("delivered %q where seq %d (%q) was due", m.Data, seq, wireBody(seq))
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("message for seq %d never delivered", seq)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if m, ok := n.TryRecv(wirePort); ok {
		t.Fatalf("extra message %q delivered: exactly-once broken", m.Data)
	}
}

// TestNackOncePerHole: frames 0,2,3 leave a hole at 1 that outlives the
// burst — exactly one TypeNack{cum 1}, carrying an edge; more frames
// parking behind the same hole (4,5) draw nothing; filling it draws the
// plain cumulative ack for everything.
func TestNackOncePerHole(t *testing.T) {
	a := node(t, 0, parkedTimers())
	p := newWirePeer(t, a, 5)

	p.data(0, 2, 3)
	got := p.expect("after 0,2,3", proto.Header{Type: proto.TypeNack, Seq: 1})
	p.granted("the NACK", got[0].hdr)

	p.data(4, 5)
	p.expect("after 4,5 parked behind the reported hole")

	// 1 fills the hole and 6, 7 follow it; 8 asks for an ack, so the
	// answer is immediate.
	p.data(1, 6, 7)
	p.ask(8)
	got = p.expect("after the hole filled", proto.Header{Type: proto.TypeAck, Seq: 9})
	p.granted("the ack", got[0].hdr)
	recvInOrder(t, a, 0, 1, 2, 3, 4, 5, 6, 7, 8)

	if nacks := counterValue(t, a, "live_nacks_sent_total"); nacks != 1 {
		t.Errorf("live_nacks_sent_total = %d, want 1", nacks)
	}
	if snap := a.HealthSnapshot(); snap.Counters["nacks_sent"] != 1 {
		t.Errorf("health counter nacks_sent = %d, want 1", snap.Counters["nacks_sent"])
	}
}

// TestNackSecondHoleWhenFirstFills: two holes in one window are
// reported one after the other — the second as soon as the first fills
// and the cumulative ack stops at it.
func TestNackSecondHoleWhenFirstFills(t *testing.T) {
	a := node(t, 0, parkedTimers())
	p := newWirePeer(t, a, 5)

	p.data(0, 2, 4, 5)
	p.expect("after 0,2,4,5", proto.Header{Type: proto.TypeNack, Seq: 1})
	p.data(1)
	p.expect("after 1 filled the first hole", proto.Header{Type: proto.TypeNack, Seq: 3})
	p.data(3, 6, 7, 8, 9)
	p.ask(10)
	p.expect("after 3 filled the second", proto.Header{Type: proto.TypeAck, Seq: 11})
	recvInOrder(t, a, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
}

// TestNackReorderedFrameExactlyOnce: a frame that was late, not lost,
// is NACKed like a lost one; the repair fills the hole and the late
// original is then a duplicate — re-acked, never delivered twice.
func TestNackReorderedFrameExactlyOnce(t *testing.T) {
	a := node(t, 0, parkedTimers())
	p := newWirePeer(t, a, 5)

	p.data(0, 2, 3)
	p.expect("after 0,2,3", proto.Header{Type: proto.TypeNack, Seq: 1})
	p.data(1) // the repair
	p.expect("after the repair")
	p.data(1) // the late original
	p.expect("after the late original", proto.Header{Type: proto.TypeAck, Seq: 4})
	recvInOrder(t, a, 0, 1, 2, 3)
	if got := counterValue(t, a, "live_rx_dup_frames_total"); got != 1 {
		t.Errorf("live_rx_dup_frames_total = %d, want 1 (the late original)", got)
	}
}

// sentWindow has a send four fragments to the scripted peer and returns
// the four datagrams as they crossed the wire.
func sentWindow(t *testing.T, a *live.Node, p *wirePeer, peer int) []wireDgram {
	t.Helper()
	frag := 1500 - proto.HeaderBytes
	if err := a.Send(peer, wirePort, pattern(3*frag+100)); err != nil {
		t.Fatal(err)
	}
	return p.expect("after a four-fragment send",
		proto.Header{Type: proto.TypeData, Seq: 0}, proto.Header{Type: proto.TypeData, Seq: 1},
		proto.Header{Type: proto.TypeData, Seq: 2}, proto.Header{Type: proto.TypeData, Seq: 3})
}

// TestFastRetransmitHeadOnly: four frames in flight, the peer NACKs
// cum 1 twice. Exactly one extra datagram results — frame 1, byte for
// byte — in a round trip (typically ~100 µs; the bound only has to sit
// far below the parked 10 s RTO), with no RTO backoff recorded.
func TestFastRetransmitHeadOnly(t *testing.T) {
	a := node(t, 0, parkedTimers())
	p := newWirePeer(t, a, 5)
	sent := sentWindow(t, a, p, 5)

	start := time.Now()
	p.control(proto.TypeNack, 1)
	p.control(proto.TypeNack, 1)
	repair, ok := p.next(time.Second)
	if !ok {
		t.Fatal("no repair within 1 s of the NACK: recovery is waiting for the RTO")
	}
	t.Logf("repair arrived %v after the NACK", time.Since(start))
	if !bytes.Equal(repair.raw, sent[1].raw) {
		t.Fatalf("repair is %v, want a byte-exact copy of frame 1 %v", repair.hdr, sent[1].hdr)
	}
	p.expect("after the repair (second NACK for the same base)")

	snap := a.HealthSnapshot()
	for name, want := range map[string]int64{"fast_retransmits": 1, "retransmits": 1, "rto_backoffs": 0} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
	if got := counterValue(t, a, "live_fast_retransmits_total"); got != 1 {
		t.Errorf("live_fast_retransmits_total = %d, want 1", got)
	}
	if tc := snapChan(&snap, 5, "tx"); tc == nil || tc.InFlight != 3 || tc.AckedSeq != 1 {
		t.Errorf("tx channel after NACK cum 1: %+v, want 3 in flight from base 1", tc)
	}

	// The next hole in the same window gets its own repair.
	p.control(proto.TypeNack, 3)
	repair = p.expect("after NACK cum 3", proto.Header{Type: proto.TypeData, Seq: 3})[0]
	if !bytes.Equal(repair.raw, sent[3].raw) {
		t.Fatalf("second repair %v is not a byte-exact copy of frame 3", repair.hdr)
	}
}

// TestFastRetransmitIgnoresStrayNacks: a NACK that does not name the
// window base, names it while nothing is in flight, or comes from an
// address that is no registered peer, puts nothing on the wire.
func TestFastRetransmitIgnoresStrayNacks(t *testing.T) {
	a := node(t, 0, parkedTimers())
	p := newWirePeer(t, a, 5)
	sentWindow(t, a, p, 5)

	stranger, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer stranger.Close()
	nack0 := proto.Header{Type: proto.TypeNack, Seq: 0, Len: 32}.Encode(nil)
	if _, err := stranger.WriteToUDPAddrPort(nack0, a.Addr().AddrPort()); err != nil {
		t.Fatal(err)
	}
	p.expect("NACK for the base from an unregistered address")

	p.control(proto.TypeNack, 100) // beyond anything sent: not an ack, not the base
	p.expect("NACK for a sequence never sent")
	p.control(proto.TypeAck, 2)
	p.control(proto.TypeNack, 1) // stale: the base has moved past it
	p.expect("NACK behind the base")
	p.control(proto.TypeAck, 4)
	p.control(proto.TypeNack, 4) // names the base, but the window is empty
	p.expect("NACK on an empty window")

	// The window draining proves the script's last datagram was processed,
	// so the zero below is not a datagram still on its way in.
	snap := waitTx(t, a, 5, "window never drained by the scripted acks",
		func(tc *health.ChannelSnapshot) bool { return tc.InFlight == 0 })
	if got := snap.Counters["fast_retransmits"] + snap.Counters["retransmits"]; got != 0 {
		t.Errorf("stray NACKs caused %d retransmissions", got)
	}
}

// TestUnknownTypeNotSequenced: a frame of a type this stack does not
// sequence (here TypeBarrier), whose Seq happens to equal the channel's
// cumulative ack, used to fall into the data arm, consume that sequence
// number and get the real data frame dropped as its duplicate. It must
// be dropped and counted instead.
func TestUnknownTypeNotSequenced(t *testing.T) {
	a := node(t, 0, parkedTimers())
	p := newWirePeer(t, a, 5)

	for _, typ := range []proto.PacketType{proto.TypeBarrier, proto.TypeKernelFn, proto.TypeMPI, 0xEE} {
		p.write(proto.Header{Type: typ, Flags: proto.FlagFirst | proto.FlagLast,
			Port: wirePort, Seq: 0, Len: 4}, []byte("ctrl"))
	}
	p.data(0)
	recvInOrder(t, a, 0)
	if got := counterValue(t, a, "live_unknown_frames_total"); got != 4 {
		t.Errorf("live_unknown_frames_total = %d, want 4", got)
	}
}

// TestNackObservability: both ends of a recovery leave the traces the
// simulator's does — nack-sent / nack-recv / retransmit flight points —
// and the head repair is counted as a fast retransmit.
func TestNackObservability(t *testing.T) {
	cfg := parkedTimers()
	cfg.Flight = flight.New(0)
	a := node(t, 0, cfg)
	p := newWirePeer(t, a, 5)

	// a as receiver: a hole at 1.
	p.data(0, 2)
	p.expect("after 0,2", proto.Header{Type: proto.TypeNack, Seq: 1})
	// a as sender: four frames out, the peer reports 1 missing.
	sentWindow(t, a, p, 5)
	p.control(proto.TypeNack, 1)
	p.expect("after NACK cum 1", proto.Header{Type: proto.TypeData, Seq: 1})

	points := map[string]flight.Event{}
	for _, ev := range cfg.Flight.Snapshot() {
		if ev.Kind == flight.KindPoint {
			points[ev.Name] = ev
		}
	}
	for _, name := range []string{trace.PointNackSent, trace.PointNackRecv} {
		if ev, ok := points[name]; !ok || ev.Arg != 1 {
			t.Errorf("flight point %s: %+v (recorded %v), want one with cum 1", name, ev, ok)
		}
	}
	if ev, ok := points[trace.PointRetransmit]; !ok || ev.Frame != flight.FrameID(0, 1) {
		t.Errorf("flight point retransmit: %+v (recorded %v), want frame (node 0, seq 1)", ev, ok)
	}
	if got := counterValue(t, a, "live_fast_retransmits_total"); got != 1 {
		t.Errorf("live_fast_retransmits_total = %d, want 1", got)
	}
}

// rtoTimers is parkedTimers with the RTO back in play, at 200 ms and
// doubling per expiry: far above the quiet interval, so each expiry's
// datagrams are told apart from the next expiry's, and with no retry
// budget to run out.
func rtoTimers() live.Config {
	cfg := parkedTimers()
	cfg.RetransmitTimeout = 200 * time.Millisecond
	cfg.RTOMin = 200 * time.Millisecond
	cfg.RTOMax = 2 * time.Second
	cfg.MaxRetries = 0
	return cfg
}

// expectRepairs reads one RTO expiry's datagrams: exactly the frames
// seqs, each a copy of what the window sent with FlagAckReq added, and
// then silence.
func (p *wirePeer) expectRepairs(step string, sent []wireDgram, seqs ...uint32) {
	p.t.Helper()
	want := make([]proto.Header, len(seqs))
	for i, seq := range seqs {
		want[i] = proto.Header{Type: proto.TypeData, Seq: seq}
	}
	for i, got := range p.expect(step, want...) {
		orig := sent[seqs[i]]
		if got.hdr.Flags != orig.hdr.Flags|proto.FlagAckReq {
			p.t.Errorf("%s: frame %d has flags %#x, want the original's %#x with FlagAckReq", step, seqs[i], got.hdr.Flags, orig.hdr.Flags)
		}
		if len(got.raw) != len(orig.raw) || !bytes.Equal(got.raw[2:], orig.raw[2:]) {
			p.t.Errorf("%s: frame %d is not a copy of the original", step, seqs[i])
		}
	}
}

// TestRTORepairHeadAndTail: against a peer that acks nothing, each RTO
// expiry of a four-fragment window resends exactly the head and the
// newest frame, each asking for an ack, and nothing else until the next
// expiry. No frame of the window asked, so the first expiry is a probe;
// the second finds the probe's request unanswered and backs off.
func TestRTORepairHeadAndTail(t *testing.T) {
	a := node(t, 0, rtoTimers())
	p := newWirePeer(t, a, 5)
	sent := sentWindow(t, a, p, 5)

	p.expectRepairs("first expiry", sent, 0, 3)
	p.expectRepairs("second expiry", sent, 0, 3)
	snap := a.HealthSnapshot()
	for name, want := range map[string]int64{"ack_probes": 1, "rto_backoffs": 1, "retransmits": 4, "fast_retransmits": 0} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
}

// TestRTOExpiryClasses: a one-frame message that does not ask for an
// ack, to a peer that never acks. The first expiry is a probe: it
// resends the frame asking for an ack, without backoff and without
// spending the retry budget (MaxRetries 1). The second finds that
// request unanswered and backs off, leaving the channel up; the third
// spends the budget and fails the channel.
func TestRTOExpiryClasses(t *testing.T) {
	cfg := rtoTimers()
	cfg.MaxRetries = 1
	a := node(t, 0, cfg)
	p := newWirePeer(t, a, 5)
	if err := a.Send(5, wirePort, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	sent := p.expect("the message", proto.Header{Type: proto.TypeData, Seq: 0})
	if sent[0].hdr.Flags&proto.FlagAckReq != 0 {
		t.Fatalf("the message asked for an ack (flags %#x): nothing to probe", sent[0].hdr.Flags)
	}
	counters := func(step string, want map[string]int64) {
		t.Helper()
		snap := a.HealthSnapshot()
		for name, w := range want {
			if got := snap.Counters[name]; got != w {
				t.Errorf("%s: counter %s = %d, want %d", step, name, got, w)
			}
		}
	}

	p.expectRepairs("first expiry", sent, 0)
	counters("first expiry", map[string]int64{"ack_probes": 1, "rto_backoffs": 0, "channel_failures": 0})
	p.expectRepairs("second expiry", sent, 0)
	counters("second expiry", map[string]int64{"ack_probes": 1, "rto_backoffs": 1, "channel_failures": 0})

	deadline := time.Now().Add(5 * time.Second)
	for a.HealthSnapshot().Counters["channel_failures"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("third silent expiry did not fail the channel")
		}
		time.Sleep(10 * time.Millisecond)
	}
	p.expect("after the failure")
	counters("third expiry", map[string]int64{"ack_probes": 1, "rto_backoffs": 1, "retransmits": 2})
	if err := a.Send(5, wirePort, []byte("after")); !errors.Is(err, live.ErrPeerDead) {
		t.Fatalf("send on the failed channel: %v, want ErrPeerDead", err)
	}
}

// TestRTORepairAfterLostNack: the peer acks cum 1 and its NACK for 1 is
// lost, so only the RTO can repair the hole: the expiry resends exactly
// 1 and 3. An ack of everything then leaves the node silent.
func TestRTORepairAfterLostNack(t *testing.T) {
	a := node(t, 0, rtoTimers())
	p := newWirePeer(t, a, 5)
	sent := sentWindow(t, a, p, 5)

	p.control(proto.TypeAck, 1)
	p.expectRepairs("expiry after cum 1", sent, 1, 3)
	p.control(proto.TypeAck, 4)
	p.expect("after cum 4")
	waitTx(t, a, 5, "window never drained by cum 4",
		func(tc *health.ChannelSnapshot) bool { return tc.InFlight == 0 })
}

// TestSendConfirmByAck: the confirmation of a SendConfirm is the
// cumulative ack its last fragment asked for. The scripted peer acks
// the frame and sends nothing else; SendConfirm returns nil at once.
func TestSendConfirmByAck(t *testing.T) {
	a := node(t, 0, parkedTimers())
	p := newWirePeer(t, a, 5)

	done := make(chan error, 1)
	go func() { done <- a.SendConfirm(5, wirePort, pattern(100)) }()
	dg, ok := p.next(2 * time.Second)
	if !ok || dg.hdr.Type != proto.TypeData || dg.hdr.Seq != 0 {
		t.Fatalf("SendConfirm sent %v (ok %v), want data frame 0", dg.hdr, ok)
	}
	if dg.hdr.Flags&proto.FlagAckReq == 0 {
		t.Errorf("the confirmed frame has flags %#x: it does not ask for the ack that confirms it", dg.hdr.Flags)
	}
	select {
	case err := <-done:
		t.Fatalf("SendConfirm returned %v before any ack", err)
	case <-time.After(quiet):
	}
	p.control(proto.TypeAck, 1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("SendConfirm returned %v after its ack", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("SendConfirm still blocked 2 s after the ack of its frame")
	}
}
