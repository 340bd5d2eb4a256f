//go:build linux && (amd64 || arm64)

package live

import (
	"bytes"
	"fmt"
	"net"
	"net/netip"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"repro/internal/health"
	"repro/internal/proto"
)

// The superframe is the unit on both sides of the socket: UDP-GSO on
// send, UDP_GRO on receive. These tests cover the place where a
// superframe becomes frames again (batchReader.decode), the path end
// to end, both mixed pairings (a GSO sender into a socket without
// UDP_GRO, a per-datagram sender into one with it), and the shard
// sockets' port ownership. Each kernel feature is probed and the
// outcome logged, so a runner that silently falls back shows in `-v`.

// probeGRO reports whether this kernel lets a UDP socket set UDP_GRO.
func probeGRO(t *testing.T) error {
	t.Helper()
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rc, err := c.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1)
	}); err != nil {
		t.Fatal(err)
	}
	if serr != nil {
		t.Logf("UDP_GRO probe: refused (%v): receive falls back to one frame per socket-queue entry", serr)
	} else {
		t.Log("UDP_GRO probe: ok")
	}
	return serr
}

// gsoLatched reports whether src's channel to dst sent superframes: the
// batcher latches the outcome of its first UDP_SEGMENT sendmsg.
func gsoLatched(t *testing.T, src *Node, dst int) bool {
	t.Helper()
	tc, err := src.txFor(dst)
	if err != nil {
		t.Fatal(err)
	}
	tc.sendMu.Lock()
	state := tc.batcher.gso
	tc.sendMu.Unlock()
	switch state {
	case gsoOn:
		t.Log("UDP_SEGMENT probe: ok")
	case gsoOff:
		t.Log("UDP_SEGMENT probe: refused: send falls back to sendmmsg")
	default:
		t.Log("UDP_SEGMENT probe: no eligible burst was sent")
	}
	return state == gsoOn
}

// handSlot is one recvmmsg slot as the kernel would leave it.
type handSlot struct {
	data    []byte
	from    netip.AddrPort
	ctrl    [2]rxCmsg
	ctrlLen int // msg_controllen on return; 0 = no control message
}

// cmsg4 is a well-formed control message with a 4-byte value.
func cmsg4(level, typ, val int32) rxCmsg {
	var c rxCmsg
	c.hdr.Len, c.hdr.Level, c.hdr.Type, c.val = cmsgLen4, level, typ, val
	return c
}

// groSlot is a slot carrying a well-formed UDP_GRO cmsg.
func groSlot(data []byte, seg int32) handSlot {
	s := handSlot{data: data, ctrlLen: int(syscall.CmsgSpace(4))}
	s.ctrl[0] = cmsg4(solUDP, udpGRO, seg)
	return s
}

// dropSlot is a slot carrying a well-formed SO_RXQ_OVFL cmsg.
func dropSlot(data []byte, drops uint32) handSlot {
	s := handSlot{data: data, ctrlLen: int(syscall.CmsgSpace(4))}
	s.ctrl[0] = cmsg4(syscall.SOL_SOCKET, syscall.SO_RXQ_OVFL, int32(drops))
	return s
}

// handBuilt returns a reader whose last recvmmsg "filled" the given
// slots. No socket is involved: decode only reads the resident state.
func handBuilt(slots ...handSlot) *batchReader {
	r := &batchReader{count: len(slots)}
	for i, s := range slots {
		r.bufs[i] = s.data
		r.msgs[i].len = uint32(len(s.data))
		r.msgs[i].hdr.SetControllen(s.ctrlLen)
		r.ctrls[i] = s.ctrl
		if !s.from.IsValid() {
			s.from = netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), uint16(4000+i))
		}
		r.names[i].Family = syscall.AF_INET
		r.names[i].Addr = s.from.Addr().As4()
		r.names[i].Port = s.from.Port()>>8 | s.from.Port()<<8 // network byte order on a little-endian host
		slots[i].from = s.from
	}
	return r
}

// splitAll runs decode to exhaustion the way the rxLoop does — one
// batch at a time, reading every frame through datagram(i) — and
// returns each slot's frames in order. It fails on an empty or
// over-full batch, on a frame attributed to the wrong source, and on
// frames that arrive out of slot order.
func splitAll(t testing.TB, r *batchReader, slots []handSlot) [][][]byte {
	t.Helper()
	out := make([][][]byte, len(slots))
	cur := 0
	for batches := 0; r.slot < r.count; batches++ {
		if batches > 1<<16 {
			t.Fatal("decode does not terminate")
		}
		n := r.decode()
		if n <= 0 || n > rxMaxFrames {
			t.Fatalf("decode returned %d frames with slots left (table holds %d)", n, rxMaxFrames)
		}
		for i := 0; i < n; i++ {
			frame, from := r.datagram(i)
			slot := int(r.slotOf[i])
			if slot < cur || slot >= len(slots) {
				t.Fatalf("frame from slot %d after slot %d", slot, cur)
			}
			cur = slot
			if from != slots[slot].from {
				t.Fatalf("slot %d frame attributed to %v, want %v", slot, from, slots[slot].from)
			}
			out[slot] = append(out[slot], frame)
		}
	}
	if n := r.decode(); n != 0 {
		t.Fatalf("decode returned %d frames after the last slot", n)
	}
	return out
}

// checkSplit asserts slot's frames are data cut at seg: all seg long
// but the last, nothing lost, nothing repeated, views not copies.
func checkSplit(t testing.TB, frames [][]byte, data []byte, seg int) {
	t.Helper()
	want := 1
	if seg > 0 && seg < len(data) {
		want = (len(data) + seg - 1) / seg
	} else {
		seg = len(data)
	}
	if len(frames) != want {
		t.Fatalf("%d bytes at segment %d: got %d frames, want %d", len(data), seg, len(frames), want)
	}
	off := 0
	for i, f := range frames {
		if i < len(frames)-1 && len(f) != seg {
			t.Fatalf("frame %d of %d is %d bytes, want %d", i, len(frames), len(f), seg)
		}
		if len(f) > seg {
			t.Fatalf("frame %d is %d bytes, longer than the segment %d", i, len(f), seg)
		}
		if len(f) > 0 && &f[0] != &data[off] {
			t.Fatalf("frame %d does not alias the slot at offset %d", i, off)
		}
		off += len(f)
	}
	if off != len(data) {
		t.Fatalf("frames cover %d of %d bytes", off, len(data))
	}
}

func TestGROSplit(t *testing.T) {
	data := func(n int) []byte { return wbPattern(n) }
	with := func(s handSlot, f func(*handSlot)) handSlot { f(&s); return s }
	cases := []struct {
		name string
		slot handSlot
		seg  int // effective segment: 0 = the slot is one frame
	}{
		{"no cmsg", handSlot{data: data(1500)}, 0},
		{"empty datagram", handSlot{data: data(0)}, 0},
		{"exact multiple", groSlot(data(4500), 1500), 1500},
		{"short tail", groSlot(data(4000), 1500), 1500},
		{"43 segments", groSlot(data(43*1500), 1500), 1500},
		{"one-byte tail", groSlot(data(3001), 1500), 1500},
		{"segment equals length", groSlot(data(1500), 1500), 0},
		{"segment beyond length", groSlot(data(700), 1500), 0},
		{"segment zero", groSlot(data(3000), 0), 0},
		{"segment negative", groSlot(data(3000), -1500), 0},
		{"controllen short of the value", with(groSlot(data(3000), 1500), func(s *handSlot) { s.ctrlLen = syscall.SizeofCmsghdr }), 0},
		{"cmsg_len short of the value", with(groSlot(data(3000), 1500), func(s *handSlot) { s.ctrl[0].hdr.Len = syscall.SizeofCmsghdr + 2 }), 0},
		{"foreign level", with(groSlot(data(3000), 1500), func(s *handSlot) { s.ctrl[0].hdr.Level = syscall.SOL_SOCKET }), 0},
		{"foreign type", with(groSlot(data(3000), 1500), func(s *handSlot) { s.ctrl[0].hdr.Type = udpSegment }), 0},
		{"stale cmsg, controllen zero", with(groSlot(data(3000), 1500), func(s *handSlot) { s.ctrlLen = 0 }), 0},
		{"more frames than the table", groSlot(data(3*rxMaxFrames+17), 1), 1},
		{"table fills on a slot boundary", groSlot(data(2*rxMaxFrames), 2), 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// A plain datagram on either side: the slot under test must
			// neither swallow its neighbours nor leak into them, wherever
			// the table happens to fill up.
			before, after := handSlot{data: data(100)}, handSlot{data: data(64)}
			slots := []handSlot{before, c.slot, after}
			got := splitAll(t, handBuilt(slots...), slots)
			checkSplit(t, got[0], before.data, 0)
			checkSplit(t, got[1], c.slot.data, c.seg)
			checkSplit(t, got[2], after.data, 0)
		})
	}
	t.Run("full recvmmsg of superframes", func(t *testing.T) {
		// 16 slots × 64 segments: the most a wake-up can yield from
		// well-behaved peers, four tables' worth.
		slots := make([]handSlot, rxBatchSize)
		for i := range slots {
			slots[i] = groSlot(data(gsoMaxSegs*1000-i), 1000)
		}
		got := splitAll(t, handBuilt(slots...), slots)
		for i := range slots {
			checkSplit(t, got[i], slots[i].data, 1000)
		}
	})
}

// TestGRODropCount: a slot may carry the UDP_GRO segment size, the
// SO_RXQ_OVFL drop count, both (in either order) or neither, and either
// may be cut short (MSG_CTRUNC). decode splits by the one and adds the
// rise of the other to drops: a drop count is cumulative per socket, so
// a repeated or a lower count adds nothing.
func TestGRODropCount(t *testing.T) {
	space := int(syscall.CmsgSpace(4))
	data := wbPattern(4000)
	gro, ovfl := cmsg4(solUDP, udpGRO, 1500), cmsg4(syscall.SOL_SOCKET, syscall.SO_RXQ_OVFL, 7)
	cases := []struct {
		name    string
		ctrl    [2]rxCmsg
		ctrlLen int
		seg     int
		drops   int64
	}{
		{"GRO only", [2]rxCmsg{gro}, space, 1500, 0},
		{"drop count only", [2]rxCmsg{ovfl}, space, 0, 7},
		{"both", [2]rxCmsg{gro, ovfl}, 2 * space, 1500, 7},
		{"both, drop count first", [2]rxCmsg{ovfl, gro}, 2 * space, 1500, 7},
		{"second truncated to its header", [2]rxCmsg{gro, ovfl}, space + syscall.SizeofCmsghdr, 1500, 0},
		{"second's value cut short", [2]rxCmsg{gro, func() rxCmsg { c := ovfl; c.hdr.Len = syscall.SizeofCmsghdr + 2; return c }()}, 2 * space, 1500, 0},
		{"first overruns the buffer", [2]rxCmsg{ovfl, gro}, syscall.SizeofCmsghdr + 2, 0, 0},
		{"controllen beyond the buffer", [2]rxCmsg{gro, ovfl}, 255, 1500, 7},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := handSlot{data: data, ctrl: c.ctrl, ctrlLen: c.ctrlLen}
			slots := []handSlot{s}
			r := handBuilt(slots...)
			checkSplit(t, splitAll(t, r, slots)[0], data, c.seg)
			if got := r.drops.Value(); got != c.drops {
				t.Fatalf("drops %d, want %d", got, c.drops)
			}
		})
	}
	t.Run("cumulative", func(t *testing.T) {
		// 3, 3 again, 8, then a stale 5: the socket dropped 8 in all.
		slots := []handSlot{dropSlot(data, 3), dropSlot(data, 3), groSlot(data, 1000), dropSlot(data, 8), dropSlot(data, 5)}
		slots[2].ctrl[1] = cmsg4(syscall.SOL_SOCKET, syscall.SO_RXQ_OVFL, 3)
		slots[2].ctrlLen = 2 * space
		r := handBuilt(slots...)
		got := splitAll(t, r, slots)
		checkSplit(t, got[2], data, 1000)
		if d := r.drops.Value(); d != 8 {
			t.Fatalf("drops %d, want 8", d)
		}
	})
}

func FuzzGROSplit(f *testing.F) {
	space := uint8(syscall.CmsgSpace(4))
	f.Add(1500, int32(0), uint8(0), uint64(0), int32(0), int32(0))
	f.Add(4500, int32(1500), space, uint64(cmsgLen4), int32(solUDP), int32(udpGRO))
	f.Add(4000, int32(1500), space, uint64(cmsgLen4), int32(solUDP), int32(udpGRO))
	f.Add(700, int32(1500), space, uint64(cmsgLen4), int32(solUDP), int32(udpGRO))
	f.Add(3000, int32(-1), space, uint64(cmsgLen4), int32(solUDP), int32(udpGRO))
	f.Add(3000, int32(1500), uint8(16), uint64(cmsgLen4), int32(solUDP), int32(udpGRO))
	f.Add(3000, int32(1500), space, uint64(18), int32(solUDP), int32(udpGRO))
	f.Add(3000, int32(1500), space, uint64(cmsgLen4), int32(syscall.SOL_SOCKET), int32(udpGRO))
	f.Add(3*rxMaxFrames+17, int32(1), space, uint64(cmsgLen4), int32(solUDP), int32(udpGRO))
	f.Add(0, int32(1), space, uint64(cmsgLen4), int32(solUDP), int32(udpGRO))
	// The same slot fields carry an SO_RXQ_OVFL drop count in seg.
	f.Add(3000, int32(7), space, uint64(cmsgLen4), int32(syscall.SOL_SOCKET), int32(syscall.SO_RXQ_OVFL))
	f.Add(3000, int32(-7), space, uint64(cmsgLen4), int32(syscall.SOL_SOCKET), int32(syscall.SO_RXQ_OVFL))
	f.Add(3000, int32(7), uint8(16), uint64(cmsgLen4), int32(syscall.SOL_SOCKET), int32(syscall.SO_RXQ_OVFL))
	f.Add(3000, int32(7), space, uint64(18), int32(syscall.SOL_SOCKET), int32(syscall.SO_RXQ_OVFL))
	f.Add(3000, int32(1500), uint8(255), uint64(200), int32(solUDP), int32(udpGRO))
	f.Fuzz(func(t *testing.T, size int, seg int32, ctrlLen uint8, cmsgLen uint64, level, typ int32) {
		if size < 0 || size > rxSlotBytes {
			t.Skip()
		}
		s := handSlot{data: wbPattern(size), ctrlLen: int(ctrlLen)}
		s.ctrl[0].hdr.Len, s.ctrl[0].hdr.Level, s.ctrl[0].hdr.Type, s.ctrl[0].val = cmsgLen, level, typ, seg
		// A message is read when it has its value and fits the control
		// buffer the reader passed (msg_controllen never exceeds it).
		read := uint64(ctrlLen) >= cmsgLen4 && cmsgLen >= cmsgLen4 && cmsgLen <= min(uint64(ctrlLen), uint64(unsafe.Sizeof(s.ctrl)))
		want, drops := 0, int64(0)
		if read && level == solUDP && typ == udpGRO {
			want = int(seg)
		}
		if read && level == syscall.SOL_SOCKET && typ == syscall.SO_RXQ_OVFL && seg > 0 {
			drops = int64(seg)
		}
		sentinel := handSlot{data: wbPattern(33)}
		slots := []handSlot{s, sentinel}
		r := handBuilt(slots...)
		got := splitAll(t, r, slots)
		checkSplit(t, got[0], s.data, want)
		checkSplit(t, got[1], sentinel.data, 0)
		if d := r.drops.Value(); d != drops {
			t.Fatalf("drops %d, want %d", d, drops)
		}
	})
}

// metric reads one of n's telemetry counters, summed over its series.
func metric(n *Node, name string) float64 {
	var sum float64
	for _, m := range n.Telemetry().Snapshot() {
		if m.Name == name && m.Value != nil {
			sum += *m.Value
		}
	}
	return sum
}

func TestGROEndToEnd(t *testing.T) {
	groErr := probeGRO(t)
	const size = 64 << 10
	cases := []struct {
		name string
		cfg  func(*Config)
		// writes bounds the sender's socket writes per message when one
		// message is in flight at a time, [lo, hi].
		writes [2]float64
		// deep: a flush carries more than rxBatchSize fragments, so a
		// mean burst above rxBatchSize frames proves superframes were
		// received whole and split here (recvmmsg alone tops out at
		// rxBatchSize frames per burst).
		deep bool
	}{
		// 45 fragments: a 43-segment superframe and a 2-segment one.
		{"mtu1500", func(c *Config) { c.Window = 64 }, [2]float64{2, 2}, true},
		// 8 fragments, 7 to a superframe.
		{"mtu9000", func(c *Config) { c.MTU = 9000; c.Window = 64 }, [2]float64{2, 2}, false},
		// 349 fragments: by bytes 325 would fit one superframe, so the
		// 64-segment cap binds — 6 writes; fewer would mean an over-long
		// burst that skipped GSO for one big sendmmsg.
		{"mtu200", func(c *Config) { c.MTU = 200; c.Window = 512 }, [2]float64{6, 6}, true},
		// Window below the burst: the window-full rule flushes every 8
		// fragments at most.
		{"window8", func(c *Config) { c.Window = 8 }, [2]float64{6, 45}, false},
		{"shards2", func(c *Config) { c.Window = 64; c.Shards = 2 }, [2]float64{2, 2}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			c.cfg(&cfg)
			const streamed, paced = 80, 10
			cfg.PortDepth = streamed
			// Loopback loses nothing, so a retransmission here could only be
			// a spurious one (a slow -race receiver against the 5 ms floor),
			// and each is a write and a burst of its own.
			cfg.RetransmitTimeout, cfg.RTOMin = 5*time.Second, 5*time.Second
			a, b := wbPair(t, cfg)
			deadline := time.NewTimer(60 * time.Second)
			defer deadline.Stop()
			want := wbPattern(size)
			recv := func(i int) {
				t.Helper()
				m := recvBefore(t, deadline, a, b, 7)
				want[0] = byte(i) // in-order delivery is part of byte-exact
				if !bytes.Equal(m.Data, want) {
					t.Fatalf("message %d: payload differs (%d bytes, first byte %d)", i, len(m.Data), m.Data[0])
				}
			}

			// Streamed: the window fills mid-message, so flushes of every
			// size up to the burst cross the socket, several to a read.
			payload := wbPattern(size)
			errs := make(chan error, 1)
			// The last message is confirmed, so the window is empty after
			// it: the RTO is parked and cannot probe for the tail's ack.
			go func() {
				for i := 0; i < streamed; i++ {
					payload[0] = byte(i)
					send := a.Send
					if i == streamed-1 {
						send = a.SendConfirm
					}
					if err := send(1, 7, payload); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()
			for i := 0; i < streamed; i++ {
				recv(i)
			}
			if err := <-errs; err != nil {
				t.Fatal(err)
			}

			// One message at a time, each confirmed before the next: the
			// unit counts do not depend on how the two sides interleave.
			delta := func(n *Node, name string) func() float64 {
				before := metric(n, name)
				return func() float64 { return metric(n, name) - before }
			}
			writes := delta(a, "live_socket_writes_total")
			frames, bursts := delta(b, "live_rx_burst_frames_total"), delta(b, "live_rx_bursts_total")
			for i := 0; i < paced; i++ {
				payload[0] = byte(i)
				if err := a.SendConfirm(1, 7, payload); err != nil {
					t.Fatal(err)
				}
				recv(i)
			}
			if drops := metric(b, "live_port_drops_total"); drops != 0 {
				t.Fatalf("%v port drops", drops)
			}
			gso := gsoLatched(t, a, 1)
			perMsg, depth := writes()/paced, frames()/bursts()
			t.Logf("%.2f socket writes per message, %.1f frames per receive burst", perMsg, depth)
			if resent := metric(a, "live_retransmits_total"); resent != 0 {
				t.Skipf("%v retransmissions despite a 5 s timeout: delivery verified, unit counts not", resent)
			}
			if perMsg < c.writes[0] || perMsg > c.writes[1] {
				t.Errorf("sender issued %.2f socket writes per message, want %v", perMsg, c.writes)
			}
			if !c.deep {
				return
			}
			if groErr != nil || !gso {
				t.Skipf("no superframes on this kernel (UDP_GRO: %v, UDP_SEGMENT on: %v); delivery verified, depth not", groErr, gso)
			}
			if depth <= rxBatchSize {
				t.Errorf("%.1f frames per burst: superframes were not received whole (recvmmsg alone gives at most %d)", depth, rxBatchSize)
			}
		})
	}
}

// TestGROInteropPlainReader: a GSO sender into a socket that never set
// UDP_GRO. The kernel cuts each superframe back into datagrams before
// queueing, no slot carries the cmsg, and the same reader hands out
// MTU-sized frames in sequence order.
func TestGROInteropPlainReader(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Window = 64
	cfg.RetransmitTimeout, cfg.RTOMin = 10*time.Second, 10*time.Second // nobody acks: keep go-back-N out of the picture
	a, err := NewNode(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	plain, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	a.AddPeer(1, plain.LocalAddr().(*net.UDPAddr))
	raw, err := plain.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	br := newBatchReader(plain, raw)
	defer br.close()

	payload := wbPattern(64 << 10) // 45 fragments fit the window: Send returns without an ack
	if err := a.Send(1, 7, payload); err != nil {
		t.Fatal(err)
	}
	gsoLatched(t, a, 1)
	plain.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // a failed deadline only delays the failure
	var got []byte
	for seq := uint32(0); len(got) < len(payload); {
		n, err := br.readBatch()
		if err != nil {
			t.Fatalf("after %d of %d bytes: %v", len(got), len(payload), err)
		}
		for i := 0; i < n; i++ {
			frame, from := br.datagram(i)
			if len(frame) > cfg.MTU {
				t.Fatalf("a %d-byte frame reached a socket without UDP_GRO (MTU %d)", len(frame), cfg.MTU)
			}
			if from.Port() != uint16(a.Addr().Port) {
				t.Fatalf("frame from %v, want port %d", from, a.Addr().Port)
			}
			hdr, body, err := proto.DecodeHeader(frame)
			if err != nil {
				t.Fatal(err)
			}
			if hdr.Seq != seq {
				t.Fatalf("frame %d arrived where %d was due", hdr.Seq, seq)
			}
			seq++
			got = append(got, body...)
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("reassembled payload differs")
	}
}

// TestGROInteropPlainSender: a sender that writes every frame as a
// datagram of its own — a bare UDP socket writing each message's frames
// one sendto at a time — into a node's GRO reader. Slots come without
// the cmsg, each is one frame, and delivery is as before.
func TestGROInteropPlainSender(t *testing.T) {
	probeGRO(t) //nolint:errcheck // logged; delivery must hold either way
	cfg := DefaultConfig()
	cfg.Window = 64
	b, err := NewNode(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	plain, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	b.AddPeer(0, plain.LocalAddr().(*net.UDPAddr)) // b's acks land here unread
	to := b.Addr().AddrPort()
	const msgs = 20
	payload := wbPattern(64 << 10)
	maxP := cfg.MTU - proto.HeaderBytes
	frames, seq := 0, uint32(0)
	for i := 0; i < msgs; i++ {
		payload[0] = byte(i)
		for off := 0; off < len(payload); off += maxP {
			end := min(off+maxP, len(payload))
			hdr := proto.Header{Type: proto.TypeData, Port: 7, Seq: seq, Len: uint32(len(payload))}
			if off == 0 {
				hdr.Flags |= proto.FlagFirst
			}
			if end == len(payload) {
				hdr.Flags |= proto.FlagLast
			}
			if _, err := plain.WriteToUDPAddrPort(append(hdr.Encode(nil), payload[off:end]...), to); err != nil {
				t.Fatal(err)
			}
			seq++
			frames++
		}
		m, err := b.Recv(7)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m.Data, payload) {
			t.Fatalf("message %d: payload differs", i)
		}
	}
	if got := metric(b, "live_rx_burst_frames_total"); got != float64(frames) {
		t.Fatalf("the reader cut %v frames from %d single datagrams", got, frames)
	}
}

// TestListenShardsOwnPort: a sharded node's port belongs to it alone.
// With SO_REUSEPORT set before shard 0's bind the kernel could hand a
// new group a port an open group of the process already held, and the
// two nodes then split each other's datagrams (300 groups collide with
// probability ≈ 0.8).
func TestListenShardsOwnPort(t *testing.T) {
	const groups = 300
	seen := make(map[int]int, groups)
	for g := 0; g < groups; g++ {
		conns, err := listenShards(2)
		if err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
		port := conns[0].LocalAddr().(*net.UDPAddr).Port
		if other := conns[1].LocalAddr().(*net.UDPAddr).Port; other != port {
			t.Fatalf("group %d: shards on ports %d and %d", g, port, other)
		}
		if prev, dup := seen[port]; dup {
			t.Fatalf("groups %d and %d were both given port %d", prev, g, port)
		}
		seen[port] = g
	}
	// The group is a real one: an exclusive bind of a held port fails,
	// and a third socket cannot join from outside without the option.
	port := 0
	for p := range seen {
		port = p
		break
	}
	if c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port}); err == nil {
		c.Close()
		t.Fatalf("port %d is held by a shard group, yet a plain bind succeeded", port)
	}
}

// TestShardGroupSplitsFlows: both sockets of a group receive — setting
// SO_REUSEPORT on shard 0 only after its bind still forms one group.
func TestShardGroupSplitsFlows(t *testing.T) {
	conns, err := listenShards(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range conns {
		defer c.Close()
	}
	const flows = 64
	for i := 0; i < flows; i++ {
		c, err := net.DialUDP("udp4", nil, conns[0].LocalAddr().(*net.UDPAddr))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write([]byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for i, c := range conns {
		got := 0
		buf := make([]byte, 16)
		for {
			c.SetReadDeadline(time.Now().Add(200 * time.Millisecond)) //nolint:errcheck // a failed deadline only delays the failure
			if _, _, err := c.ReadFromUDP(buf); err != nil {
				break
			}
			got++
		}
		t.Logf("shard %d received %d of %d flows", i, got, flows)
		if got == 0 {
			t.Errorf("shard %d received nothing: the sockets do not form one reuseport group", i)
		}
		total += got
	}
	if total != flows {
		t.Errorf("the group received %d of %d datagrams", total, flows)
	}
}

// TestFaultsKeepTheBatch: injected faults act on the burst the batch
// writer is about to write, so a lossy sender writes superframes like a
// clean one (a per-datagram fault path wrote ~45 datagrams per 64 KiB
// message one syscall each) and every datagram stays accounted for:
// each one handed to the fault stage — data frames pushed, repairs,
// stand-alone acks — is written (twice when duplicated) or counted as
// lost.
func TestFaultsKeepTheBatch(t *testing.T) {
	const msgs = 60
	cfg := DefaultConfig()
	cfg.Window = 64
	cfg.LossRate, cfg.DupRate, cfg.ReorderRate = 0.01, 0.01, 0.01
	cfg.Seed = 3
	cfg.PortDepth = msgs
	a, b := wbPair(t, cfg)
	deadline := time.NewTimer(60 * time.Second)
	defer deadline.Stop()

	payload := wbPattern(64 << 10)
	errs := make(chan error, 1)
	go func() {
		for i := 0; i < msgs; i++ {
			payload[0] = byte(i)
			send := a.Send
			if i == msgs-1 {
				send = a.SendConfirm // the window is empty after it
			}
			if err := send(1, 7, payload); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	want := wbPattern(64 << 10)
	for i := 0; i < msgs; i++ {
		m := recvBefore(t, deadline, a, b, 7)
		want[0] = byte(i) // in order, so exactly once
		if !bytes.Equal(m.Data, want) {
			t.Fatalf("message %d: payload differs (%d bytes, first byte %d)", i, len(m.Data), m.Data[0])
		}
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}

	// ledger returns both sides of a node's frame ledger: datagrams
	// written plus injected losses, and datagrams handed to the fault
	// stage — data frames pushed (sequences start at 0), repairs and
	// stand-alone acks — plus injected duplicates.
	ledger := func(n *Node) (written, accounted int64) {
		snap := n.HealthSnapshot()
		c := snap.Counters
		accounted = c["retransmits"] + c["acks_sent"] + c["dups_injected"]
		for _, ch := range snap.Channels {
			if ch.Dir == "tx" {
				accounted += int64(ch.NextSeq)
			}
		}
		return c[health.CounterTxFrames] + c["loss_injected"], accounted
	}
	// A reordered write lands up to reorderDelay after its burst, and a
	// late frame may still draw an ack: wait for both ledgers to settle.
	for settle := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		aw, aa := ledger(a)
		bw, ba := ledger(b)
		if aw == aa && bw == ba {
			break
		}
		if time.Now().After(settle) {
			t.Fatalf("ledger: sender %d written+lost vs %d handed+duplicated, receiver %d vs %d", aw, aa, bw, ba)
		}
	}
	if m, ok := b.TryRecv(7); ok {
		t.Fatalf("a duplicate of message %d leaked through", m.Data[0])
	}
	c := a.HealthSnapshot().Counters
	t.Logf("sender: %d lost, %d duplicated, %v reordered, %d retransmits", c["loss_injected"], c["dups_injected"],
		metric(a, "live_reorders_injected_total"), c["retransmits"])
	if c["loss_injected"] == 0 || c["dups_injected"] == 0 || metric(a, "live_reorders_injected_total") == 0 {
		t.Fatal("a fault kind never engaged: the test covers less than it claims")
	}
	for _, n := range []*Node{a, b} {
		if d := n.HealthSnapshot().Counters["rx_sock_drops"]; d != 0 {
			t.Errorf("%s: %d receive-queue drops", n.nodeName, d)
		}
	}
	perMsg := metric(a, "live_socket_writes_total") / msgs
	// One GSO sendmsg or, where the kernel refuses UDP_SEGMENT, one
	// sendmmsg per burst: the bound holds either way.
	gsoLatched(t, a, 1)
	t.Logf("%.2f socket writes per message", perMsg)
	if perMsg >= 4 {
		t.Errorf("%.2f socket writes per 45-frame message: the lossy sender does not write superframes", perMsg)
	}
}
