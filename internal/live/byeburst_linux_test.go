//go:build linux

package live_test

import (
	"encoding/binary"
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/proto"
)

// udpSegment is the UDP_SEGMENT socket option: a cmsg carrying a uint16
// segment size makes one sendmsg carry several datagrams.
const udpSegment = 103

// TestByeAfterDataInOneBurst: a peer's last message and its bye, sent as
// one UDP-GSO superframe, reach the node in one burst. Dispatched in
// arrival order, the message is delivered and then the bye removes the
// channel, with nothing sent back to the departed peer. Were the bye
// handled first, the message would land in a fresh channel at sequence
// 0, parked behind a hole that never fills, and draw a NACK.
func TestByeAfterDataInOneBurst(t *testing.T) {
	a := node(t, 0, parkedTimers())
	p := newWirePeer(t, a, 5)

	// Seven frames, one short of the ack stride, so the burst below owes
	// the peer an ack that only the bye can cancel.
	p.data(0, 1, 2, 3, 4, 5, 6)
	recvInOrder(t, a, 0, 1, 2, 3, 4, 5, 6)
	p.expect("after 0..6, one short of the ack stride")

	// The superframe's segment size is the data datagram's; the bye, a
	// bare header, is the shorter last segment.
	body := wireBody(7)
	data := append(proto.Header{Type: proto.TypeData, Flags: proto.FlagFirst | proto.FlagLast,
		Port: wirePort, Seq: 7, Len: uint32(len(body))}.Encode(nil), body...)
	bye := proto.Header{Type: proto.TypeBye, Seq: 5}.Encode(nil)
	oob := make([]byte, syscall.CmsgSpace(2))
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
	h.Level, h.Type = syscall.IPPROTO_UDP, udpSegment
	h.SetLen(syscall.CmsgLen(2))
	binary.NativeEndian.PutUint16(oob[syscall.CmsgLen(0):], uint16(len(data)))
	if _, _, err := p.conn.WriteMsgUDPAddrPort(append(data, bye...), oob, p.node); err != nil {
		t.Skipf("UDP_SEGMENT refused: %v", err)
	}

	recvInOrder(t, a, 7)
	p.expect("after the bye")
	snap := a.HealthSnapshot()
	if got := snap.Counters["peer_evictions"]; got != 1 {
		t.Errorf("peer_evictions = %d, want 1", got)
	}
	if rc := snapChan(&snap, 5, "rx"); rc != nil {
		t.Errorf("rx channel for the departed peer remains: %+v", rc)
	}
}
