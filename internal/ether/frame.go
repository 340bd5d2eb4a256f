// Package ether models the Gigabit Ethernet data-link layer CLIC is built
// on (§3.1): level-1 (pure Ethernet) framing, full-duplex point-to-point
// links and a store-and-forward switch with MAC learning, output queues
// and hardware broadcast/multicast.
package ether

import (
	"fmt"

	"repro/internal/sim"
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// Broadcast is the all-ones broadcast address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// IsBroadcast reports whether the address is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == Broadcast }

// IsMulticast reports whether the group bit (I/G) is set.
func (m MAC) IsMulticast() bool { return m[0]&1 == 1 }

// String formats the address in colon-hex.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// NodeMAC returns the locally-administered unicast address for interface
// nic of node.
func NodeMAC(node, nic int) MAC {
	return MAC{0x02, 0x00, 0x00, byte(node >> 8), byte(node), byte(nic)}
}

// GroupMAC returns a multicast group address.
func GroupMAC(group int) MAC {
	return MAC{0x03, 0x00, 0x5e, 0x00, byte(group >> 8), byte(group)}
}

// EtherType identifies the payload protocol (the level-1 header's 2-byte
// type field, §3.1).
type EtherType uint16

// EtherTypes used by the stacks in this repository.
const (
	TypeIPv4  EtherType = 0x0800
	TypeCLIC  EtherType = 0x88B5 // IEEE experimental ethertype 1
	TypeVIA   EtherType = 0x88B6 // IEEE experimental ethertype 2 (VIA model)
	TypeGAMMA EtherType = 0x88B7 // GAMMA comparator model
)

// Ethernet framing constants (bytes).
const (
	HeaderBytes   = 14 // dst(6) + src(6) + type(2): the level-1 header
	CRCBytes      = 4
	PreambleBytes = 8  // preamble + SFD
	IFGBytes      = 12 // inter-frame gap
	MinPayload    = 46 // frames are padded up to the 64-byte minimum
)

// Frame is one Ethernet frame in flight. Payload carries the real bytes of
// the encapsulated packet so end-to-end integrity can be checked in tests.
//
// The Frag fields are a NIC-to-NIC shim used only by the fragmentation
// offload of §2 (the Gilfeather/Underwood technique the paper defers to
// future work): a transmitting NIC splits a super-packet into wire frames
// tagged with a fragment id, and the receiving NIC reassembles them before
// interrupting the host. They are zero on ordinary frames.
type Frame struct {
	Dst, Src MAC
	Type     EtherType
	Payload  []byte

	FragID    uint64
	FragIdx   int
	FragTotal int

	// FlightID is the flight recorder's correlation key, assigned by the
	// sending CLIC_MODULE when a journal is attached. The id rides the
	// shared frame pointer through links and the switch, so sender-side
	// and receiver-side spans stitch into one lifecycle. Zero means the
	// frame is not being recorded.
	FlightID uint64
}

// PayloadOnWire returns the payload size after minimum-frame padding.
func (f *Frame) PayloadOnWire() int {
	if n := len(f.Payload); n > MinPayload {
		return n
	}
	return MinPayload
}

// WireBytes returns the total bytes the frame occupies on the wire,
// including header, CRC, preamble and the inter-frame gap.
func (f *Frame) WireBytes() int {
	return PreambleBytes + HeaderBytes + f.PayloadOnWire() + CRCBytes + IFGBytes
}

// WireTime returns the serialisation time of the frame at the given line
// rate in bits per second.
func (f *Frame) WireTime(bitsPerSec int64) sim.Time {
	bits := int64(f.WireBytes()) * 8
	return sim.Time((bits*1_000_000_000 + bitsPerSec - 1) / bitsPerSec)
}

// Endpoint is anything a link can deliver frames to (a NIC or a switch
// port). DeliverFrame is invoked in simulation context and must not block;
// implementations enqueue and return.
type Endpoint interface {
	DeliverFrame(f *Frame)
}
