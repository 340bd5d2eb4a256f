// Package proto defines the wire formats shared by the stacks in this
// repository: the 12-byte CLIC header that rides directly on the Ethernet
// level-1 header (§3.1) with its optional 8-byte piggy-backed ack
// extension, and the IPv4/TCP headers plus Internet checksum used by the
// comparator stack.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// PacketType occupies the first byte of the CLIC header; the paper lists
// MPI packets, internal packets and kernel-function packets (§3.1).
type PacketType uint8

// CLIC packet types.
const (
	TypeData        PacketType = 1  // ordinary message fragment
	TypeAck         PacketType = 2  // internal: cumulative acknowledgement
	TypeRemoteWrite PacketType = 3  // asynchronous remote write (§3.1)
	TypeConfirm     PacketType = 4  // internal: confirmation of reception (§5)
	TypeKernelFn    PacketType = 5  // kernel-function packet (§3.1)
	TypeMPI         PacketType = 6  // MPI packet (§3.1)
	TypeBarrier     PacketType = 7  // internal: collective coordination
	TypeNack        PacketType = 8  // internal: out-of-order notification
	TypeHello       PacketType = 9  // internal: connection handshake (Seq = sender node id)
	TypeBye         PacketType = 10 // internal: connection teardown notice
)

// Header flags.
const (
	FlagFirst   uint8 = 1 << 0 // first fragment of a message
	FlagLast    uint8 = 1 << 1 // last fragment of a message
	FlagConfirm uint8 = 1 << 2 // sender requests a TypeConfirm reply

	// Bit 3 is reserved: it was FlagCredit, which told a credit-bearing
	// ack from a legacy one. Every ack now carries its edge.

	// FlagAck on a data-bearing frame (TypeData, TypeRemoteWrite) says
	// an AckExtBytes extension follows the header: the cumulative ack
	// and edge of the sender's reverse channel, so a reply acknowledges
	// the request it answers with no datagram of its own. Frames
	// without the flag are byte-identical to the 12-byte format.
	FlagAck uint8 = 1 << 4

	// FlagAckReq on a data-bearing frame asks the receiver to ack at the
	// end of the burst that delivers it. Only the sender knows when it
	// runs out of window, so it asks; an unasked frame's ack waits for a
	// reverse data frame to carry it.
	FlagAckReq uint8 = 1 << 5
)

// HeaderBytes is the CLIC header size: 12 bytes (§3.1).
const HeaderBytes = 12

// Header is the CLIC packet header. Layout (big-endian):
//
//	byte 0     Type
//	byte 1     Flags (FlagAckReq on data: ack this burst)
//	bytes 2-3  Port (destination CLIC port)
//	bytes 4-7  Seq (data: channel sequence number; ack/nack: cumulative
//	           ack; hello: sender node id)
//	bytes 8-11 Len (first fragment: total message length; ack/nack and
//	           hello reply: the edge, "you may send below this sequence")
type Header struct {
	Type  PacketType
	Flags uint8
	Port  uint16
	Seq   uint32
	Len   uint32
}

// Encode appends the 12-byte wire form of h to dst and returns the
// extended slice.
func (h Header) Encode(dst []byte) []byte {
	var b [HeaderBytes]byte
	h.Put(b[:])
	return append(dst, b[:]...)
}

// Put writes the 12-byte wire form of h into b[:HeaderBytes] in place —
// the zero-copy framing primitive: a pooled datagram buffer receives its
// header without any intermediate slice or append. b must have room for
// HeaderBytes (the bounds check below panics otherwise, matching slice
// semantics).
func (h Header) Put(b []byte) {
	_ = b[HeaderBytes-1]
	b[0] = byte(h.Type)
	b[1] = h.Flags
	binary.BigEndian.PutUint16(b[2:4], h.Port)
	binary.BigEndian.PutUint32(b[4:8], h.Seq)
	binary.BigEndian.PutUint32(b[8:12], h.Len)
}

// ErrShortHeader reports a buffer smaller than a CLIC header.
var ErrShortHeader = errors.New("proto: buffer shorter than CLIC header")

// DecodeHeader parses a CLIC header from the front of b and returns the
// header and the remaining payload.
func DecodeHeader(b []byte) (Header, []byte, error) {
	if len(b) < HeaderBytes {
		return Header{}, nil, ErrShortHeader
	}
	h := Header{
		Type:  PacketType(b[0]),
		Flags: b[1],
		Port:  binary.BigEndian.Uint16(b[2:4]),
		Seq:   binary.BigEndian.Uint32(b[4:8]),
		Len:   binary.BigEndian.Uint32(b[8:12]),
	}
	return h, b[HeaderBytes:], nil
}

// AckExtBytes is the size of the FlagAck extension.
const AckExtBytes = 8

// PutAckExt writes the FlagAck extension into b[:AckExtBytes]. Layout
// (big-endian):
//
//	bytes 0-3  cumulative ack of the sender's reverse channel
//	bytes 4-7  that channel's edge
func PutAckExt(b []byte, cum, edge uint32) {
	_ = b[AckExtBytes-1]
	binary.BigEndian.PutUint32(b[0:4], cum)
	binary.BigEndian.PutUint32(b[4:8], edge)
}

// ErrShortAckExt reports a FlagAck frame too short for its extension.
var ErrShortAckExt = errors.New("proto: FlagAck frame shorter than its ack extension")

// DecodeAckExt parses the FlagAck extension from the front of b (the
// payload DecodeHeader returned) and returns it with the payload that
// follows.
func DecodeAckExt(b []byte) (cum, edge uint32, rest []byte, err error) {
	if len(b) < AckExtBytes {
		return 0, 0, nil, ErrShortAckExt
	}
	return binary.BigEndian.Uint32(b[0:4]), binary.BigEndian.Uint32(b[4:8]), b[AckExtBytes:], nil
}

// String renders the header for traces.
func (h Header) String() string {
	return fmt.Sprintf("clic{t=%d f=%#x port=%d seq=%d len=%d}",
		h.Type, h.Flags, h.Port, h.Seq, h.Len)
}
