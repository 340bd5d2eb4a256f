package proto

import (
	"bytes"
	"testing"
)

// FuzzDecodeHeader: arbitrary bytes must never panic the CLIC header
// decoder, and anything that decodes must re-encode to the same wire
// bytes (the decoder is a left inverse of the encoder).
func FuzzDecodeHeader(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, HeaderBytes))
	f.Add(Header{Type: TypeData, Flags: FlagFirst | FlagLast, Port: 7, Seq: 42, Len: 99}.Encode(nil))
	// Truncated header: one byte short of the fixed size — the boundary
	// the length check in DecodeHeader guards.
	f.Add(make([]byte, HeaderBytes-1))
	f.Add(Header{Type: TypeData, Flags: FlagFirst, Port: 7, Seq: 1, Len: 9}.Encode(nil)[:HeaderBytes-1])
	// Oversized Len: the 32-bit length field maxed out with no payload
	// behind it — a reassembler trusting Len for allocation would blow up.
	f.Add(Header{Type: TypeData, Flags: FlagFirst | FlagLast, Port: 7, Seq: 1, Len: 0xFFFFFFFF}.Encode(nil))
	// Len larger than the bytes actually present after the header.
	f.Add(append(Header{Type: TypeData, Flags: FlagFirst, Port: 7, Seq: 1, Len: 1 << 30}.Encode(nil), 0xAA, 0xBB))
	// Unknown packet type and all-flags-set: decoders must pass these
	// through, not panic on them.
	f.Add(Header{Type: 0xFF, Flags: 0xFF, Port: 0xFFFF, Seq: 0xFFFFFFFF, Len: 0}.Encode(nil))
	// Edge-bearing acks (Len is the absolute edge): a sane edge, an
	// edge equal to the cum (nothing granted), and one far beyond any
	// window, which the sender must ignore rather than trust.
	f.Add(Header{Type: TypeAck, Seq: 1000, Len: 1032}.Encode(nil))
	f.Add(Header{Type: TypeAck, Seq: 7, Len: 7}.Encode(nil))
	f.Add(Header{Type: TypeAck, Seq: 0xFFFFFFF0, Len: 0x7FFFFFFF}.Encode(nil))
	// NACK: a cumulative ack that also reports a hole, framed like the
	// ack above and joined the same way.
	f.Add(Header{Type: TypeNack, Seq: 1, Len: 17}.Encode(nil))
	// A data frame asking for an ack, and one with the retired bit 3 set.
	f.Add(Header{Type: TypeData, Flags: FlagFirst | FlagLast | FlagAckReq, Seq: 31, Len: 4}.Encode(nil))
	f.Add(Header{Type: TypeAck, Flags: 1 << 3, Seq: 7, Len: 0xDEAD}.Encode(nil))
	// Lifecycle packets: hello carrying a node id, hello reply carrying
	// an edge, and a bye.
	f.Add(Header{Type: TypeHello, Flags: 0, Seq: 42}.Encode(nil))
	f.Add(Header{Type: TypeHello, Flags: FlagLast, Seq: 7, Len: 16}.Encode(nil))
	f.Add(Header{Type: TypeBye, Seq: 3}.Encode(nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		h, rest, err := DecodeHeader(b)
		if err != nil {
			if len(b) >= HeaderBytes {
				t.Fatalf("decode rejected a full-size header: %v", err)
			}
			return
		}
		if len(rest) != len(b)-HeaderBytes {
			t.Fatalf("payload length %d from %d input bytes", len(rest), len(b))
		}
		re := h.Encode(nil)
		if !bytes.Equal(re, b[:HeaderBytes]) {
			t.Fatalf("re-encode mismatch: %x vs %x", re, b[:HeaderBytes])
		}
	})
}

// FuzzDecodeAckExt: arbitrary bytes must never panic the FlagAck
// extension decoder; anything shorter than the extension is refused, and
// anything longer decodes and re-encodes to the same bytes with the rest
// handed back untouched.
func FuzzDecodeAckExt(f *testing.F) {
	f.Add(make([]byte, AckExtBytes))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 's', 'e', 'q'})
	// An edge-bearing extension: cum 0x10, edge 0x30 (cum + a 32-frame
	// window), with a payload behind it; and one whose edge wrapped past
	// zero.
	f.Add([]byte{0, 0, 0, 0x10, 0, 0, 0, 0x30, 'd', 'a', 't', 'a'})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xF0, 0, 0, 0, 0x10})
	f.Add(make([]byte, AckExtBytes-1))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		cum, edge, rest, err := DecodeAckExt(b)
		if err != nil {
			if len(b) >= AckExtBytes {
				t.Fatalf("decode rejected a full-size extension: %v", err)
			}
			return
		}
		var re [AckExtBytes]byte
		PutAckExt(re[:], cum, edge)
		if !bytes.Equal(re[:], b[:AckExtBytes]) || !bytes.Equal(rest, b[AckExtBytes:]) {
			t.Fatalf("round trip broke: %x -> (%d, %d, %x)", b, cum, edge, rest)
		}
	})
}

// FuzzDecodeIPv4: arbitrary bytes must never panic, and only
// checksum-valid headers may decode.
func FuzzDecodeIPv4(f *testing.F) {
	f.Add([]byte{})
	f.Add(IPv4Header{TotalLen: 100, ID: 1, Protocol: ProtoTCP, Src: 1, Dst: 2}.Encode(nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		h, _, err := DecodeIPv4(b)
		if err != nil {
			return
		}
		// A decoded header must survive a round trip.
		re := h.Encode(nil)
		h2, _, err2 := DecodeIPv4(re)
		if err2 != nil || h2 != h {
			t.Fatalf("round trip broke: %v %+v vs %+v", err2, h2, h)
		}
	})
}

// FuzzDecodeTCP: arbitrary bytes must never panic the TCP decoder.
func FuzzDecodeTCP(f *testing.F) {
	f.Add([]byte{})
	hdr := TCPHeader{SrcPort: 1, DstPort: 2, Seq: 3, Ack: 4, Flags: TCPAck, Window: 100}
	f.Add(append(hdr.Encode(nil, []byte("payload")), []byte("payload")...))
	f.Fuzz(func(t *testing.T, b []byte) {
		h, payload, err := DecodeTCP(b)
		if err != nil {
			return
		}
		re := append(h.Encode(nil, payload), payload...)
		h2, p2, err2 := DecodeTCP(re)
		if err2 != nil || h2 != h || !bytes.Equal(p2, payload) {
			t.Fatal("TCP round trip broke")
		}
	})
}

// FuzzChecksumSplit: the two-part checksum must agree with the whole-
// buffer checksum at every split point.
func FuzzChecksumSplit(f *testing.F) {
	f.Add([]byte("hello world"), 3)
	f.Fuzz(func(t *testing.T, data []byte, split int) {
		if len(data) == 0 {
			return
		}
		s := split % len(data)
		if s < 0 {
			s = -s
		}
		if checksumTwo(data[:s], data[s:]) != Checksum(data) {
			t.Fatalf("split checksum mismatch at %d", s)
		}
	})
}
