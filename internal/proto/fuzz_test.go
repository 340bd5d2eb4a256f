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
	// Credit-bearing ack (FlagCredit versions the Len field): a sane
	// credit, a zero credit (sender must stall, not divide by it), and
	// an absurd credit the receiver-side clamp has to survive.
	f.Add(Header{Type: TypeAck, Flags: FlagCredit, Seq: 1000, Len: 32}.Encode(nil))
	f.Add(Header{Type: TypeAck, Flags: FlagCredit, Seq: 0, Len: 0}.Encode(nil))
	f.Add(Header{Type: TypeAck, Flags: FlagCredit, Seq: 0xFFFFFFF0, Len: 0xFFFFFFFF}.Encode(nil))
	// Legacy ack with a non-zero Len but no FlagCredit: the field must
	// be ignored, not misread as a credit.
	f.Add(Header{Type: TypeAck, Flags: 0, Seq: 7, Len: 0xDEAD}.Encode(nil))
	// NACK: a cumulative ack that also reports a hole, framed like the
	// credit-bearing ack above and read through the same credit clamp.
	f.Add(Header{Type: TypeNack, Flags: FlagCredit, Seq: 1, Len: 16}.Encode(nil))
	// Lifecycle packets: hello carrying a node id, hello-ack carrying a
	// credit, and a bye.
	f.Add(Header{Type: TypeHello, Flags: 0, Seq: 42}.Encode(nil))
	f.Add(Header{Type: TypeHello, Flags: FlagLast | FlagCredit, Seq: 7, Len: 16}.Encode(nil))
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
	f.Add(make([]byte, AckExtBytes-1))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		cum, credit, rest, err := DecodeAckExt(b)
		if err != nil {
			if len(b) >= AckExtBytes {
				t.Fatalf("decode rejected a full-size extension: %v", err)
			}
			return
		}
		var re [AckExtBytes]byte
		PutAckExt(re[:], cum, credit)
		if !bytes.Equal(re[:], b[:AckExtBytes]) || !bytes.Equal(rest, b[AckExtBytes:]) {
			t.Fatalf("round trip broke: %x -> (%d, %d, %x)", b, cum, credit, rest)
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
