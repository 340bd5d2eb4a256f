package proto

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestCLICHeaderRoundTrip(t *testing.T) {
	f := func(typ, flags uint8, port uint16, seq, length uint32) bool {
		h := Header{Type: PacketType(typ), Flags: flags, Port: port, Seq: seq, Len: length}
		wire := h.Encode(nil)
		if len(wire) != HeaderBytes {
			return false
		}
		got, rest, err := DecodeHeader(wire)
		return err == nil && len(rest) == 0 && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCLICHeaderPreservesPayload(t *testing.T) {
	h := Header{Type: TypeData, Flags: FlagFirst | FlagLast, Port: 7, Seq: 42, Len: 3}
	payload := []byte{0xde, 0xad, 0xbe}
	wire := append(h.Encode(nil), payload...)
	got, rest, err := DecodeHeader(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("header %v, want %v", got, h)
	}
	if !bytes.Equal(rest, payload) {
		t.Errorf("payload %x, want %x", rest, payload)
	}
}

func TestCLICHeaderShort(t *testing.T) {
	if _, _, err := DecodeHeader(make([]byte, HeaderBytes-1)); err != ErrShortHeader {
		t.Errorf("err = %v, want ErrShortHeader", err)
	}
}

func TestAckExtRoundTrip(t *testing.T) {
	f := func(cum, edge uint32, payload []byte) bool {
		h := Header{Type: TypeData, Flags: FlagFirst | FlagLast | FlagAck, Port: 7, Seq: 3, Len: uint32(len(payload))}
		wire := h.Encode(nil)
		var ext [AckExtBytes]byte
		PutAckExt(ext[:], cum, edge)
		wire = append(append(wire, ext[:]...), payload...)
		if len(wire) != HeaderBytes+AckExtBytes+len(payload) {
			return false
		}
		got, rest, err := DecodeHeader(wire)
		if err != nil || got != h {
			return false
		}
		c, e, body, err := DecodeAckExt(rest)
		return err == nil && c == cum && e == edge && bytes.Equal(body, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAckExtShort(t *testing.T) {
	for n := 0; n < AckExtBytes; n++ {
		if _, _, _, err := DecodeAckExt(make([]byte, n)); err != ErrShortAckExt {
			t.Errorf("%d bytes: err = %v, want ErrShortAckExt", n, err)
		}
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	f := func(totalLen, id uint16, src, dst uint32, more bool, fragOffDiv8 uint16) bool {
		h := IPv4Header{
			TotalLen: totalLen,
			ID:       id,
			Protocol: ProtoTCP,
			Src:      src,
			Dst:      dst,
			FragOff:  (fragOffDiv8 % 0x2000) * 8,
		}
		if more {
			h.Flags = MoreFragments
		}
		wire := h.Encode(nil)
		got, rest, err := DecodeIPv4(wire)
		return err == nil && len(rest) == 0 && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIPv4ChecksumDetectsCorruption(t *testing.T) {
	h := IPv4Header{TotalLen: 1500, ID: 9, Protocol: ProtoTCP, Src: 1, Dst: 2}
	wire := h.Encode(nil)
	for i := range wire {
		mutated := append([]byte(nil), wire...)
		mutated[i] ^= 0x01
		if _, _, err := DecodeIPv4(mutated); err == nil {
			// Flipping a checksum-covered bit must be caught (every IPv4
			// header byte is covered).
			t.Errorf("corruption at byte %d not detected", i)
		}
	}
}

func TestTCPRoundTripWithPayload(t *testing.T) {
	f := func(sport, dport uint16, seq, ack uint32, payload []byte) bool {
		h := TCPHeader{SrcPort: sport, DstPort: dport, Seq: seq, Ack: ack,
			Flags: TCPAck | TCPPsh, Window: 4096}
		wire := append(h.Encode(nil, payload), payload...)
		got, rest, err := DecodeTCP(wire)
		return err == nil && got == h && bytes.Equal(rest, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTCPChecksumDetectsPayloadCorruption(t *testing.T) {
	h := TCPHeader{SrcPort: 1, DstPort: 2, Seq: 3, Ack: 4, Flags: TCPAck}
	payload := []byte("hello, cluster")
	wire := append(h.Encode(nil, payload), payload...)
	wire[len(wire)-1] ^= 0xff
	if _, _, err := DecodeTCP(wire); err != ErrBadChecksum {
		t.Errorf("err = %v, want ErrBadChecksum", err)
	}
}

func TestChecksumRFC1071Example(t *testing.T) {
	// The classic example from RFC 1071 §3: bytes 00 01 f2 03 f4 f5 f6 f7
	// sum to ddf2 before folding; the checksum is its complement.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != ^uint16(0xddf2) {
		t.Errorf("checksum = %#x, want %#x", got, ^uint16(0xddf2))
	}
}

func TestChecksumOddSplitEquivalence(t *testing.T) {
	// Property: checksumming a buffer in two parts at any split point,
	// including odd ones, equals checksumming it whole.
	f := func(data []byte, splitAt uint8) bool {
		if len(data) == 0 {
			return true
		}
		split := int(splitAt) % len(data)
		whole := Checksum(data)
		parts := checksumTwo(data[:split], data[split:])
		return whole == parts
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCLICHeaderPutMatchesEncode(t *testing.T) {
	f := func(typ, flags uint8, port uint16, seq, length uint32) bool {
		h := Header{Type: PacketType(typ), Flags: flags, Port: port, Seq: seq, Len: length}
		buf := make([]byte, HeaderBytes+4)
		for i := range buf {
			buf[i] = 0xEE // sentinel: Put must touch exactly HeaderBytes
		}
		h.Put(buf)
		if !bytes.Equal(buf[:HeaderBytes], h.Encode(nil)) {
			return false
		}
		return buf[HeaderBytes] == 0xEE && buf[HeaderBytes+3] == 0xEE
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCLICHeaderPutShortBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Put into an 11-byte buffer did not panic")
		}
	}()
	Header{}.Put(make([]byte, HeaderBytes-1))
}
