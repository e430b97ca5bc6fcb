package udp

import (
	"bytes"
	"testing"
	"testing/quick"

	"ulp/internal/ipv4"
	"ulp/internal/pkt"
)

var (
	src = ipv4.Addr{10, 0, 0, 1}
	dst = ipv4.Addr{10, 0, 0, 2}
)

func TestCodecRoundTrip(t *testing.T) {
	h := Header{SrcPort: 53, DstPort: 1024}
	b := pkt.FromBytes(HeaderLen, []byte("query"))
	h.Encode(b, src, dst)
	got, err := Decode(b, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != 53 || got.DstPort != 1024 || got.Length != HeaderLen+5 {
		t.Fatalf("decoded %+v", got)
	}
	if string(b.Bytes()) != "query" {
		t.Fatalf("payload %q", b.Bytes())
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	h := Header{SrcPort: 1, DstPort: 2}
	b := pkt.FromBytes(HeaderLen, []byte("payload"))
	h.Encode(b, src, dst)
	b.Bytes()[9] ^= 0x40
	if _, err := Decode(b, src, dst); err == nil {
		t.Fatal("corrupted datagram decoded")
	}
}

func TestZeroChecksumAccepted(t *testing.T) {
	h := Header{SrcPort: 1, DstPort: 2}
	b := pkt.FromBytes(HeaderLen, []byte("nocheck"))
	h.Encode(b, src, dst)
	b.Bytes()[6], b.Bytes()[7] = 0, 0 // sender didn't checksum
	if _, err := Decode(b, src, dst); err != nil {
		t.Fatalf("zero-checksum datagram rejected: %v", err)
	}
}

func TestDecodeRejectsShortAndBadLength(t *testing.T) {
	if _, err := Decode(pkt.FromBytes(0, make([]byte, 7)), src, dst); err == nil {
		t.Fatal("short datagram decoded")
	}
	h := Header{SrcPort: 1, DstPort: 2}
	b := pkt.FromBytes(HeaderLen, []byte("x"))
	h.Encode(b, src, dst)
	b.Bytes()[4], b.Bytes()[5] = 0xff, 0xff
	if _, err := Decode(b, src, dst); err == nil {
		t.Fatal("bad length decoded")
	}
}

func TestTrimsPadding(t *testing.T) {
	h := Header{SrcPort: 9, DstPort: 10}
	b := pkt.FromBytes(HeaderLen, []byte("ab"))
	h.Encode(b, src, dst)
	padded := pkt.FromBytes(0, append(append([]byte(nil), b.Bytes()...), make([]byte, 40)...))
	if _, err := Decode(padded, src, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(padded.Bytes(), []byte("ab")) {
		t.Fatalf("payload = %q", padded.Bytes())
	}
}

func TestRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(sp, dp uint16, payload []byte) bool {
		h := Header{SrcPort: sp, DstPort: dp}
		b := pkt.FromBytes(HeaderLen, payload)
		h.Encode(b, src, dst)
		got, err := Decode(b, src, dst)
		return err == nil && got.SrcPort == sp && got.DstPort == dp && bytes.Equal(b.Bytes(), payload)
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
