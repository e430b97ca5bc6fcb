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

func TestTableBindDeliver(t *testing.T) {
	tb := NewTable()
	local := Endpoint{IP: dst, Port: 7}
	s, err := tb.Bind(local, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Bind(local, 2); err == nil {
		t.Fatal("double bind allowed")
	}
	if !tb.Deliver(local, Datagram{From: Endpoint{IP: src, Port: 99}, Payload: []byte("a")}) {
		t.Fatal("delivery to bound port failed")
	}
	if tb.Deliver(Endpoint{IP: dst, Port: 8}, Datagram{}) {
		t.Fatal("delivery to unbound port succeeded")
	}
	tb.Deliver(local, Datagram{Payload: []byte("b")})
	tb.Deliver(local, Datagram{Payload: []byte("c")}) // over limit
	if s.Dropped != 1 || len(s.queue) != 2 {
		t.Fatalf("dropped=%d pending=%d", s.Dropped, len(s.queue))
	}
	d, ok := s.Recv()
	if !ok || string(d.Payload) != "a" || d.From.Port != 99 {
		t.Fatalf("recv = %+v, %v", d, ok)
	}
	s.Recv()
	if _, ok := s.Recv(); ok {
		t.Fatal("recv from empty queue succeeded")
	}
	tb.Unbind(7)
	if tb.Deliver(local, Datagram{}) {
		t.Fatal("delivery after unbind succeeded")
	}
}
