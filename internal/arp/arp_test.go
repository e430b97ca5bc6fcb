package arp

import (
	"testing"
	"testing/quick"

	"ulp/internal/ipv4"
	"ulp/internal/link"
	"ulp/internal/pkt"
)

var (
	hwA = link.MakeAddr(1)
	hwB = link.MakeAddr(2)
	ipA = ipv4.Addr{10, 0, 0, 1}
	ipB = ipv4.Addr{10, 0, 0, 2}
)

func TestCodecGolden(t *testing.T) {
	p := Packet{Op: OpRequest, SenderHW: hwA, SenderIP: ipA, TargetIP: ipB}
	b := p.Encode(14)
	if b.Len() != PacketLen || b.Headroom() != 14 {
		t.Fatalf("len=%d headroom=%d", b.Len(), b.Headroom())
	}
	w := b.Bytes()
	if w[0] != 0 || w[1] != 1 || w[2] != 8 || w[3] != 0 || w[4] != 6 || w[5] != 4 || w[7] != 1 {
		t.Fatalf("fixed fields = %x", w[:8])
	}
	got, err := Decode(b)
	if err != nil || got != p {
		t.Fatalf("decode = %+v, %v", got, err)
	}
}

func TestDecodeRejects(t *testing.T) {
	if _, err := Decode(pkt.FromBytes(0, make([]byte, 27))); err == nil {
		t.Fatal("short packet decoded")
	}
	p := Packet{Op: OpRequest}
	b := p.Encode(0)
	b.Bytes()[0] = 9 // bogus htype
	if _, err := Decode(b); err == nil {
		t.Fatal("bad htype decoded")
	}
}

func TestRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(op uint16, shw, thw [6]byte, sip, tip [4]byte) bool {
		p := Packet{Op: op, SenderHW: shw, SenderIP: sip, TargetHW: thw, TargetIP: tip}
		got, err := Decode(p.Encode(0))
		return err == nil && got == p
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRequestReplyExchange(t *testing.T) {
	a := NewCache(hwA, ipA, 100)
	b := NewCache(hwB, ipB, 100)

	// A wants B: enqueue a datagram, send a request.
	dg := pkt.FromBytes(0, []byte("ip datagram"))
	if !a.Enqueue(ipB, dg) {
		t.Fatal("first enqueue should request")
	}
	if a.Enqueue(ipB, pkt.FromBytes(0, []byte("second"))) {
		t.Fatal("second enqueue should not re-request")
	}
	req := a.MakeRequest(ipB)

	// B receives the request: learns A, produces a reply.
	reply, rel := b.Input(0, req)
	if reply == nil || reply.Op != OpReply || reply.TargetHW != hwA || reply.SenderHW != hwB {
		t.Fatalf("reply = %+v", reply)
	}
	if len(rel) != 0 {
		t.Fatal("B released datagrams unexpectedly")
	}
	if hw, ok := b.Lookup(0, ipA); !ok || hw != hwA {
		t.Fatal("B did not learn A from request")
	}

	// A receives the reply: learns B, releases the held datagrams.
	reply2, rel2 := a.Input(1, *reply)
	if reply2 != nil {
		t.Fatal("reply to a reply")
	}
	if len(rel2) != 2 {
		t.Fatalf("released %d datagrams, want 2", len(rel2))
	}
	if hw, ok := a.Lookup(1, ipB); !ok || hw != hwB {
		t.Fatal("A did not learn B")
	}
}

func TestRequestForOtherHostIgnored(t *testing.T) {
	b := NewCache(hwB, ipB, 100)
	req := Packet{Op: OpRequest, SenderHW: hwA, SenderIP: ipA, TargetIP: ipv4.Addr{10, 0, 0, 99}}
	reply, _ := b.Input(0, req)
	if reply != nil {
		t.Fatal("replied to a request for another host")
	}
}

func TestEntryExpiry(t *testing.T) {
	c := NewCache(hwA, ipA, 10)
	c.Input(0, Packet{Op: OpReply, SenderHW: hwB, SenderIP: ipB, TargetHW: hwA, TargetIP: ipA})
	if _, ok := c.Lookup(9, ipB); !ok {
		t.Fatal("entry expired early")
	}
	if _, ok := c.Lookup(10, ipB); ok {
		t.Fatal("entry outlived ttl")
	}
}

func TestPendingOverflowDropsOldest(t *testing.T) {
	c := NewCache(hwA, ipA, 100)
	for i := 0; i < MaxPendingPerAddr+3; i++ {
		c.Enqueue(ipB, pkt.FromBytes(0, []byte{byte(i)}))
	}
	_, rel := c.Input(0, Packet{Op: OpReply, SenderHW: hwB, SenderIP: ipB, TargetHW: hwA, TargetIP: ipA})
	if len(rel) != MaxPendingPerAddr {
		t.Fatalf("released %d, want %d", len(rel), MaxPendingPerAddr)
	}
	if rel[0].Bytes()[0] != 3 {
		t.Fatalf("oldest surviving = %d, want 3 (0,1,2 dropped)", rel[0].Bytes()[0])
	}
}

func TestOpportunisticLearning(t *testing.T) {
	c := NewCache(hwA, ipA, 100)
	// Any ARP traffic teaches us the sender.
	c.Input(0, Packet{Op: OpRequest, SenderHW: hwB, SenderIP: ipB, TargetIP: ipv4.Addr{10, 0, 0, 77}})
	if hw, ok := c.Lookup(0, ipB); !ok || hw != hwB {
		t.Fatal("did not learn from overheard request")
	}
	if _, ok := c.Lookup(0, ipv4.Addr{10, 0, 0, 77}); ok {
		t.Fatal("learned the target of an overheard request")
	}
}
