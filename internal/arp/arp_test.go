package arp

import (
	"slices"
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

// FuzzDecode: Decode takes any bytes off the wire without panicking; what it
// accepts re-encodes to the 28 bytes it read, and Decode∘Encode gives the
// packet back.
func FuzzDecode(f *testing.F) {
	req := Packet{Op: OpRequest, SenderHW: hwA, SenderIP: ipA, TargetIP: ipB}
	f.Add(req.Encode(0).Bytes())
	reply := Packet{Op: OpReply, SenderHW: hwB, SenderIP: ipB, TargetHW: hwA, TargetIP: ipA}
	f.Add(append(reply.Encode(0).Bytes(), 0, 0)) // with link padding
	f.Add(req.Encode(0).Bytes()[:PacketLen-1])
	f.Add([]byte{0, 1, 0x86, 0xdd, 6, 16})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		p, err := Decode(pkt.FromBytes(0, in))
		if err != nil {
			return
		}
		if out := p.Encode(0).Bytes(); !slices.Equal(out, in[:PacketLen]) {
			t.Fatalf("% x decodes to %+v, which encodes to % x", in, p, out)
		}
		if got, err := Decode(p.Encode(0)); err != nil || got != p {
			t.Fatalf("%+v round-trips to %+v (%v)", p, got, err)
		}
	})
}

func TestRequestReplyExchange(t *testing.T) {
	a := NewCache(hwA, ipA, 100, 2, 40)
	b := NewCache(hwB, ipB, 100, 2, 40)

	// A wants B: enqueue a datagram, send a request.
	dg := pkt.FromBytes(0, []byte("ip datagram"))
	if !a.Enqueue(0, ipB, dg) {
		t.Fatal("first enqueue should request")
	}
	if a.Enqueue(1, ipB, pkt.FromBytes(0, []byte("second"))) {
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

// TestUnansweredRequestRepeated: while datagrams keep arriving for an
// unresolved destination, a request goes out again once the last one is the
// retry interval old, and not sooner.
func TestUnansweredRequestRepeated(t *testing.T) {
	c := NewCache(hwA, ipA, 100, 2, 40)
	var asked []uint64
	for now := uint64(0); now < 7; now++ {
		if c.Enqueue(now, ipB, pkt.FromBytes(0, []byte{byte(now)})) {
			asked = append(asked, now)
		}
	}
	if want := []uint64{0, 2, 4, 6}; !slices.Equal(asked, want) {
		t.Fatalf("requests at %v, want %v", asked, want)
	}
	_, rel := c.Input(7, Packet{Op: OpReply, SenderHW: hwB, SenderIP: ipB, TargetHW: hwA, TargetIP: ipA})
	if len(rel) != 7 {
		t.Fatalf("released %d datagrams, want 7", len(rel))
	}
	// Resolved and released: the next miss (after expiry) asks at once.
	if !c.Enqueue(107, ipB, pkt.FromBytes(0, []byte("late"))) {
		t.Fatal("first datagram after the entry expired did not request")
	}
}

// TestHoldReleasedWhenDestinationSilent: datagrams held for a destination
// that has not answered its last request for the down interval go back to
// the pool; a destination asked more recently keeps its hold.
func TestHoldReleasedWhenDestinationSilent(t *testing.T) {
	pkt.SetLeakTracking(true)
	defer pkt.SetLeakTracking(false)
	ipC := ipv4.Addr{10, 0, 0, 3}
	c := NewCache(hwA, ipA, 100, 2, 40)
	c.Enqueue(0, ipB, pkt.New(0, 10))
	c.Enqueue(0, ipC, pkt.New(0, 10))
	c.Enqueue(3, ipC, pkt.New(0, 10)) // asks again: ipC was last asked at 3
	c.Expire(39)
	if n := pkt.OutstandingCount(); n != 3 {
		t.Fatalf("%d buffers held before the down interval, want 3", n)
	}
	c.Expire(40)
	if n := pkt.OutstandingCount(); n != 2 {
		t.Fatalf("%d buffers held after ipB went down, want ipC's 2", n)
	}
	if !c.Enqueue(41, ipB, pkt.New(0, 10)) {
		t.Fatal("a datagram for an expired hold did not ask at once")
	}
	c.Expire(43)
	_, rel := c.Input(44, Packet{Op: OpReply, SenderHW: hwB, SenderIP: ipC, TargetHW: hwA, TargetIP: ipA})
	_, relB := c.Input(44, Packet{Op: OpReply, SenderHW: hwB, SenderIP: ipB, TargetHW: hwA, TargetIP: ipA})
	if len(rel) != 0 || len(relB) != 1 {
		t.Fatalf("released %d for ipC (expired at 43), %d for ipB; want 0 and 1", len(rel), len(relB))
	}
	relB[0].Release()
}

func TestRequestForOtherHostIgnored(t *testing.T) {
	b := NewCache(hwB, ipB, 100, 2, 40)
	req := Packet{Op: OpRequest, SenderHW: hwA, SenderIP: ipA, TargetIP: ipv4.Addr{10, 0, 0, 99}}
	reply, _ := b.Input(0, req)
	if reply != nil {
		t.Fatal("replied to a request for another host")
	}
}

func TestEntryExpiry(t *testing.T) {
	c := NewCache(hwA, ipA, 10, 2, 40)
	c.Input(0, Packet{Op: OpReply, SenderHW: hwB, SenderIP: ipB, TargetHW: hwA, TargetIP: ipA})
	if _, ok := c.Lookup(9, ipB); !ok {
		t.Fatal("entry expired early")
	}
	if _, ok := c.Lookup(10, ipB); ok {
		t.Fatal("entry outlived ttl")
	}
}

func TestPendingOverflowDropsOldest(t *testing.T) {
	pkt.SetLeakTracking(true)
	defer pkt.SetLeakTracking(false)
	c := NewCache(hwA, ipA, 100, 2, 40)
	for i := 0; i < MaxPendingPerAddr+3; i++ {
		b := pkt.New(0, 1)
		b.Bytes()[0] = byte(i)
		c.Enqueue(0, ipB, b)
	}
	if n := pkt.OutstandingCount(); n != MaxPendingPerAddr {
		t.Fatalf("%d buffers outstanding, want the %d held: the dropped ones go back to the pool", n, MaxPendingPerAddr)
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
	c := NewCache(hwA, ipA, 100, 2, 40)
	// Any ARP traffic teaches us the sender.
	c.Input(0, Packet{Op: OpRequest, SenderHW: hwB, SenderIP: ipB, TargetIP: ipv4.Addr{10, 0, 0, 77}})
	if hw, ok := c.Lookup(0, ipB); !ok || hw != hwB {
		t.Fatal("did not learn from overheard request")
	}
	if _, ok := c.Lookup(0, ipv4.Addr{10, 0, 0, 77}); ok {
		t.Fatal("learned the target of an overheard request")
	}
}
