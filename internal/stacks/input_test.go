package stacks

import (
	"testing"
	"time"

	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/pkt"
	"ulp/internal/tcp"
)

// TestInputPipeline drives the shared receive pipeline on an AN1 host with
// recording hooks: a good segment reaches the TCP hook once, with its
// advertised BQI and exactly SegCost plus Extra charged; a bad checksum is
// dropped uncharged and unseen; ARP never reaches a hook; and a segment no
// hook takes is answered with exactly one reset.
func TestInputPipeline(t *testing.T) {
	s, mods, ips := twoHosts(true)
	nif0 := NewNetif(s, mods[0], ips[0])
	nif1 := NewNetif(s, mods[1], ips[1])
	rsts := 0
	mods[1].SetDefaultHandler(func(b *pkt.Buf) {
		defer b.Release()
		if et, _, err := nif1.StripLink(b); err != nil || et != link.TypeIPv4 {
			return
		}
		ih, err := ipv4.Decode(b)
		if err != nil {
			return
		}
		if th, err := tcp.Decode(b, ih.Src, ih.Dst); err == nil && th.Flags&tcp.FlagRST != 0 {
			rsts++
		}
	})
	// segment builds the frame host 1 would send to port 80 on host 0.
	segment := func(payload []byte, advBQI uint16) *pkt.Buf {
		th := tcp.Header{SrcPort: 1024, DstPort: 80, Seq: 1000, Ack: 1, Flags: tcp.FlagACK, Window: 100}
		b := pkt.FromBytes(nif1.Headroom()+tcp.HeaderLen, payload)
		th.Encode(b, ips[1], ips[0])
		ih := ipv4.Header{ID: 1, TTL: 64, Proto: ipv4.ProtoTCP, Src: ips[1], Dst: ips[0]}
		ih.Encode(b)
		nif1.Frame(b, nif0.HW, link.TypeIPv4, 0, advBQI)
		return b
	}

	const extra = 3 * time.Microsecond
	var got []Segment
	take := true
	hooks := &Hooks{
		Extra: extra,
		TCP: func(t *kern.Thread, s Segment) bool {
			got = append(got, s)
			return take
		},
		UDP: func(*kern.Thread, ipv4.Header, []byte) { t.Error("UDP hook called") },
	}
	payload := []byte("pipeline")
	done := false
	mods[0].Device().Host().NewDomain("kernel", true).Spawn("input", func(th *kern.Thread) {
		defer func() { done = true }()
		charged := func(b *pkt.Buf) time.Duration {
			start := s.Now()
			nif0.Input(th, b, hooks)
			return time.Duration(s.Now() - start)
		}

		if d, want := charged(segment(payload, 7)), SegCost(th.Dom.Host, len(payload))+extra; d != want {
			t.Errorf("good segment charged %v, want SegCost+Extra = %v", d, want)
		}
		if len(got) != 1 {
			t.Errorf("TCP hook called %d times for one segment", len(got))
			return
		}
		if g := got[0]; g.AdvBQI != 7 || string(g.Data) != string(payload) ||
			g.Local != (tcp.Endpoint{IP: ips[0], Port: 80}) || g.Peer != (tcp.Endpoint{IP: ips[1], Port: 1024}) {
			t.Errorf("hook saw %+v", g)
		}

		bad := segment(payload, 7)
		bad.Bytes()[bad.Len()-1] ^= 0xff
		if d := charged(bad); d != 0 || len(got) != 1 {
			t.Errorf("bad checksum: charged %v and %d hook calls, want nothing", d, len(got)-1)
		}

		// An ARP request from host 1: answered, learned, never a hook's.
		req := nif1.ARP.MakeRequest(ips[0])
		b := req.Encode(mods[1].Device().HdrLen())
		nif1.Frame(b, link.Broadcast, link.TypeARP, 0, 0)
		nif0.Input(th, b, hooks)
		if len(got) != 1 {
			t.Errorf("ARP reached the TCP hook")
		}
		if _, ok := nif0.ARP.Lookup(nif0.Now(), ips[1]); !ok {
			t.Errorf("ARP request not learned")
		}

		take = false
		nif0.Input(th, segment(payload, 0), hooks)
	})
	s.RunUntil(time.Second, func() bool { return done })
	s.Run(10 * time.Millisecond)
	if rsts != 1 {
		t.Fatalf("a segment no hook took drew %d resets, want 1", rsts)
	}
}
