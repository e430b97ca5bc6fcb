package ulp

import (
	"testing"
	"time"

	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/pkt"
	"ulp/internal/stacks"
)

// an1Frame is one traced AN1 frame: its link header and its time.
type an1Frame struct {
	at time.Duration
	h  link.AN1Header
}

// connectTwiceAN1 opens and closes a connection from host 1 to host 0 on the
// AN1 at 1 ms and again at second, and returns the frames host 1 sent.
func connectTwiceAN1(t *testing.T, second time.Duration) []an1Frame {
	t.Helper()
	w := NewWorld(Config{Org: OrgUserLib, Net: AN1})
	client := w.Node(1).Mod.Device().Addr()
	var sent []an1Frame
	w.TraceFrames(func(at time.Duration, frame *pkt.Buf) {
		h, err := link.DecodeAN1(frame.Clone())
		if err == nil && h.Src == client {
			sent = append(sent, an1Frame{at, h})
		}
	})
	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	srv.Go("srv", func(th *kern.Thread) {
		l, _ := srv.Stack.Listen(th, 80, stacks.Options{})
		for {
			c, err := l.Accept(th)
			if err != nil {
				return
			}
			c.Close(th)
		}
	})
	done := 0
	for _, at := range []time.Duration{time.Millisecond, second} {
		cli.GoAfter(at, "cli", func(th *kern.Thread) {
			c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
			if err != nil {
				t.Errorf("connect at %v: %v", at, err)
			} else {
				c.Close(th)
			}
			done++
		})
	}
	w.RunUntil(second+time.Minute, func() bool { return done == 2 })
	if done != 2 {
		t.Fatal("the connects did not finish")
	}
	return sent
}

// TestQueuedSYNAdvertisesBQI: the client's first SYN waits for ARP, and it
// must still carry the data-phase BQI the registry reserved for it — not
// leave with AdvBQI 0 and make the server learn the index from the third
// ACK.
func TestQueuedSYNAdvertisesBQI(t *testing.T) {
	sent := connectTwiceAN1(t, 2*time.Millisecond)
	if len(sent) < 2 || sent[0].h.Type != link.TypeARP || sent[1].h.Type != link.TypeIPv4 {
		t.Fatalf("want an ARP request and then the SYN first, got %+v", sent)
	}
	if sent[1].h.AdvBQI == 0 {
		t.Fatalf("the SYN that waited for ARP advertises BQI 0")
	}
}

// TestRegistryHonoursARPExpiry: an ARP entry lives 10 minutes, and a
// registry that sends after that must ask again instead of framing with the
// expired entry.
func TestRegistryHonoursARPExpiry(t *testing.T) {
	second := 11 * time.Minute
	sent := connectTwiceAN1(t, second)
	for _, f := range sent {
		if f.at >= second {
			if f.h.Type != link.TypeARP {
				t.Fatalf("first frame after the ARP entry expired is %#04x at %v, want an ARP request", uint16(f.h.Type), f.at)
			}
			return
		}
	}
	t.Fatal("the client sent nothing for the second connect")
}
