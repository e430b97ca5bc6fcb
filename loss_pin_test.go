package ulp

import (
	"bytes"
	"testing"
	"time"

	"ulp/internal/kern"
	"ulp/internal/stacks"
	"ulp/internal/wire"
)

// TestLossRecoveryPinned holds loss recovery's virtual clock still, as
// TestChurnVirtualNumbersPinned holds the control plane's: eight flows move
// 4 MiB over AN1, and once every flow is up 3 % of frames are lost
// independently each way (the benchmark's lossy_iid in miniature). It pins
// when the last byte is verified and how many losses time-outs and fast
// retransmissions repaired. A change meant to move them records new
// constants and says why.
func TestLossRecoveryPinned(t *testing.T) {
	const (
		flows, perFlow, write = 8, 512 << 10, 4096
		wantDone              = time.Duration(3522762680)
		wantTimeouts          = 4
		wantFast              = 87
	)
	w := NewWorld(Config{Org: OrgUserLib, Net: AN1})
	enableConformance(t, w)
	data := pattern(perFlow)
	sink, source := w.Node(0).App("sink"), w.Node(1).App("source")
	var conns [flows]stacks.Conn
	up, verified := 0, 0
	for f := 0; f < flows; f++ {
		port := uint16(9000 + f)
		sink.Go("reader", func(th *kern.Thread) {
			l, err := sink.Stack.Listen(th, port, stacks.Options{})
			if err != nil {
				t.Errorf("flow %d: listen: %v", f, err)
				return
			}
			c, err := l.Accept(th)
			if err != nil {
				t.Errorf("flow %d: accept: %v", f, err)
				return
			}
			buf := make([]byte, 16<<10)
			for got := 0; got < perFlow; {
				n, err := c.Read(th, buf)
				if err != nil || n == 0 {
					t.Errorf("flow %d: read at %d: %d, %v", f, got, n, err)
					return
				}
				if !bytes.Equal(buf[:n], data[got:got+n]) {
					t.Errorf("flow %d: bytes at %d differ from those sent", f, got)
					return
				}
				got += n
			}
			verified++
			c.Close(th)
		})
		source.GoAfter(time.Millisecond, "writer", func(th *kern.Thread) {
			c, err := source.Stack.Connect(th, w.Endpoint(0, port), stacks.Options{})
			if err != nil {
				t.Errorf("flow %d: connect: %v", f, err)
				return
			}
			conns[f] = c
			up++
			for sent := 0; sent < perFlow; sent += write {
				if _, err := c.Write(th, data[sent:sent+write]); err != nil {
					t.Errorf("flow %d: write at %d: %v", f, sent, err)
					return
				}
			}
			c.Close(th)
		})
	}
	w.RunUntil(time.Minute, func() bool { return up == flows })
	if up != flows {
		t.Fatalf("%d of %d flows came up", up, flows)
	}
	loss := &wire.PathShape{LossProb: 0.03}
	w.Seg.SetConditions(&wire.LinkConditions{Seed: 1, Forward: loss, Reverse: loss})
	done := w.RunUntil(time.Hour, func() bool { return verified == flows })
	if verified != flows {
		t.Fatalf("%d of %d flows verified by %v", verified, flows, done)
	}
	w.Seg.SetConditions(nil)
	w.Run(time.Minute) // the writers' last ACKs and FINs

	timeouts, fast := 0, 0
	for _, c := range conns {
		st := c.Stats()
		timeouts += st.Rexmits
		fast += st.FastRexmits
	}
	if done != wantDone || timeouts != wantTimeouts || fast != wantFast {
		t.Errorf("done at %d ns with %d time-outs and %d fast retransmissions; pinned %d ns, %d, %d",
			done, timeouts, fast, wantDone, wantTimeouts, wantFast)
	}
}
