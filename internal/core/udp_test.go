package core

import (
	"testing"
	"time"

	"ulp/internal/kern"
	"ulp/internal/netio"
	"ulp/internal/udp"
)

// txFrames reads a device's transmitted-frame counter.
func txFrames(l *Library) (n int64) {
	l.nif.Mod.Device().Describe(func(k string, v int64) {
		if k == "tx_frames" {
			n = v
		}
	})
	return n
}

// The datagram relay sends nothing the fast path would refuse: a library
// bound to port 53 that builds a frame from port 54 gets the template error
// back from SendVia, its frame is released, and nothing reaches the wire.
func TestSendViaRefusesAFrameItsCapabilityDoesNotVouchFor(t *testing.T) {
	s, libs, ips, _ := twoLibraries()
	lib := libs[0]
	var err error
	var sent int64 = -1
	lib.app.Spawn("udp", func(th *kern.Thread) {
		u, berr := lib.BindUDP(th, 53)
		if berr != nil {
			t.Error(berr)
			return
		}
		if rerr := u.Resolve(th, ips[1]); rerr != nil {
			t.Error(rerr)
			return
		}
		before := txFrames(lib)
		u.local.Port = 54 // an untrusted library builds whatever frame it likes
		err = u.SendVia(th, udp.Endpoint{IP: ips[1], Port: 53}, []byte("spoofed"))
		th.Sleep(10 * time.Millisecond)
		sent = txFrames(lib) - before
	})
	s.RunUntil(time.Minute, func() bool { return sent >= 0 })
	if err != netio.ErrTemplateMismatch || sent != 0 {
		t.Fatalf("SendVia of a port-54 frame on a port-53 end-point: %v, %d frames sent; want %v, 0",
			err, sent, netio.ErrTemplateMismatch)
	}
}
