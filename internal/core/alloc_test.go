package core

import (
	"testing"
	"time"

	"ulp/internal/kern"
	"ulp/internal/stacks"
	"ulp/internal/tcp"
)

// One echo exchange on an established library connection — the client's
// write, the frame's way through device, wire, demultiplexing and channel,
// the semaphore wake-up of the input thread, the engine, the wake-up of the
// blocked reader, the echo back the same way, the delayed ACKs and their
// wheel timers — allocates nothing once every queue, waiter list and ring on
// the way has been through one.
func TestEchoExchangeAllocatesNothing(t *testing.T) {
	s, libs, ips, _ := twoLibraries()
	srv, cli := libs[0], libs[1]
	msg := make([]byte, 512)
	srv.app.Spawn("srv", func(th *kern.Thread) {
		l, err := srv.Listen(th, 80, stacks.Options{})
		if err != nil {
			t.Error(err)
			return
		}
		c, err := l.Accept(th)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, len(msg))
		for {
			n, err := c.Read(th, buf)
			if err != nil || n == 0 {
				return
			}
			if _, err := c.Write(th, buf[:n]); err != nil {
				return
			}
		}
	})
	var (
		kick   = s.NewSemaphore("kick", 0)
		echoed int
	)
	cli.app.SpawnAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		c, err := cli.Connect(th, tcp.Endpoint{IP: ips[0], Port: 80}, stacks.Options{})
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, len(msg))
		for {
			kick.P(th.Proc)
			if _, err := c.Write(th, msg); err != nil {
				t.Error(err)
				return
			}
			for got := 0; got < len(msg); {
				n, err := c.Read(th, buf)
				if err != nil || n == 0 {
					t.Errorf("echo read: %d, %v", n, err)
					return
				}
				got += n
			}
			echoed++
		}
	})
	exchange := func() {
		want := echoed + 1
		kick.V()
		// A second of virtual time past the echo: the delayed ACKs go out
		// and the wheel drivers tick, so they are inside the measurement.
		s.Run(time.Second)
		if echoed != want {
			t.Fatalf("%d exchanges done, want %d", echoed, want)
		}
	}
	for i := 0; i < 8; i++ {
		exchange()
	}
	if allocs := testing.AllocsPerRun(100, exchange); allocs != 0 {
		t.Errorf("an echo exchange allocates %v times, want 0", allocs)
	}
}
