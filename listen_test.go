package ulp

// A listen is one record on its host, whatever the registry's shard count:
// its backlog bounds the handshakes every shard holds for it together, and a
// port the host holds anywhere is refused, not half taken.

import (
	"testing"
	"time"

	"ulp/internal/kern"
	"ulp/internal/stacks"
)

// serveAndClose listens on port 80 of node 0 with opts and closes each
// connection it accepts; the returned flag turns true once Listen returned.
func serveAndClose(t *testing.T, w *World, opts stacks.Options) *bool {
	listening := new(bool)
	srv := w.Node(0).App("server")
	srv.Go("srv", func(th *kern.Thread) {
		l, err := srv.Stack.Listen(th, 80, opts)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		*listening = true
		for {
			c, err := l.Accept(th)
			if err != nil {
				return
			}
			c.Close(th)
		}
	})
	return listening
}

// A four-shard host holds no more handshakes for a listener than its
// backlog, as stacks.Options.Backlog reads ("per listener, in every
// organization"), although the SYNs of eight connects at once hash to all
// four shards. The registry owns no other pcb on the listening host, so its
// owned pcbs are the handshakes held.
func TestShardedListenBacklogIsPerListener(t *testing.T) {
	const backlog, conns = 2, 8
	w := NewWorld(Config{Org: OrgUserLib, Net: Ethernet, RegistryShards: 4})
	listening := serveAndClose(t, w, stacks.Options{Backlog: backlog})
	w.RunUntil(time.Second, func() bool { return *listening })
	cli := w.Node(1).App("client")
	done := 0
	for range conns {
		cli.Go("cli", func(th *kern.Thread) {
			c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
			if err != nil {
				t.Errorf("connect: %v", err) // a SYN beyond the backlog is retransmitted, not refused
			} else {
				c.Close(th)
			}
			done++
		})
	}
	reg := w.Node(0).Registry
	held := 0
	w.RunUntil(time.Minute, func() bool {
		held = max(held, reg.OwnedConns())
		return done == conns
	})
	if done != conns {
		t.Fatalf("%d of %d connects returned", done, conns)
	}
	if held != backlog {
		t.Errorf("the host held up to %d handshakes for a listener with backlog %d", held, backlog)
	}
}

// A listen on a port a shard holds fails with ErrPortInUse, as a lone
// registry's does. Here the shard that owns an accepted connection's tuple
// holds port 80 for the connection it inherited from an application that
// exited: the registry drives its close through TIME_WAIT.
func TestListenOnHeldPortRefused(t *testing.T) {
	for _, shards := range []int{1, 4} {
		w := NewWorld(Config{Org: OrgUserLib, Net: Ethernet, RegistryShards: shards})
		srv := w.Node(0).App("server")
		exited := false
		srv.Go("srv", func(th *kern.Thread) {
			l, err := srv.Stack.Listen(th, 80, stacks.Options{})
			if err != nil {
				t.Errorf("listen: %v", err)
				return
			}
			if _, err := l.Accept(th); err != nil {
				t.Errorf("accept: %v", err)
				return
			}
			l.Close(th)
			srv.Lib.Exit(th, false)
			exited = true
		})
		cli := w.Node(1).App("client")
		cli.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
			c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
			if err != nil {
				t.Errorf("connect: %v", err)
				return
			}
			buf := make([]byte, 64)
			for {
				if n, err := c.Read(th, buf); err != nil || n == 0 {
					break
				}
			}
			c.Close(th)
		})
		w.RunUntil(time.Minute, func() bool { return exited })
		w.Run(100 * time.Millisecond) // the inherit lands; TIME_WAIT lasts minutes
		other := w.Node(0).App("other")
		var err error
		returned := false
		other.Go("listen", func(th *kern.Thread) {
			_, err = other.Stack.Listen(th, 80, stacks.Options{})
			returned = true
		})
		w.RunUntil(time.Minute, func() bool { return returned })
		if !returned || err != stacks.ErrPortInUse {
			t.Errorf("%d shards: a listen on a held port returned %v (returned %v), want %v",
				shards, err, returned, stacks.ErrPortInUse)
		}
	}
}
