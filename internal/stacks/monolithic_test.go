package stacks

import (
	"bytes"
	"testing"
	"time"

	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/netio"
	"ulp/internal/pkt"
	"ulp/internal/sim"
	"ulp/internal/tcp"
	"ulp/internal/trace"
)

// organizations are the two hook sets over the one Monolithic core.
var organizations = []struct {
	name  string
	build func(*sim.Sim, *netio.Module, ipv4.Addr) *Monolithic
}{
	{"inkernel", NewInKernel},
	{"singleserver", NewSingleServer},
}

// TestAcceptedConnKeepsListenerPort: an accepted connection shares its
// listener's port reservation and must not release it when it closes.
// (SingleServer did, so after the first accepted connection left TIME_WAIT
// a second Listen on the port succeeded beside the live listener.)
func TestAcceptedConnKeepsListenerPort(t *testing.T) {
	for _, org := range organizations {
		t.Run(org.name, func(t *testing.T) {
			s, mods, ips := twoHosts(false)
			srv := org.build(s, mods[0], ips[0])
			cli := org.build(s, mods[1], ips[1])
			var accepted Conn
			var relisten error
			done := false
			srv.Host().NewDomain("app", false).Spawn("srv", func(th *kern.Thread) {
				l, err := srv.Listen(th, 80, Options{})
				if err != nil {
					t.Error(err)
					return
				}
				accepted, _ = l.Accept(th)
				accepted.Close(th) // active close: TIME_WAIT is ours
				th.Sleep(70 * time.Second)
				_, relisten = srv.Listen(th, 80, Options{})
				done = true
			})
			cli.Host().NewDomain("app", false).SpawnAfter(time.Millisecond, "cli", func(th *kern.Thread) {
				c, err := cli.Connect(th, tcp.Endpoint{IP: ips[0], Port: 80}, Options{})
				if err != nil {
					t.Error(err)
					return
				}
				c.Read(th, make([]byte, 16)) // EOF
				c.Close(th)
			})
			s.RunUntil(2*time.Minute, func() bool { return done })
			if !done {
				t.Fatal("incomplete")
			}
			if accepted.State() != tcp.Closed {
				t.Fatalf("accepted connection is %v, want CLOSED after 2MSL", accepted.State())
			}
			if relisten != ErrPortInUse {
				t.Fatalf("second Listen beside a live listener: err = %v, want ErrPortInUse", relisten)
			}
		})
	}
}

// TestOrganizationsDifferOnlyInCost runs one connect/echo/close script
// through both hook sets: the protocol's behaviour — bytes delivered,
// segments exchanged — is the same, and only the CPU charged for it differs.
func TestOrganizationsDifferOnlyInCost(t *testing.T) {
	type outcome struct {
		echoed   []byte
		cli, srv tcp.Stats
		cpu      [2]time.Duration
	}
	request := make([]byte, 1000)
	for i := range request {
		request[i] = byte(i * 13)
	}
	const exchanges = 4
	run := func(t *testing.T, build func(*sim.Sim, *netio.Module, ipv4.Addr) *Monolithic) outcome {
		s, mods, ips := twoHosts(false)
		srv := build(s, mods[0], ips[0])
		cli := build(s, mods[1], ips[1])
		var out outcome
		var srvConn, cliConn Conn
		srv.Host().NewDomain("app", false).Spawn("srv", func(th *kern.Thread) {
			l, err := srv.Listen(th, 80, Options{})
			if err != nil {
				t.Error(err)
				return
			}
			srvConn, _ = l.Accept(th)
			buf := make([]byte, 2048)
			for {
				n, err := srvConn.Read(th, buf)
				if n == 0 || err != nil {
					break
				}
				srvConn.Write(th, buf[:n])
			}
			srvConn.Close(th)
		})
		cli.Host().NewDomain("app", false).SpawnAfter(time.Millisecond, "cli", func(th *kern.Thread) {
			c, err := cli.Connect(th, tcp.Endpoint{IP: ips[0], Port: 80}, Options{})
			if err != nil {
				t.Error(err)
				return
			}
			cliConn = c
			buf := make([]byte, 2048)
			for i := 0; i < exchanges; i++ {
				c.Write(th, request)
				for got := 0; got < len(request); {
					n, err := c.Read(th, buf)
					if n == 0 || err != nil {
						t.Errorf("echo %d cut short at %d bytes: %v", i, got, err)
						return
					}
					out.echoed = append(out.echoed, buf[:n]...)
					got += n
				}
			}
			c.Close(th)
		})
		// Past 2MSL, so both pcbs finish their whole life.
		s.Run(90 * time.Second)
		if cliConn == nil || srvConn == nil {
			t.Fatal("connection never set up")
		}
		if cliConn.State() != tcp.Closed || srvConn.State() != tcp.Closed {
			t.Fatalf("final states %v/%v, want CLOSED", cliConn.State(), srvConn.State())
		}
		out.cli, out.srv = cliConn.Stats(), srvConn.Stats()
		out.cpu = [2]time.Duration{time.Duration(srv.Host().CPU.Busy()), time.Duration(cli.Host().CPU.Busy())}
		return out
	}
	ik := run(t, NewInKernel)
	ss := run(t, NewSingleServer)
	if want := bytes.Repeat(request, exchanges); !bytes.Equal(ik.echoed, want) || !bytes.Equal(ss.echoed, want) {
		t.Fatalf("echoed %d and %d bytes, want %d intact", len(ik.echoed), len(ss.echoed), len(want))
	}
	if ik.cli != ss.cli {
		t.Errorf("client protocol counters differ:\n inkernel     %+v\n singleserver %+v", ik.cli, ss.cli)
	}
	if ik.srv != ss.srv {
		t.Errorf("server protocol counters differ:\n inkernel     %+v\n singleserver %+v", ik.srv, ss.srv)
	}
	for h := range ik.cpu {
		if ik.cpu[h] >= ss.cpu[h] {
			t.Errorf("host %d: in-kernel CPU %v, single-server %v; the server organization pays IPC on every call",
				h, ik.cpu[h], ss.cpu[h])
		}
	}
}

// TestSynFloodBoundedByBacklog: a monolithic listener holds at most
// Options.Backlog handshakes, as the registry does. SYNs beyond it are
// dropped, each with a trace.ListenDrop event as the registry emits, and a
// slot comes back when its handshake gives up or completes. (The monolithic
// stacks ignored Backlog and cloned a pcb for every SYN, and later dropped
// the excess untraced.)
func TestSynFloodBoundedByBacklog(t *testing.T) {
	for _, org := range organizations {
		t.Run(org.name, func(t *testing.T) {
			s, mods, ips := twoHosts(false)
			srv := org.build(s, mods[0], ips[0])
			cli := org.build(s, mods[1], ips[1])
			const backlog, syns = 4, 40
			s.Bus = trace.NewBus(func() time.Duration { return time.Duration(s.Now()) })
			drops := 0
			s.Bus.Subscribe(func(e trace.Event) {
				if e.Kind == trace.ListenDrop && e.Node == srv.Host().Name && e.A == 80 && e.B == backlog {
					drops++
				}
			})
			accepted := 0
			srv.Host().NewDomain("app", false).Spawn("srv", func(th *kern.Thread) {
				l, err := srv.Listen(th, 80, Options{Backlog: backlog})
				if err != nil {
					t.Error(err)
					return
				}
				for {
					l.Accept(th)
					accepted++
				}
			})
			// SYNs from a source no host answers ARP for, pushed back to
			// back into the input queue: their handshakes cannot complete.
			src := ipv4.Addr{10, 0, 0, 99}
			srv.Host().NewDomain("flood", true).SpawnAfter(time.Millisecond, "push", func(th *kern.Thread) {
				for i := 0; i < syns; i++ {
					hdr := tcp.Header{SrcPort: uint16(2000 + i), DstPort: 80,
						Seq: tcp.Seq(1000 * uint32(i)), Flags: tcp.FlagSYN, Window: 4096}
					b := pkt.FromBytes(link.EthHeaderLen+ipv4.HeaderLen+tcp.HeaderLen, nil)
					hdr.Encode(b, src, ips[0])
					ih := ipv4.Header{TTL: 64, Proto: ipv4.ProtoTCP, Src: src, Dst: ips[0]}
					ih.Encode(b)
					lh := link.EthHeader{Dst: link.MakeAddr(1), Src: link.MakeAddr(99), Type: link.TypeIPv4}
					lh.Encode(b)
					srv.rxq.Push(b)
				}
			})
			s.Run(100 * time.Millisecond)
			if got := len(srv.conns); got != backlog {
				t.Fatalf("%d SYNs left %d pcbs, want the backlog (%d)", syns, got, backlog)
			}
			if drops != syns-backlog {
				t.Fatalf("%d listen drops traced for %d SYNs at backlog %d, want %d", drops, syns, backlog, syns-backlog)
			}

			// The flood's handshakes give up once their SYN|ACK
			// retransmissions run out; then more connections than the
			// backlog holds, one after another, all get through.
			s.Run(20 * time.Minute)
			if got := len(srv.conns); got != 0 {
				t.Fatalf("%d flood pcbs outlived their handshakes", got)
			}
			const conns = 2 * backlog
			cli.Host().NewDomain("app", false).Spawn("cli", func(th *kern.Thread) {
				for i := 0; i < conns; i++ {
					if _, err := cli.Connect(th, tcp.Endpoint{IP: ips[0], Port: 80}, Options{}); err != nil {
						t.Errorf("connect %d: %v", i, err)
						return
					}
				}
			})
			s.RunUntil(time.Minute, func() bool { return accepted == conns })
			if accepted != conns || drops != syns-backlog {
				t.Fatalf("accepted %d of %d connections after the flood, %d listen drops traced in all; want %d",
					accepted, conns, drops, syns-backlog)
			}
		})
	}
}
