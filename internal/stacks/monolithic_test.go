package stacks

import (
	"bytes"
	"testing"
	"time"

	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/netio"
	"ulp/internal/sim"
	"ulp/internal/tcp"
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
