package ulp

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ulp/internal/core"
	"ulp/internal/kern"
	"ulp/internal/stacks"
	"ulp/internal/tcp"
	"ulp/internal/udp"
	"ulp/internal/wire"
)

// pattern builds a deterministic payload.
func pattern(size int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(i*131 + i>>7)
	}
	return p
}

// echoTransfer runs a server that echoes everything and a client that
// sends data and verifies the echo, over the given world. It returns the
// established client connection's stats.
func echoTransfer(t *testing.T, w *World, size int, opts stacks.Options, budget time.Duration) tcp.Stats {
	t.Helper()
	data := pattern(size)
	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	done := false
	var stats tcp.Stats

	srv.Go("srv", func(th *kern.Thread) {
		l, err := srv.Stack.Listen(th, 80, opts)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		c, err := l.Accept(th)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		buf := make([]byte, 8192)
		for {
			n, err := c.Read(th, buf)
			if err != nil {
				t.Errorf("server read: %v", err)
				return
			}
			if n == 0 {
				break // EOF
			}
			if _, err := c.Write(th, buf[:n]); err != nil {
				t.Errorf("server write: %v", err)
				return
			}
		}
		c.Close(th)
	})

	cli.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), opts)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		var got []byte
		buf := make([]byte, 8192)
		written := 0
		for len(got) < len(data) {
			if written < len(data) {
				end := written + 2048
				if end > len(data) {
					end = len(data)
				}
				if _, err := c.Write(th, data[written:end]); err != nil {
					t.Errorf("client write: %v", err)
					return
				}
				written = end
			}
			n, err := c.Read(th, buf)
			if err != nil {
				t.Errorf("client read: %v", err)
				return
			}
			got = append(got, buf[:n]...)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("echo mismatch: %d/%d bytes", len(got), len(data))
		}
		c.Close(th)
		stats = c.Stats()
		done = true
	})

	w.RunUntil(budget, func() bool { return done })
	if !done {
		t.Fatalf("transfer did not complete within %v of virtual time", budget)
	}
	return stats
}

// TestNewWorldRefusesIgnoredSettings: a setting the world would be built
// without honouring is refused by name, not silently dropped.
func TestNewWorldRefusesIgnoredSettings(t *testing.T) {
	sw := &wire.SwitchConfig{Latency: time.Microsecond}
	NewWorld(Config{Org: OrgUserLib, Net: AN1, Switch: sw, RegistryShards: 4,
		EphemeralLo: 1024, EphemeralHi: 60000}) // every one honoured
	for _, tc := range []struct {
		field string
		cfg   Config
	}{
		{"RegistryShards", Config{Org: OrgInKernel, RegistryShards: 4}},
		{"EphemeralLo/Hi", Config{Org: OrgSingleServer, EphemeralLo: 1024, EphemeralHi: 60000}},
		{"Switch", Config{Org: OrgUserLib, Net: Ethernet, Switch: sw}},
		{"EphemeralLo/Hi", Config{Org: OrgUserLib, EphemeralHi: 60000}},
		{"EphemeralLo/Hi", Config{Org: OrgUserLib, EphemeralLo: 1024}},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "ulp: Config."+tc.field) {
					t.Errorf("NewWorld(%+v) panicked with %q, want a panic naming %s", tc.cfg, msg, tc.field)
				}
			}()
			NewWorld(tc.cfg)
		}()
	}
}

func TestConnectRefusedNoListener(t *testing.T) {
	for _, org := range []Org{OrgUserLib, OrgInKernel, OrgSingleServer} {
		t.Run(org.String(), func(t *testing.T) {
			w := NewWorld(Config{Org: org, Net: Ethernet})
			cli := w.Node(1).App("client")
			var got error
			done := false
			cli.Go("cli", func(th *kern.Thread) {
				_, got = cli.Stack.Connect(th, w.Endpoint(0, 9999), stacks.Options{})
				done = true
			})
			w.RunUntil(2*time.Minute, func() bool { return done })
			if !done {
				t.Fatal("connect did not return")
			}
			if got != stacks.ErrRefused {
				t.Fatalf("connect error = %v, want refused", got)
			}
		})
	}
}

func TestOrderlyCloseReachesTimeWait(t *testing.T) {
	for _, org := range []Org{OrgUserLib, OrgInKernel, OrgSingleServer} {
		t.Run(org.String(), func(t *testing.T) {
			w := NewWorld(Config{Org: org, Net: Ethernet})
			srv := w.Node(0).App("server")
			cli := w.Node(1).App("client")
			var srvConn, cliConn stacks.Conn
			phase := 0
			srv.Go("srv", func(th *kern.Thread) {
				l, _ := srv.Stack.Listen(th, 80, stacks.Options{})
				c, _ := l.Accept(th)
				srvConn = c
				buf := make([]byte, 64)
				for {
					n, _ := c.Read(th, buf)
					if n == 0 {
						break
					}
				}
				c.Close(th) // passive close after EOF
				phase = 2
			})
			cli.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
				c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
				if err != nil {
					t.Errorf("connect: %v", err)
					phase = -1
					return
				}
				cliConn = c
				c.Write(th, []byte("bye"))
				c.Close(th) // active close
				phase = 1
			})
			w.RunUntil(time.Minute, func() bool { return phase >= 2 || phase < 0 })
			if phase < 2 {
				t.Fatalf("close sequence incomplete (phase %d)", phase)
			}
			// Let FINs settle.
			w.Run(5 * time.Second)
			if s := cliConn.State(); s != tcp.TimeWait && s != tcp.Closed {
				t.Errorf("active closer state = %v", s)
			}
			if s := srvConn.State(); s != tcp.Closed && s != tcp.LastAck {
				t.Errorf("passive closer state = %v", s)
			}
			// TIME_WAIT drains after 2*MSL (60 s).
			w.Run(2 * time.Minute)
			if s := cliConn.State(); s != tcp.Closed {
				t.Errorf("TIME_WAIT never expired: %v", s)
			}
		})
	}
}

func TestUserLibBQIExchangeOnAN1(t *testing.T) {
	w := NewWorld(Config{Org: OrgUserLib, Net: AN1})
	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	var cliConn stacks.Conn
	done := false
	srv.Go("srv", func(th *kern.Thread) {
		l, _ := srv.Stack.Listen(th, 80, stacks.Options{})
		c, _ := l.Accept(th)
		buf := make([]byte, 4096)
		for {
			n, _ := c.Read(th, buf)
			if n == 0 {
				return
			}
			c.Write(th, buf[:n])
		}
	})
	cli.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
		if err != nil {
			t.Errorf("connect: %v", err)
			done = true
			return
		}
		cliConn = c
		c.Write(th, pattern(5000))
		buf := make([]byte, 8192)
		got := 0
		for got < 5000 {
			n, _ := c.Read(th, buf)
			got += n
		}
		done = true
	})
	w.RunUntil(time.Minute, func() bool { return done })
	if !done {
		t.Fatal("transfer incomplete")
	}
	// The data phase must use hardware demultiplexing: the client's own
	// channel has a nonzero BQI, and every data segment it received was
	// steered by it.
	if bqi := cliConn.(*core.Conn).Channel().BQI(); bqi == 0 {
		t.Error("client channel has BQI 0; hardware demux not engaged")
	}
	// Device-level check: host 1's AN1 must have delivered to a nonzero
	// ring, and the registry default path must not have seen data-phase
	// segments.
	if n := Counter(t, w, "netio.h1.demux_default"); n > 8 {
		t.Errorf("default path saw %d packets; data phase should bypass it", n)
	}
}

func TestUserLibAbnormalExitResetsPeer(t *testing.T) {
	w := NewWorld(Config{Org: OrgUserLib, Net: Ethernet})
	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	var srvErr error
	srvDone, cliDone := false, false
	srv.Go("srv", func(th *kern.Thread) {
		l, _ := srv.Stack.Listen(th, 80, stacks.Options{})
		c, _ := l.Accept(th)
		buf := make([]byte, 64)
		for {
			n, err := c.Read(th, buf)
			if err != nil {
				srvErr = err
				break
			}
			if n == 0 {
				break
			}
		}
		srvDone = true
	})
	cli.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		c.Write(th, []byte("about to crash"))
		// Simulate abnormal termination: the registry inherits and resets.
		cli.Lib.Exit(th, true)
		cliDone = true
	})
	w.RunUntil(time.Minute, func() bool { return srvDone && cliDone })
	if !srvDone {
		t.Fatal("server never observed the reset")
	}
	if srvErr != stacks.ErrReset {
		t.Fatalf("server read error = %v, want reset", srvErr)
	}
}

func TestUserLibNormalExitInheritsConnection(t *testing.T) {
	w := NewWorld(Config{Org: OrgUserLib, Net: Ethernet})
	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	srvSawEOF := false
	srvErr := error(nil)
	cliDone := false
	srv.Go("srv", func(th *kern.Thread) {
		l, _ := srv.Stack.Listen(th, 80, stacks.Options{})
		c, _ := l.Accept(th)
		buf := make([]byte, 64)
		for {
			n, err := c.Read(th, buf)
			if err != nil {
				srvErr = err
				return
			}
			if n == 0 {
				srvSawEOF = true
				c.Close(th)
				return
			}
		}
	})
	cli.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		c.Write(th, []byte("data"))
		// Orderly application exit without closing: the registry inherits
		// the connection and completes the shutdown protocol.
		cli.Lib.Exit(th, false)
		cliDone = true
	})
	w.RunUntil(2*time.Minute, func() bool { return srvSawEOF && cliDone })
	if srvErr != nil {
		t.Fatalf("server error = %v, want orderly EOF", srvErr)
	}
	if !srvSawEOF {
		t.Fatal("registry did not complete the orderly shutdown")
	}
}

func TestAppSpecificOptionsReduceLatency(t *testing.T) {
	// The §5 "canned options" idea in miniature: a request-response
	// application that emits each request as two small writes (header then
	// body) suffers badly under Nagle — the body waits for the header's
	// ACK — and a specialized NoDelay variant of the protocol fixes it.
	rtt := func(opts stacks.Options) time.Duration {
		w := NewWorld(Config{Org: OrgUserLib, Net: Ethernet})
		srv := w.Node(0).App("server")
		cli := w.Node(1).App("client")
		var total time.Duration
		done := false
		srv.Go("srv", func(th *kern.Thread) {
			l, _ := srv.Stack.Listen(th, 80, opts)
			c, _ := l.Accept(th)
			buf := make([]byte, 64)
			for {
				// Gather the full 8-byte request, then answer.
				got := 0
				for got < 8 {
					n, _ := c.Read(th, buf[got:8])
					if n == 0 {
						return
					}
					got += n
				}
				c.Write(th, []byte("response"))
			}
		})
		cli.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
			c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), opts)
			if err != nil {
				t.Errorf("connect: %v", err)
				done = true
				return
			}
			start := time.Duration(th.Now())
			buf := make([]byte, 64)
			for i := 0; i < 10; i++ {
				c.Write(th, []byte("hdr:")) // header
				c.Write(th, []byte("body")) // body, Nagle-delayed by default
				got := 0
				for got < 8 {
					n, _ := c.Read(th, buf[got:8])
					got += n
				}
			}
			total = time.Duration(th.Now()) - start
			done = true
		})
		w.RunUntil(10*time.Minute, func() bool { return done })
		if !done {
			t.Fatal("request-response incomplete")
		}
		return total
	}
	slow := rtt(stacks.Options{})
	fast := rtt(stacks.Options{NoDelay: true})
	if fast >= slow {
		t.Fatalf("NoDelay did not help two-write requests: fast=%v slow=%v", fast, slow)
	}
	if slow < 2*fast {
		t.Fatalf("Nagle penalty implausibly small: fast=%v slow=%v", fast, slow)
	}
}

func TestUserLibUDPDatagrams(t *testing.T) {
	// The §5 connectionless path: datagram end-points through the library,
	// registry bypassed after the address-binding phase.
	w := NewWorld(Config{Org: OrgUserLib, Net: AN1})
	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	done := false
	srv.Go("srv", func(th *kern.Thread) {
		sock, err := srv.Lib.BindUDP(th, 2049)
		if err != nil {
			t.Error(err)
			return
		}
		for {
			d := sock.Recv(th)
			if err := sock.SendTo(th, d.From, append([]byte("re:"), d.Payload...)); err != nil {
				t.Errorf("server send: %v", err)
				return
			}
		}
	})
	cli.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		sock, err := cli.Lib.BindUDP(th, 3000)
		if err != nil {
			t.Error(err)
			done = true
			return
		}
		dst := udp.Endpoint{IP: w.Node(0).IP, Port: 2049}
		if err := sock.Resolve(th, dst.IP); err != nil {
			t.Errorf("resolve: %v", err)
			done = true
			return
		}
		for i := 0; i < 3; i++ {
			if err := sock.SendTo(th, dst, []byte("ping")); err != nil {
				t.Errorf("send: %v", err)
				done = true
				return
			}
			d := sock.Recv(th)
			if string(d.Payload) != "re:ping" {
				t.Errorf("reply = %q", d.Payload)
			}
		}
		// Oversized datagrams are rejected (the library does not fragment).
		if err := sock.SendTo(th, dst, make([]byte, 64*1024)); err == nil {
			t.Error("oversized datagram accepted")
		}
		sock.Close(th)
		done = true
	})
	w.RunUntil(time.Minute, func() bool { return done })
	if !done {
		t.Fatal("udp exchange incomplete")
	}
	// On the AN1 there is no handshake to negotiate BQIs for datagrams, so
	// they arrive at BQI zero and are demultiplexed in software by the
	// registry's default path — the paper's §5 observation about
	// connectionless protocols and hardware demultiplexing.
	if n := Counter(t, w, "netio.h0.demux_default"); n < 3 {
		t.Errorf("default path saw %d packets; AN1 datagrams should take the software fallback", n)
	}
}

// A datagram end-point closed a second time after its port was bound again
// leaves the new binding alone: the registry unbinds by capability, so on
// the AN1, where datagrams reach their end-points through the registry's
// default path, the new end-point stays bound and keeps receiving.
func TestUserLibUDPCloseTwiceKeepsRebind(t *testing.T) {
	w := NewWorld(Config{Org: OrgUserLib, Net: AN1})
	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	var got []byte
	bound := false
	srv.Go("srv", func(th *kern.Thread) {
		old, err := srv.Lib.BindUDP(th, 53)
		if err != nil {
			t.Error(err)
			return
		}
		old.Close(th)
		sock, err := srv.Lib.BindUDP(th, 53)
		if err != nil {
			t.Errorf("rebind: %v", err)
			return
		}
		old.Close(th)
		// An RPC behind the unbind on the same port: it has been handled.
		if err := sock.Resolve(th, w.Node(1).IP); err != nil {
			t.Error(err)
		}
		bound = true
		got = sock.Recv(th).Payload
	})
	w.RunUntil(time.Minute, func() bool { return bound })
	if n := w.Node(0).Registry.PortsInUse(); !bound || n != 1 {
		t.Fatalf("bound %v, %d ports in use after the second close, want the rebound one", bound, n)
	}
	cli.Go("cli", func(th *kern.Thread) {
		sock, err := cli.Lib.BindUDP(th, 3000)
		if err == nil {
			err = sock.SendTo(th, udp.Endpoint{IP: w.Node(0).IP, Port: 53}, []byte("query"))
		}
		if err != nil {
			t.Error(err)
		}
	})
	w.RunUntil(time.Minute, func() bool { return got != nil })
	if string(got) != "query" {
		t.Fatalf("the rebound end-point received %q, want the query", got)
	}
}

func TestConcurrentConnectionsIsolated(t *testing.T) {
	// Two applications on each host, two simultaneous connections: each
	// must have its own channel/capability, and the streams must not leak
	// into each other — the protection property the per-endpoint
	// demultiplexing exists to provide.
	for _, net := range []Net{Ethernet, AN1} {
		t.Run(net.String(), func(t *testing.T) {
			w := NewWorld(Config{Org: OrgUserLib, Net: net})
			srvA := w.Node(0).App("serverA")
			srvB := w.Node(0).App("serverB")
			cliA := w.Node(1).App("clientA")
			cliB := w.Node(1).App("clientB")
			okA, okB := false, false

			serve := func(app *App, port uint16, tag byte) {
				app.Go("srv", func(th *kern.Thread) {
					l, err := app.Stack.Listen(th, port, stacks.Options{})
					if err != nil {
						t.Error(err)
						return
					}
					c, err := l.Accept(th)
					if err != nil {
						t.Error(err)
						return
					}
					buf := make([]byte, 8192)
					for {
						n, _ := c.Read(th, buf)
						if n == 0 {
							return
						}
						for i := 0; i < n; i++ {
							if buf[i] != tag {
								t.Errorf("port %d received foreign byte %#x (want %#x): stream leakage", port, buf[i], tag)
								return
							}
						}
						c.Write(th, buf[:n])
					}
				})
			}
			drive := func(app *App, port uint16, tag byte, ok *bool) {
				app.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
					c, err := app.Stack.Connect(th, w.Endpoint(0, port), stacks.Options{})
					if err != nil {
						t.Error(err)
						*ok = true
						return
					}
					payload := bytes.Repeat([]byte{tag}, 20000)
					sent, rcvd := 0, 0
					buf := make([]byte, 8192)
					for rcvd < len(payload) {
						if sent < len(payload) {
							n, _ := c.Write(th, payload[sent:min(sent+4096, len(payload))])
							sent += n
						}
						n, _ := c.Read(th, buf)
						for i := 0; i < n; i++ {
							if buf[i] != tag {
								t.Errorf("client %#x echoed foreign byte %#x", tag, buf[i])
								*ok = true
								return
							}
						}
						rcvd += n
					}
					*ok = true
				})
			}
			serve(srvA, 81, 0xaa)
			serve(srvB, 82, 0xbb)
			drive(cliA, 81, 0xaa, &okA)
			drive(cliB, 82, 0xbb, &okB)
			w.RunUntil(5*time.Minute, func() bool { return okA && okB })
			if !okA || !okB {
				t.Fatal("concurrent transfers incomplete")
			}
		})
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestThreeHostWorld(t *testing.T) {
	// A third workstation on the same segment: connections between every
	// pair, demultiplexed correctly, under the user-level organization.
	w := NewWorld(Config{Org: OrgUserLib, Net: Ethernet, Hosts: 3})
	srv := w.Node(0).App("server")
	served := 0
	srv.Go("srv", func(th *kern.Thread) {
		l, err := srv.Stack.Listen(th, 80, stacks.Options{})
		if err != nil {
			t.Error(err)
			return
		}
		for {
			c, err := l.Accept(th)
			if err != nil {
				return
			}
			// Connections arrive serially; handle inline.
			buf := make([]byte, 1024)
			n, _ := c.Read(th, buf)
			c.Write(th, buf[:n])
			served++
		}
	})
	oks := make([]bool, 2)
	for i := 1; i <= 2; i++ {
		i := i
		cli := w.Node(i).App("client")
		cli.GoAfter(time.Duration(i)*20*time.Millisecond, "cli", func(th *kern.Thread) {
			c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
			if err != nil {
				t.Errorf("host %d connect: %v", i, err)
				oks[i-1] = true
				return
			}
			msg := []byte{byte(i), byte(i), byte(i)}
			c.Write(th, msg)
			buf := make([]byte, 16)
			got := 0
			for got < len(msg) {
				n, _ := c.Read(th, buf[got:len(msg)])
				got += n
			}
			if buf[0] != byte(i) {
				t.Errorf("host %d echo corrupted: %x", i, buf[:got])
			}
			oks[i-1] = true
		})
	}
	w.RunUntil(2*time.Minute, func() bool { return oks[0] && oks[1] })
	if !oks[0] || !oks[1] {
		t.Fatalf("multi-host exchanges incomplete (served=%d)", served)
	}
}

func TestSequentialAcceptsReusePort(t *testing.T) {
	// One listener serving several connections in sequence, each with its
	// own channel and capability (userlib) or pcb (monolithic).
	for _, org := range []Org{OrgUserLib, OrgInKernel} {
		t.Run(org.String(), func(t *testing.T) {
			w := NewWorld(Config{Org: org, Net: Ethernet})
			srv := w.Node(0).App("server")
			cli := w.Node(1).App("client")
			const conns = 3
			served := 0
			srv.Go("srv", func(th *kern.Thread) {
				l, err := srv.Stack.Listen(th, 80, stacks.Options{})
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < conns; i++ {
					c, err := l.Accept(th)
					if err != nil {
						t.Error(err)
						return
					}
					buf := make([]byte, 64)
					n, _ := c.Read(th, buf)
					c.Write(th, buf[:n])
					served++
				}
			})
			ok := false
			cli.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
				for i := 0; i < conns; i++ {
					c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
					if err != nil {
						t.Errorf("connect %d: %v", i, err)
						ok = true
						return
					}
					c.Write(th, []byte("hi"))
					buf := make([]byte, 8)
					got := 0
					for got < 2 {
						n, _ := c.Read(th, buf[got:2])
						got += n
					}
					c.Close(th)
					th.Sleep(20 * time.Millisecond)
				}
				ok = true
			})
			w.RunUntil(5*time.Minute, func() bool { return ok && served == conns })
			if served != conns {
				t.Fatalf("served %d/%d connections", served, conns)
			}
		})
	}
}

// TestTimerWheelLossyTransfer drives the wheel backend through its full
// repertoire on a two-host world: retransmission timers under 5% loss,
// delayed ACKs, and TIME_WAIT expiry returning the ephemeral port.
func TestTimerWheelLossyTransfer(t *testing.T) {
	w := NewWorld(Config{
		Org: OrgUserLib, Net: Ethernet,
		Conditions: &wire.LinkConditions{Seed: 5, LossProb: 0.05},
	})
	enableConformance(t, w)
	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	var cliConn stacks.Conn
	phase := 0
	srv.Go("srv", func(th *kern.Thread) {
		l, _ := srv.Stack.Listen(th, 80, stacks.Options{})
		c, err := l.Accept(th)
		if err != nil {
			return
		}
		buf := make([]byte, 8192)
		total := 0
		for {
			n, err := c.Read(th, buf)
			if err != nil || n == 0 {
				break
			}
			total += n
		}
		c.Close(th)
		if total != 64*1024 {
			t.Errorf("server received %d bytes, want %d", total, 64*1024)
		}
		phase = 2
	})
	cli.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
		if err != nil {
			t.Errorf("connect: %v", err)
			phase = -1
			return
		}
		cliConn = c
		for sent := 0; sent < 64*1024; sent += 4096 {
			if _, err := c.Write(th, pattern(4096)); err != nil {
				t.Errorf("write: %v", err)
				phase = -1
				return
			}
		}
		c.Close(th)
		phase = 1
	})
	w.RunUntil(2*time.Minute, func() bool { return phase >= 2 || phase < 0 })
	if phase < 2 {
		t.Fatalf("transfer incomplete (phase %d)", phase)
	}
	// The active closer sits in TIME_WAIT; the wheel must fire its 2MSL
	// timer (a cross-level cascade: 120 slow ticks) and the library's
	// teardown must return the ephemeral port to the registry.
	w.Run(3 * time.Minute)
	if s := cliConn.State(); s != tcp.Closed {
		t.Fatalf("client state after 2MSL = %v, want Closed", s)
	}
	if n := w.Node(1).Registry.PortsInUse(); n != 0 {
		t.Fatalf("client registry still holds %d ports after teardown", n)
	}
	if n := w.Node(0).Registry.PortsInUse(); n != 1 {
		t.Fatalf("server registry holds %d ports, want 1 (the listener)", n)
	}
}
