package stacks

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"ulp/internal/costs"
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/netdev"
	"ulp/internal/netio"
	"ulp/internal/pkt"
	"ulp/internal/sim"
	"ulp/internal/tcp"
	"ulp/internal/udp"
	"ulp/internal/wire"
)

// twoHosts builds two hosts with the given organization constructor.
func twoHosts(an1 bool) (*sim.Sim, []*netio.Module, []ipv4.Addr) {
	s := sim.New()
	var seg *wire.Segment
	if an1 {
		seg = wire.New(s, wire.AN1Config())
	} else {
		seg = wire.New(s, wire.EthernetConfig())
	}
	var mods []*netio.Module
	var ips []ipv4.Addr
	for i := 0; i < 2; i++ {
		h := kern.NewHost(s, []string{"h0", "h1"}[i], costs.Default())
		var dev netdev.Device
		if an1 {
			dev = netdev.NewAN1(h, seg, link.MakeAddr(i+1), 0)
		} else {
			dev = netdev.NewLance(h, seg, link.MakeAddr(i+1))
		}
		mods = append(mods, netio.New(h, dev))
		ips = append(ips, ipv4.Addr{10, 0, 0, byte(i + 1)})
	}
	return s, mods, ips
}

func TestInKernelEcho(t *testing.T) {
	s, mods, ips := twoHosts(false)
	ik0 := NewInKernel(s, mods[0], ips[0])
	ik1 := NewInKernel(s, mods[1], ips[1])
	data := []byte("monolithic in-kernel organization echo test payload")
	var got []byte
	done := false
	ik0.Host().NewDomain("app", false).Spawn("srv", func(th *kern.Thread) {
		l, err := ik0.Listen(th, 80, Options{})
		if err != nil {
			t.Error(err)
			return
		}
		c, _ := l.Accept(th)
		buf := make([]byte, 256)
		n, _ := c.Read(th, buf)
		c.Write(th, buf[:n])
	})
	ik1.Host().NewDomain("app", false).SpawnAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		c, err := ik1.Connect(th, tcp.Endpoint{IP: ips[0], Port: 80}, Options{})
		if err != nil {
			t.Error(err)
			done = true
			return
		}
		c.Write(th, data)
		buf := make([]byte, 256)
		for len(got) < len(data) {
			n, _ := c.Read(th, buf)
			got = append(got, buf[:n]...)
		}
		done = true
	})
	s.RunUntil(time.Minute, func() bool { return done })
	if !bytes.Equal(got, data) {
		t.Fatalf("echo mismatch: %q", got)
	}
}

func TestListenPortConflict(t *testing.T) {
	s, mods, ips := twoHosts(false)
	ik := NewInKernel(s, mods[0], ips[0])
	_ = NewInKernel(s, mods[1], ips[1])
	var err1, err2 error
	done := false
	ik.Host().NewDomain("app", false).Spawn("a", func(th *kern.Thread) {
		_, err1 = ik.Listen(th, 80, Options{})
		_, err2 = ik.Listen(th, 80, Options{})
		done = true
	})
	s.RunUntil(time.Second, func() bool { return done })
	if err1 != nil || err2 != ErrPortInUse {
		t.Fatalf("err1=%v err2=%v", err1, err2)
	}
}

func TestListenerCloseReleasesPort(t *testing.T) {
	s, mods, ips := twoHosts(false)
	ik := NewInKernel(s, mods[0], ips[0])
	_ = NewInKernel(s, mods[1], ips[1])
	done := false
	ik.Host().NewDomain("app", false).Spawn("a", func(th *kern.Thread) {
		l, err := ik.Listen(th, 80, Options{})
		if err != nil {
			t.Error(err)
		}
		l.Close(th)
		if _, err := ik.Listen(th, 80, Options{}); err != nil {
			t.Errorf("relisten after close: %v", err)
		}
		done = true
	})
	s.RunUntil(time.Second, func() bool { return done })
	if !done {
		t.Fatal("incomplete")
	}
}

func TestSingleServerRSTForUnknownPort(t *testing.T) {
	s, mods, ips := twoHosts(false)
	_ = NewSingleServer(s, mods[0], ips[0])
	ss1 := NewSingleServer(s, mods[1], ips[1])
	var err error
	done := false
	ss1.Host().NewDomain("app", false).Spawn("cli", func(th *kern.Thread) {
		_, err = ss1.Connect(th, tcp.Endpoint{IP: ips[0], Port: 4242}, Options{})
		done = true
	})
	s.RunUntil(time.Minute, func() bool { return done })
	if err != ErrRefused {
		t.Fatalf("connect to closed port: err = %v, want refused", err)
	}
}

func TestUDPExchangeAndFragmentation(t *testing.T) {
	s, mods, ips := twoHosts(false)
	ik0 := NewInKernel(s, mods[0], ips[0])
	ik1 := NewInKernel(s, mods[1], ips[1])
	// A 5000-byte datagram must fragment over the 1500-byte Ethernet and
	// reassemble on the far side.
	payload := make([]byte, 5000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var got udp.Datagram
	done := false
	ik0.Host().NewDomain("app", false).Spawn("srv", func(th *kern.Thread) {
		sock, err := ik0.UDP().Bind(th, 53)
		if err != nil {
			t.Error(err)
			return
		}
		got = sock.Recv(th)
		// Reply to the sender.
		sock.SendTo(th, got.From, []byte("ack"))
	})
	var reply udp.Datagram
	ik1.Host().NewDomain("app", false).SpawnAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		sock, err := ik1.UDP().Bind(th, 1053)
		if err != nil {
			t.Error(err)
			done = true
			return
		}
		sock.SendTo(th, udp.Endpoint{IP: ips[0], Port: 53}, payload)
		reply = sock.Recv(th)
		done = true
	})
	s.RunUntil(time.Minute, func() bool { return done })
	if !done {
		t.Fatal("udp exchange incomplete")
	}
	if !bytes.Equal(got.Payload, payload) {
		t.Fatalf("reassembled datagram mismatch (%d bytes)", len(got.Payload))
	}
	if got.From.Port != 1053 || string(reply.Payload) != "ack" {
		t.Fatalf("from=%v reply=%q", got.From, reply.Payload)
	}
}

// A bound port queues at most 64 datagrams and drops the 65th; a port is
// bound once, a datagram to a closed port is dropped, and the closed port
// can be bound again, which a second close of the old socket leaves bound.
func TestUDPQueueLimitAndRebind(t *testing.T) {
	s, mods, ips := twoHosts(false)
	ik := NewInKernel(s, mods[0], ips[0])
	u := ik.UDP()
	ih := ipv4.Header{Proto: ipv4.ProtoUDP, Src: ips[1], Dst: ips[0]}
	datagram := func(i int) []byte {
		b := pkt.FromBytes(udp.HeaderLen, []byte{byte(i)})
		defer b.Release()
		uh := udp.Header{SrcPort: 9, DstPort: 53}
		uh.Encode(b, ih.Src, ih.Dst)
		return append([]byte(nil), b.Bytes()...)
	}
	done := false
	ik.Host().NewDomain("app", false).Spawn("app", func(th *kern.Thread) {
		defer func() { done = true }()
		sock, err := u.Bind(th, 53)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := u.Bind(th, 53); err != ErrPortInUse {
			t.Errorf("second bind of a bound port: err = %v, want ErrPortInUse", err)
		}
		for i := range udpQueueLimit + 1 {
			u.Input(th, ih, datagram(i))
		}
		if len(sock.queue) != udpQueueLimit {
			t.Errorf("%d datagrams queued, want %d", len(sock.queue), udpQueueLimit)
		}
		for i := range udpQueueLimit {
			if d := sock.Recv(th); d.Payload[0] != byte(i) || d.From.Port != 9 {
				t.Errorf("datagram %d: payload %v from %v", i, d.Payload, d.From)
			}
		}
		sock.Close(th)
		u.Input(th, ih, datagram(1))
		again, err := u.Bind(th, 53)
		if err != nil {
			t.Errorf("rebind of a closed port: %v", err)
			return
		}
		sock.Close(th)
		u.Input(th, ih, datagram(2))
		if len(sock.queue) != 0 || len(again.queue) != 1 || again.queue[0].Payload[0] != 2 {
			t.Errorf("after rebind: closed socket holds %d, new one %v; want 0 and the one sent after the bind",
				len(sock.queue), again.queue)
		}
	})
	s.RunUntil(time.Second, func() bool { return done })
	if !done {
		t.Fatal("app did not finish")
	}
}

func TestNetifOffSubnetDropped(t *testing.T) {
	s, mods, ips := twoHosts(false)
	nif := NewNetif(s, mods[0], ips[0])
	done := false
	mods[0].Device().Host().NewDomain("k", true).Spawn("tx", func(th *kern.Thread) {
		b := pktWithIP(nif, ipv4.Addr{192, 168, 9, 9})
		nif.Resolve(th, b, ipv4.Addr{192, 168, 9, 9}, 0)
		done = true
	})
	s.RunUntil(time.Second, func() bool { return done })
	if sent := counter(t, mods[0].Device().Describe, "tx_frames"); sent != 0 {
		t.Fatalf("off-subnet packet transmitted despite no gateway support (%d frames)", sent)
	}
}

// counter reads one counter a layer describes, failing the test when the
// layer does not describe it.
func counter(t *testing.T, describe func(func(string, int64)), key string) int64 {
	t.Helper()
	v, ok := int64(0), false
	describe(func(k string, n int64) {
		if k == key {
			v, ok = n, true
		}
	})
	if !ok {
		t.Fatalf("counter %q is not described", key)
	}
	return v
}

func pktWithIP(nif *Netif, dst ipv4.Addr) *pktBuf {
	b := pktNew(nif.Headroom(), 8)
	h := ipv4.Header{TTL: 64, Proto: ipv4.ProtoUDP, Src: nif.IP, Dst: dst}
	h.Encode(b)
	return b
}

func TestNetifARPResolutionFlow(t *testing.T) {
	s, mods, ips := twoHosts(false)
	nif0 := NewNetif(s, mods[0], ips[0])
	nif1 := NewNetif(s, mods[1], ips[1])
	// Wire host 1's default handler to answer ARP.
	krn1 := mods[1].Device().Host().NewDomain("kernel", true)
	mods[1].SetDefaultHandler(func(b *pktBuf) {
		krn1.Spawn("arp", func(th *kern.Thread) {
			if et, _, err := nif1.StripLink(b); err == nil && et == link.TypeARP {
				nif1.InputARP(th, b)
			}
		})
	})
	// Host 0's default handler feeds its own ARP machine.
	delivered := 0
	krn0 := mods[0].Device().Host().NewDomain("kernel", true)
	mods[0].SetDefaultHandler(func(b *pktBuf) {
		krn0.Spawn("in", func(th *kern.Thread) {
			et, _, err := nif0.StripLink(b)
			if err != nil {
				return
			}
			switch et {
			case link.TypeARP:
				nif0.InputARP(th, b)
			case link.TypeIPv4:
				delivered++
			}
		})
	})
	// Count IP frames received at host 1.
	got1 := 0
	mods[1].SetDefaultHandler(func(b *pktBuf) {
		krn1.Spawn("in", func(th *kern.Thread) {
			et, _, err := nif1.StripLink(b)
			if err != nil {
				return
			}
			switch et {
			case link.TypeARP:
				nif1.InputARP(th, b)
			case link.TypeIPv4:
				got1++
			}
		})
	})
	done := false
	krn0.Spawn("tx", func(th *kern.Thread) {
		// Two sends: the first queues pending ARP; both flush on reply.
		nif0.Resolve(th, pktWithIP(nif0, ips[1]), ips[1], 0)
		nif0.Resolve(th, pktWithIP(nif0, ips[1]), ips[1], 0)
		done = true
	})
	s.RunUntil(time.Second, func() bool { return done && got1 >= 2 })
	if got1 != 2 {
		t.Fatalf("delivered %d IP frames after ARP resolution, want 2", got1)
	}
	// The cache is now warm: direct framing without a new ARP exchange.
	if _, ok := nif0.ARP.Lookup(0, ips[1]); !ok {
		t.Fatal("ARP cache not warm after exchange")
	}
	_ = delivered
}

func TestSockBlockingSemantics(t *testing.T) {
	s := sim.New()
	h := kern.NewHost(s, "h", costs.Default())
	dom := h.NewDomain("app", false)
	local := tcp.Endpoint{IP: ipv4.Addr{10, 0, 0, 1}, Port: 1}
	peer := tcp.Endpoint{IP: ipv4.Addr{10, 0, 0, 2}, Port: 2}
	tc := tcp.NewConn(tcp.Config{}, local, peer, tcp.Callbacks{})
	sock := NewSock(s, tc)
	tc.SetCallbacks(sock.Callbacks(func(seg Seg) {}))

	var readReturned bool
	dom.Spawn("reader", func(th *kern.Thread) {
		buf := make([]byte, 16)
		n, err := sock.Read(th, buf)
		readReturned = true
		if err != nil || n != 0 {
			t.Errorf("read after close: n=%d err=%v", n, err)
		}
	})
	// Reader blocks (no connection); closing the engine releases it with
	// EOF semantics.
	s.Run(10 * time.Millisecond)
	if readReturned {
		t.Fatal("read returned without data")
	}
	dom.Spawn("closer", func(th *kern.Thread) {
		tc.OpenListen()
		tc.Close() // LISTEN -> CLOSED
	})
	s.Run(10 * time.Millisecond)
	if !readReturned {
		t.Fatal("read not released by close")
	}
}

func TestSegCostStructure(t *testing.T) {
	h := kern.NewHost(sim.New(), "h", costs.Default())
	elided := costs.Default()
	elided.ChecksumPerByte = 0
	with := SegCost(h, 1460)
	without := SegCost(kern.NewHost(sim.New(), "h", elided), 1460)
	if with-without != h.Cost.Checksum(1460) {
		t.Fatalf("checksum adds %v, want %v", with-without, h.Cost.Checksum(1460))
	}
	small := SegCost(h, 1)
	if with <= small {
		t.Fatal("per-byte component missing")
	}
	if MbufCost(h) <= 0 {
		t.Fatal("mbuf layer cost must be positive")
	}
}

func TestMapError(t *testing.T) {
	cases := map[error]error{
		nil:              nil,
		tcp.ErrReset:     ErrReset,
		tcp.ErrRefused:   ErrRefused,
		tcp.ErrTimeout:   ErrConnTimeout,
		tcp.ErrKeepalive: ErrConnTimeout,
	}
	for in, want := range cases {
		if got := MapError(in); got != want {
			t.Errorf("MapError(%v) = %v, want %v", in, got, want)
		}
	}
	// ErrConnTimeout must remain matchable as the generic timeout.
	if !errors.Is(ErrConnTimeout, ErrTimeout) {
		t.Error("ErrConnTimeout does not wrap ErrTimeout")
	}
}

// pktNew keeps the test file terse.
func pktNew(headroom, size int) *pktBuf { return pkt.New(headroom, size) }
