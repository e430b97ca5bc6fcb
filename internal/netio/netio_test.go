package netio

import (
	"testing"

	"ulp/internal/costs"
	"ulp/internal/filter"
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/netdev"
	"ulp/internal/pkt"
	"ulp/internal/sim"
	"ulp/internal/tcp"
	"ulp/internal/wire"
)

type world struct {
	s      *sim.Sim
	h1, h2 *kern.Host
	m1, m2 *Module
	krn1   *kern.Domain
	krn2   *kern.Domain
	app1   *kern.Domain
	app2   *kern.Domain
	addr1  link.Addr
	addr2  link.Addr
}

func newWorld(t testing.TB, an1 bool) *world {
	s := sim.New()
	var seg *wire.Segment
	if an1 {
		seg = wire.New(s, wire.AN1Config())
	} else {
		seg = wire.New(s, wire.EthernetConfig())
	}
	w := &world{s: s, addr1: link.MakeAddr(1), addr2: link.MakeAddr(2)}
	w.h1 = kern.NewHost(s, "h1", costs.Default())
	w.h2 = kern.NewHost(s, "h2", costs.Default())
	var d1, d2 netdev.Device
	if an1 {
		d1 = netdev.NewAN1(w.h1, seg, w.addr1, 0)
		d2 = netdev.NewAN1(w.h2, seg, w.addr2, 0)
	} else {
		d1 = netdev.NewLance(w.h1, seg, w.addr1)
		d2 = netdev.NewLance(w.h2, seg, w.addr2)
	}
	w.m1 = New(w.h1, d1)
	w.m2 = New(w.h2, d2)
	w.krn1 = w.h1.NewDomain("kernel", true)
	w.krn2 = w.h2.NewDomain("kernel", true)
	w.app1 = w.h1.NewDomain("app", false)
	w.app2 = w.h2.NewDomain("app", false)
	return w
}

var (
	ip1 = ipv4.Addr{10, 0, 0, 1}
	ip2 = ipv4.Addr{10, 0, 0, 2}
)

// buildFrame assembles link+IP+TCP bytes for endpoint tests.
func buildTCPFrame(w *world, hdrLen int, srcPort, dstPort uint16, payload []byte) *pkt.Buf {
	b := pkt.FromBytes(hdrLen+ipv4.HeaderLen+tcp.HeaderLen, payload)
	th := tcp.Header{SrcPort: srcPort, DstPort: dstPort, Flags: tcp.FlagACK, Window: 1024}
	th.Encode(b, ip1, ip2)
	ih := ipv4.Header{TTL: 64, Proto: ipv4.ProtoTCP, Src: ip1, Dst: ip2}
	ih.Encode(b)
	if hdrLen == link.AN1HeaderLen {
		lh := link.AN1Header{Dst: w.addr2, Src: w.addr1, Type: link.TypeIPv4}
		lh.Encode(b)
	} else {
		lh := link.EthHeader{Dst: w.addr2, Src: w.addr1, Type: link.TypeIPv4}
		lh.Encode(b)
	}
	return b
}

// wait is a lone consumer's receive: it attaches ch to a doorbell of its own,
// sleeps on it until the channel has frames and returns what it drains.
func wait(th *kern.Thread, ch *Channel) []*pkt.Buf {
	var d Doorbell
	d.Init(ch.mod.host)
	ch.Attach(&d, nil)
	for {
		if batch := ch.TryRecv(); len(batch) > 0 {
			return batch
		}
		d.Wait(th)
	}
}

func chanSpecAndTemplate(w *world, hdrLen int) (filter.Spec, Template) {
	spec := filter.Spec{
		LinkHdrLen: hdrLen, Proto: ipv4.ProtoTCP,
		LocalIP: ip2, LocalPort: 80,
		RemoteIP: ip1, RemotePort: 1025,
	}
	tmpl := Template{
		LinkSrc: w.addr2, LinkDst: w.addr1, Type: link.TypeIPv4,
		Proto: ipv4.ProtoTCP, LocalIP: ip2, LocalPort: 80,
		RemoteIP: ip1, RemotePort: 1025,
	}
	return spec, tmpl
}

func TestChannelRequiresPrivilege(t *testing.T) {
	w := newWorld(t, false)
	spec, tmpl := chanSpecAndTemplate(w, link.EthHeaderLen)
	if _, _, err := w.m2.CreateChannel(w.app2, spec, tmpl, 8); err == nil {
		t.Fatal("unprivileged domain created a channel")
	}
	if _, _, err := w.m2.CreateChannel(w.krn2, spec, tmpl, 8); err != nil {
		t.Fatalf("privileged creation failed: %v", err)
	}
}

func TestSoftwareDemuxDelivers(t *testing.T) {
	w := newWorld(t, false)
	spec, tmpl := chanSpecAndTemplate(w, link.EthHeaderLen)
	_, ch, err := w.m2.CreateChannel(w.krn2, spec, tmpl, 8)
	if err != nil {
		t.Fatal(err)
	}
	var defaulted int
	w.m2.SetDefaultHandler(func(b *pkt.Buf) { defaulted++ })

	var got []*pkt.Buf
	w.app2.Spawn("reader", func(th *kern.Thread) {
		got = wait(th, ch)
	})
	w.app1.Spawn("sender", func(th *kern.Thread) {
		// Matching packet goes to the channel.
		w.m1.SendKernel(th, buildTCPFrame(w, link.EthHeaderLen, 1025, 80, []byte("match")))
		// Wrong port falls through to the default handler.
		w.m1.SendKernel(th, buildTCPFrame(w, link.EthHeaderLen, 1025, 81, []byte("nomatch")))
	})
	w.s.Run(0)
	if len(got) != 1 {
		t.Fatalf("channel got %d packets, want 1", len(got))
	}
	if defaulted != 1 {
		t.Fatalf("default path got %d packets, want 1", defaulted)
	}
	if w.m2.demuxMatched != 1 || w.m2.demuxDefault != 1 {
		t.Fatalf("demux stats: %d/%d", w.m2.demuxMatched, w.m2.demuxDefault)
	}
}

func TestHardwareDemuxViaBQI(t *testing.T) {
	w := newWorld(t, true)
	spec, tmpl := chanSpecAndTemplate(w, link.AN1HeaderLen)
	_, ch, err := w.m2.CreateChannel(w.krn2, spec, tmpl, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ch.BQI() == 0 {
		t.Fatal("AN1 channel did not allocate a BQI")
	}
	var got []*pkt.Buf
	w.app2.Spawn("reader", func(th *kern.Thread) { got = wait(th, ch) })
	w.app1.Spawn("sender", func(th *kern.Thread) {
		b := buildTCPFrame(w, link.AN1HeaderLen, 1025, 80, []byte("hw"))
		// The sender writes the peer's BQI into the link header, as
		// negotiated at connection setup.
		bytes := b.Bytes()
		bytes[12] = byte(ch.BQI() >> 8)
		bytes[13] = byte(ch.BQI())
		w.m1.SendKernel(th, b)
	})
	w.s.Run(0)
	if len(got) != 1 {
		t.Fatalf("channel got %d packets, want 1", len(got))
	}
	if got[0].Meta.BQI != ch.BQI() {
		t.Fatalf("meta BQI = %d, want %d", got[0].Meta.BQI, ch.BQI())
	}
}

func TestAN1UnboundBQIFallsToKernel(t *testing.T) {
	w := newWorld(t, true)
	var defaulted int
	w.m2.SetDefaultHandler(func(b *pkt.Buf) { defaulted++ })
	w.app1.Spawn("sender", func(th *kern.Thread) {
		b := buildTCPFrame(w, link.AN1HeaderLen, 9, 9, []byte("x"))
		bytes := b.Bytes()
		bytes[12], bytes[13] = 0x7f, 0xff // unbound BQI
		w.m1.SendKernel(th, b)
	})
	w.s.Run(0)
	if defaulted != 1 {
		t.Fatalf("default path got %d, want 1 (BQI fallback)", defaulted)
	}
}

func TestSendTemplateEnforcement(t *testing.T) {
	w := newWorld(t, false)
	// Create a send channel on host 1 (the sender's own module).
	spec := filter.Spec{LinkHdrLen: link.EthHeaderLen, Proto: ipv4.ProtoTCP, LocalIP: ip1, LocalPort: 1025, RemoteIP: ip2, RemotePort: 80}
	tmpl := Template{
		LinkSrc: w.addr1, LinkDst: w.addr2, Type: link.TypeIPv4,
		Proto: ipv4.ProtoTCP, LocalIP: ip1, LocalPort: 1025,
		RemoteIP: ip2, RemotePort: 80,
	}
	cap, _, err := w.m1.CreateChannel(w.krn1, spec, tmpl, 8)
	if err != nil {
		t.Fatal(err)
	}
	received := 0
	w.m2.SetDefaultHandler(func(b *pkt.Buf) { received++ })

	var errLegit, errSpoofIP, errSpoofPort, errBadCap error
	w.app1.Spawn("sender", func(th *kern.Thread) {
		errLegit = w.m1.Send(th, cap, buildTCPFrame(w, link.EthHeaderLen, 1025, 80, []byte("ok")))

		// Impersonation: forge another source IP.
		spoof := buildTCPFrame(w, link.EthHeaderLen, 1025, 80, []byte("bad"))
		copy(spoof.Bytes()[link.EthHeaderLen+12:], []byte{10, 0, 0, 9})
		errSpoofIP = w.m1.Send(th, cap, spoof)

		// Forge the source port.
		errSpoofPort = w.m1.Send(th, cap, buildTCPFrame(w, link.EthHeaderLen, 2222, 80, []byte("bad")))

		// Forged capability.
		fake := &Capability{id: 999, template: tmpl, ch: cap.ch}
		errBadCap = w.m1.Send(th, fake, buildTCPFrame(w, link.EthHeaderLen, 1025, 80, []byte("bad")))
	})
	w.s.Run(0)
	if errLegit != nil {
		t.Fatalf("legitimate send rejected: %v", errLegit)
	}
	if errSpoofIP != ErrTemplateMismatch {
		t.Fatalf("spoofed IP: err = %v", errSpoofIP)
	}
	if errSpoofPort != ErrTemplateMismatch {
		t.Fatalf("spoofed port: err = %v", errSpoofPort)
	}
	if errBadCap != ErrBadCapability {
		t.Fatalf("forged capability: err = %v", errBadCap)
	}
	if received != 1 {
		t.Fatalf("wire saw %d frames, want 1 (only the legitimate one)", received)
	}
	if w.m1.sendRejected != 3 || w.m1.sendOK != 1 {
		t.Fatalf("send stats: ok=%d rejected=%d", w.m1.sendOK, w.m1.sendRejected)
	}
}

func TestNotificationBatching(t *testing.T) {
	w := newWorld(t, false)
	spec, tmpl := chanSpecAndTemplate(w, link.EthHeaderLen)
	_, ch, err := w.m2.CreateChannel(w.krn2, spec, tmpl, 32)
	if err != nil {
		t.Fatal(err)
	}
	const burst = 10
	w.app1.Spawn("sender", func(th *kern.Thread) {
		for i := 0; i < burst; i++ {
			w.m1.SendKernel(th, buildTCPFrame(w, link.EthHeaderLen, 1025, 80, []byte("pkt")))
		}
	})
	// Reader wakes late: the whole burst should arrive as one batch under
	// few notifications.
	var batch []*pkt.Buf
	w.app2.SpawnAfter(50_000_000, "reader", func(th *kern.Thread) {
		batch = wait(th, ch)
	})
	w.s.Run(0)
	if len(batch) != burst {
		t.Fatalf("batch = %d packets, want %d", len(batch), burst)
	}
	if ch.Notifications != 1 {
		t.Fatalf("notifications = %d, want 1 (batched)", ch.Notifications)
	}
}

func TestChannelOverflowDrops(t *testing.T) {
	w := newWorld(t, false)
	spec, tmpl := chanSpecAndTemplate(w, link.EthHeaderLen)
	_, ch, err := w.m2.CreateChannel(w.krn2, spec, tmpl, 2)
	if err != nil {
		t.Fatal(err)
	}
	w.app1.Spawn("sender", func(th *kern.Thread) {
		for i := 0; i < 5; i++ {
			w.m1.SendKernel(th, buildTCPFrame(w, link.EthHeaderLen, 1025, 80, []byte("pkt")))
		}
	})
	w.s.Run(0)
	if ch.Pending() != 2 || ch.Dropped != 3 {
		t.Fatalf("pending=%d dropped=%d, want 2/3", ch.Pending(), ch.Dropped)
	}
}

func TestDestroyChannelStopsDelivery(t *testing.T) {
	w := newWorld(t, false)
	spec, tmpl := chanSpecAndTemplate(w, link.EthHeaderLen)
	cap, ch, err := w.m2.CreateChannel(w.krn2, spec, tmpl, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.m2.DestroyChannel(w.app2, cap); err == nil {
		t.Fatal("unprivileged destroy allowed")
	}
	if err := w.m2.DestroyChannel(w.krn2, cap); err != nil {
		t.Fatal(err)
	}
	defaulted := 0
	w.m2.SetDefaultHandler(func(b *pkt.Buf) { defaulted++ })
	w.app1.Spawn("sender", func(th *kern.Thread) {
		w.m1.SendKernel(th, buildTCPFrame(w, link.EthHeaderLen, 1025, 80, []byte("late")))
	})
	w.s.Run(0)
	if ch.Pending() != 0 || defaulted != 1 {
		t.Fatalf("after destroy: pending=%d defaulted=%d", ch.Pending(), defaulted)
	}
	// The revoked capability no longer sends.
	var sendErr error
	w.app2.Spawn("s", func(th *kern.Thread) {
		sendErr = w.m2.Send(th, cap, buildTCPFrame(w, link.EthHeaderLen, 80, 1025, nil))
	})
	w.s.Run(0)
	if sendErr != ErrBadCapability {
		t.Fatalf("revoked capability send err = %v", sendErr)
	}
}

func TestTemplateVerifyUnit(t *testing.T) {
	w := newWorld(t, false)
	_, tmpl := chanSpecAndTemplate(w, link.EthHeaderLen)
	tmpl.LinkSrc, tmpl.LinkDst = w.addr1, w.addr2
	tmpl.LocalIP, tmpl.RemoteIP = ip1, ip2
	tmpl.LocalPort, tmpl.RemotePort = 1025, 80
	good := buildTCPFrame(w, link.EthHeaderLen, 1025, 80, []byte("x"))
	if !tmpl.Verify(good.Bytes(), link.EthHeaderLen) {
		t.Fatal("matching frame rejected")
	}
	if tmpl.Verify(good.Bytes()[:10], link.EthHeaderLen) {
		t.Fatal("truncated frame accepted")
	}
	// Raw (link-only) template.
	raw := Template{LinkSrc: w.addr1, Type: link.TypeRaw}
	b := pkt.FromBytes(link.EthHeaderLen, []byte("raw payload"))
	lh := link.EthHeader{Dst: w.addr2, Src: w.addr1, Type: link.TypeRaw}
	lh.Encode(b)
	if !raw.Verify(b.Bytes(), link.EthHeaderLen) {
		t.Fatal("raw frame rejected")
	}
	lh2 := link.EthHeader{Dst: w.addr2, Src: w.addr2, Type: link.TypeRaw} // wrong src
	b2 := pkt.FromBytes(link.EthHeaderLen, nil)
	lh2.Encode(b2)
	if raw.Verify(b2.Bytes(), link.EthHeaderLen) {
		t.Fatal("forged link source accepted")
	}
}

// A template refuses every IP fragment. A later fragment's first bytes are
// payload: one whose payload happens to open with the template's ports must
// not pass as the connection's segment, and the library never fragments.
func TestTemplateVerifyRefusesFragments(t *testing.T) {
	w := newWorld(t, false)
	_, tmpl := chanSpecAndTemplate(w, link.EthHeaderLen)
	tmpl.LinkSrc, tmpl.LinkDst = w.addr1, w.addr2
	tmpl.LocalIP, tmpl.RemoteIP = ip1, ip2
	tmpl.LocalPort, tmpl.RemotePort = 1025, 80
	frame := func(h ipv4.Header, payload []byte) []byte {
		b := pkt.FromBytes(link.EthHeaderLen+ipv4.HeaderLen, payload)
		h.TTL, h.Proto, h.Src, h.Dst = 64, ipv4.ProtoTCP, ip1, ip2
		h.Encode(b)
		lh := link.EthHeader{Dst: w.addr2, Src: w.addr1, Type: link.TypeIPv4}
		lh.Encode(b)
		return b.Bytes()
	}
	ports := []byte{1025 >> 8, 1025 & 0xff, 0, 80, 'd', 'a', 't', 'a'}
	if !tmpl.Verify(frame(ipv4.Header{DF: true}, ports), link.EthHeaderLen) {
		t.Fatal("whole datagram rejected")
	}
	for name, h := range map[string]ipv4.Header{
		"later fragment": {FragOff: 1480},
		"first fragment": {MF: true},
	} {
		if tmpl.Verify(frame(h, ports), link.EthHeaderLen) {
			t.Errorf("%s accepted", name)
		}
	}
}
