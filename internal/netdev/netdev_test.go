package netdev

import (
	"testing"
	"time"

	"ulp/internal/costs"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/pkt"
	"ulp/internal/sim"
	"ulp/internal/trace"
	"ulp/internal/wire"
)

type world struct {
	s      *sim.Sim
	seg    *wire.Segment
	h1, h2 *kern.Host
	d1, d2 Device
}

func newEthWorld() *world {
	s := sim.New()
	seg := wire.New(s, wire.EthernetConfig())
	h1 := kern.NewHost(s, "h1", costs.Default())
	h2 := kern.NewHost(s, "h2", costs.Default())
	return &world{
		s: s, seg: seg, h1: h1, h2: h2,
		d1: NewLance(h1, seg, link.MakeAddr(1)),
		d2: NewLance(h2, seg, link.MakeAddr(2)),
	}
}

func newAN1World(mtu int) *world {
	s := sim.New()
	seg := wire.New(s, wire.AN1Config())
	h1 := kern.NewHost(s, "h1", costs.Default())
	h2 := kern.NewHost(s, "h2", costs.Default())
	return &world{
		s: s, seg: seg, h1: h1, h2: h2,
		d1: NewAN1(h1, seg, link.MakeAddr(1), mtu),
		d2: NewAN1(h2, seg, link.MakeAddr(2), mtu),
	}
}

func ethFrame(src, dst link.Addr, payload []byte) *pkt.Buf {
	b := pkt.FromBytes(link.EthHeaderLen, payload)
	h := link.EthHeader{Dst: dst, Src: src, Type: link.TypeRaw}
	h.Encode(b)
	return b
}

func an1Frame(src, dst link.Addr, bqi uint16, payload []byte) *pkt.Buf {
	b := pkt.FromBytes(link.AN1HeaderLen, payload)
	h := link.AN1Header{Dst: dst, Src: src, BQI: bqi, Type: link.TypeRaw}
	h.Encode(b)
	return b
}

func TestLanceEndToEnd(t *testing.T) {
	w := newEthWorld()
	var got *pkt.Buf
	w.d2.SetRxHandler(func(b *pkt.Buf) { got = b })
	dom := w.h1.NewDomain("app", false)
	dom.Spawn("tx", func(th *kern.Thread) {
		w.d1.Transmit(th, ethFrame(link.MakeAddr(1), link.MakeAddr(2), []byte("hello world, this is a test payload that is long enough")))
	})
	w.s.Run(0)
	if got == nil {
		t.Fatal("no delivery")
	}
	hdr, err := link.DecodeEth(got)
	if err != nil || hdr.Src != link.MakeAddr(1) {
		t.Fatalf("decode: %+v, %v", hdr, err)
	}
	if tx, rx := w.d1.(*Lance).txFrames, w.d2.(*Lance).rxFrames; tx != 1 || rx != 1 {
		t.Fatalf("stats: tx=%d rx=%d", tx, rx)
	}
}

func TestLancePadsShortFrames(t *testing.T) {
	w := newEthWorld()
	var got *pkt.Buf
	w.d2.SetRxHandler(func(b *pkt.Buf) { got = b })
	w.h1.NewDomain("app", false).Spawn("tx", func(th *kern.Thread) {
		w.d1.Transmit(th, ethFrame(link.MakeAddr(1), link.MakeAddr(2), []byte("x")))
	})
	w.s.Run(0)
	if got == nil || got.Len() != link.EthHeaderLen+link.EthMinPayload {
		t.Fatalf("padded frame len = %v", got.Len())
	}
}

func TestLanceChargesPIOBothSides(t *testing.T) {
	w := newEthWorld()
	w.d2.SetRxHandler(func(b *pkt.Buf) {})
	payload := make([]byte, 1000)
	w.h1.NewDomain("app", false).Spawn("tx", func(th *kern.Thread) {
		w.d1.Transmit(th, ethFrame(link.MakeAddr(1), link.MakeAddr(2), payload))
	})
	w.s.Run(0)
	c := costs.Default()
	frameLen := 1014
	wantTx := 2*c.DeviceCSR + c.LancePIO(frameLen)
	if w.h1.CPU.Busy() != wantTx {
		t.Fatalf("tx cpu = %v, want %v", w.h1.CPU.Busy(), wantTx)
	}
	wantRx := c.InterruptDispatch + c.LancePIO(frameLen)
	if w.h2.CPU.Busy() != wantRx {
		t.Fatalf("rx cpu = %v, want %v", w.h2.CPU.Busy(), wantRx)
	}
}

func TestLanceAddressFilter(t *testing.T) {
	w := newEthWorld()
	delivered := 0
	w.d2.SetRxHandler(func(b *pkt.Buf) { delivered++ })
	w.h1.NewDomain("app", false).Spawn("tx", func(th *kern.Thread) {
		// Wire-level broadcast carrying a unicast header for someone else
		// must be dropped by the controller's address filter.
		f := ethFrame(link.MakeAddr(1), link.MakeAddr(9), make([]byte, 64))
		w.seg.Transmit(link.MakeAddr(1), link.Broadcast, f)
	})
	w.s.Run(0)
	if delivered != 0 {
		t.Fatalf("address filter passed %d frames", delivered)
	}
}

func TestLancePadZeroedOverRecycledStorage(t *testing.T) {
	// Poison a small-class storage array with 0xFF and return it to the
	// pool; the LIFO free list hands that same storage to the next short
	// frame. The Ethernet minimum-frame pad must still arrive zeroed — a
	// non-zeroing Extend would leak the previous packet's bytes onto the
	// wire.
	poison := pkt.FromBytes(0, make([]byte, 200))
	for i, raw := 0, poison.Bytes(); i < len(raw); i++ {
		raw[i] = 0xFF
	}
	poison.Release()

	w := newEthWorld()
	var got *pkt.Buf
	w.d2.SetRxHandler(func(b *pkt.Buf) { got = b })
	w.h1.NewDomain("app", false).Spawn("tx", func(th *kern.Thread) {
		w.d1.Transmit(th, ethFrame(link.MakeAddr(1), link.MakeAddr(2), []byte{0xAA}))
	})
	w.s.Run(0)
	if got == nil {
		t.Fatal("no delivery")
	}
	f := got.Bytes()
	if len(f) != link.EthHeaderLen+link.EthMinPayload {
		t.Fatalf("frame len = %d, want %d", len(f), link.EthHeaderLen+link.EthMinPayload)
	}
	if f[link.EthHeaderLen] != 0xAA {
		t.Fatalf("payload byte = %#x, want 0xAA", f[link.EthHeaderLen])
	}
	for i := link.EthHeaderLen + 1; i < len(f); i++ {
		if f[i] != 0 {
			t.Fatalf("pad byte %d = %#x, want 0 (recycled storage leaked)", i, f[i])
		}
	}
}

func TestDeviceDropTraceEvents(t *testing.T) {
	w := newEthWorld()
	bus := trace.NewBus(func() time.Duration { return sim.Dur(w.s.Now()) })
	var drops []trace.Event
	bus.Subscribe(func(e trace.Event) {
		if e.Kind == trace.FrameDrop {
			drops = append(drops, e)
		}
	})
	w.s.Bus = bus
	w.d2.SetRxHandler(func(b *pkt.Buf) { t.Error("filtered frame delivered") })
	w.h1.NewDomain("app", false).Spawn("tx", func(th *kern.Thread) {
		f := ethFrame(link.MakeAddr(1), link.MakeAddr(9), make([]byte, 64))
		w.seg.Transmit(link.MakeAddr(1), link.Broadcast, f)
	})
	w.s.Run(0)
	if len(drops) != 1 || drops[0].Text != "addr-filter" {
		t.Fatalf("drop events = %+v, want one addr-filter drop", drops)
	}
}

func TestAN1HardwareDemux(t *testing.T) {
	w := newAN1World(0)
	an1 := w.d2.(*AN1)
	var toRing, toDefault int
	an1.InstallRing(0, new(Ring), 16, func(b *pkt.Buf) { toDefault++ })
	an1.InstallRing(7, new(Ring), 16, func(b *pkt.Buf) {
		toRing++
		if b.Meta.BQI != 7 {
			t.Errorf("meta BQI = %d", b.Meta.BQI)
		}
	})
	w.h1.NewDomain("app", false).Spawn("tx", func(th *kern.Thread) {
		w.d1.Transmit(th, an1Frame(link.MakeAddr(1), link.MakeAddr(2), 7, []byte("to ring 7")))
		w.d1.Transmit(th, an1Frame(link.MakeAddr(1), link.MakeAddr(2), 0, []byte("to kernel")))
		// Unbound BQI falls back to ring 0.
		w.d1.Transmit(th, an1Frame(link.MakeAddr(1), link.MakeAddr(2), 99, []byte("unbound")))
	})
	w.s.Run(0)
	if toRing != 1 || toDefault != 2 {
		t.Fatalf("ring=%d default=%d, want 1/2", toRing, toDefault)
	}
}

func TestAN1RingOverflow(t *testing.T) {
	w := newAN1World(0)
	an1 := w.d2.(*AN1)
	an1.InstallRing(3, new(Ring), 2, func(b *pkt.Buf) {})
	w.h1.NewDomain("app", false).Spawn("tx", func(th *kern.Thread) {
		for i := 0; i < 5; i++ {
			w.d1.Transmit(th, an1Frame(link.MakeAddr(1), link.MakeAddr(2), 3, []byte("x")))
		}
	})
	w.s.Run(0)
	st, ok := an1.RingStatus(3)
	if !ok || st.InUse != 2 || st.Dropped != 3 {
		t.Fatalf("ring status = %+v, ok=%v; want 2 in use, 3 dropped", st, ok)
	}
	// Releasing buffers allows more deliveries.
	an1.Release(3)
	w.h1.NewDomain("app2", false).Spawn("tx", func(th *kern.Thread) {
		w.d1.Transmit(th, an1Frame(link.MakeAddr(1), link.MakeAddr(2), 3, []byte("y")))
	})
	w.s.Run(0)
	st, _ = an1.RingStatus(3)
	if st.InUse != 2 {
		t.Fatalf("in use after release+deliver = %d, want 2", st.InUse)
	}
}

func TestAN1NoCPUPerByte(t *testing.T) {
	w := newAN1World(0)
	w.d2.SetRxHandler(func(b *pkt.Buf) {})
	w.h1.NewDomain("app", false).Spawn("tx", func(th *kern.Thread) {
		w.d1.Transmit(th, an1Frame(link.MakeAddr(1), link.MakeAddr(2), 0, make([]byte, 1400)))
	})
	w.s.Run(0)
	c := costs.Default()
	wantTx := c.AN1DMASetup + c.DeviceCSR
	if w.h1.CPU.Busy() != wantTx {
		t.Fatalf("tx cpu = %v, want %v (DMA should not cost per byte)", w.h1.CPU.Busy(), wantTx)
	}
	wantRx := c.InterruptDispatch + c.AN1DeviceMgmt
	if w.h2.CPU.Busy() != wantRx {
		t.Fatalf("rx cpu = %v, want %v", w.h2.CPU.Busy(), wantRx)
	}
}

func TestAN1MTUConfiguration(t *testing.T) {
	if d := newAN1World(0).d1; d.MTU() != link.AN1EncapMTU {
		t.Fatalf("default MTU = %d", d.MTU())
	}
	if d := newAN1World(link.AN1MaxMTU).d1; d.MTU() != link.AN1MaxMTU {
		t.Fatalf("extended MTU = %d", d.MTU())
	}
}

func TestAN1RemoveRing(t *testing.T) {
	w := newAN1World(0)
	an1 := w.d2.(*AN1)
	an1.InstallRing(5, new(Ring), 4, func(b *pkt.Buf) {})
	if !an1.RemoveRing(5) {
		t.Fatal("an unused ring's record was not handed back")
	}
	if _, ok := an1.RingStatus(5); ok {
		t.Fatal("ring still present after removal")
	}
	if an1.RemoveRing(5) {
		t.Fatal("removing an unbound BQI handed a record back")
	}

	// A ring holding a buffer — here one the consumer never released — may
	// have a frame between arrival and interrupt: its record stays the
	// controller's.
	an1.InstallRing(6, new(Ring), 4, func(b *pkt.Buf) { b.Release() })
	w.h1.NewDomain("app", false).Spawn("tx", func(th *kern.Thread) {
		w.d1.Transmit(th, an1Frame(link.MakeAddr(1), link.MakeAddr(2), 6, []byte("x")))
	})
	w.s.Run(0)
	if an1.RemoveRing(6) {
		t.Fatal("a ring with a buffer in use was handed back")
	}
}

func TestLatencyIncludesWireTime(t *testing.T) {
	w := newEthWorld()
	var arrival sim.Time
	w.d2.SetRxHandler(func(b *pkt.Buf) { arrival = w.s.Now() })
	w.h1.NewDomain("app", false).Spawn("tx", func(th *kern.Thread) {
		w.d1.Transmit(th, ethFrame(link.MakeAddr(1), link.MakeAddr(2), make([]byte, 1486)))
	})
	w.s.Run(0)
	// Arrival must be at least PIO tx + wire tx time for a 1500-byte frame.
	min := func() time.Duration { c := costs.Default(); return c.LancePIO(1500) }() + w.seg.TxTime(1500) + 10*time.Microsecond
	if sim.Dur(arrival) < min {
		t.Fatalf("arrival %v, want >= %v", arrival, min)
	}
}
