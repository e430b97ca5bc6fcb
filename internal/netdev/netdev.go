// Package netdev models the two host-network interfaces of the paper's
// testbed:
//
//   - LANCE: the DEC PMADD-AA TurboChannel Ethernet module. "This interface
//     does not have DMA capabilities to and from the host memory. Instead,
//     there are special packet buffers on board the controller that serve as
//     a staging area for data. The host transfers data between these buffers
//     and host memory using programmed I/O." Every byte therefore costs CPU
//     on both transmit and receive, and all demultiplexing is software.
//   - AN1: the DEC SRC AN1 controller, which DMAs to and from host memory
//     and demultiplexes in hardware: "a single field (called the buffer
//     queue index, BQI) in the link-level packet header provides a level of
//     indirection into a table kept in the controller" describing per-
//     endpoint receive rings. BQI zero is the protected kernel default.
//
// Devices deliver received packets to an installed handler in interrupt
// context after charging the device-inherent receive costs; the network I/O
// module layers demultiplexing, protection and buffering on top.
package netdev

import (
	"fmt"

	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/pkt"
	"ulp/internal/trace"
	"ulp/internal/wire"
)

// RxHandler consumes a received frame in interrupt context. For the AN1 the
// frame's Meta.BQI has been set from the link header by the controller.
type RxHandler func(b *pkt.Buf)

// Device is the interface the network I/O module drives.
type Device interface {
	wire.Station

	// Host returns the owning host.
	Host() *kern.Host

	// Name returns the device name for diagnostics.
	Name() string

	// HdrLen returns the link header length in bytes.
	HdrLen() int

	// MTU returns the maximum link payload.
	MTU() int

	// Transmit sends a complete link frame, charging the device's transmit
	// costs to the calling thread. Frames shorter than the link minimum
	// are padded.
	Transmit(t *kern.Thread, b *pkt.Buf)

	// SetRxHandler installs the interrupt-level receive handler.
	SetRxHandler(h RxHandler)

	// SetTrace attaches a trace bus; frame drops at the controller emit
	// FrameDrop events with a reason in Text.
	SetTrace(bus *trace.Bus)

	// Stats returns receive/transmit/drop counters.
	Stats() Stats
}

// Stats holds device counters.
type Stats struct {
	TxFrames, RxFrames, RxDropped int
	TxBytes, RxBytes              int64
}

// ---------------------------------------------------------------------------
// LANCE
// ---------------------------------------------------------------------------

// Lance is the programmed-I/O Ethernet interface.
type Lance struct {
	host    *kern.Host
	seg     *wire.Segment
	addr    link.Addr
	handler RxHandler
	bus     *trace.Bus
	stats   Stats
}

// NewLance creates a LANCE attached to the segment.
func NewLance(h *kern.Host, seg *wire.Segment, addr link.Addr) *Lance {
	d := &Lance{host: h, seg: seg, addr: addr}
	seg.Attach(d)
	return d
}

func (d *Lance) Host() *kern.Host         { return d.host }
func (d *Lance) Name() string             { return d.host.Name + ".lance" }
func (d *Lance) Addr() link.Addr          { return d.addr }
func (d *Lance) HdrLen() int              { return link.EthHeaderLen }
func (d *Lance) MTU() int                 { return link.EthMTU }
func (d *Lance) SetRxHandler(h RxHandler) { d.handler = h }
func (d *Lance) SetTrace(bus *trace.Bus)  { d.bus = bus }
func (d *Lance) Stats() Stats             { return d.stats }

// Transmit copies the frame into the on-board staging buffer with programmed
// I/O (charged to the calling thread), then lets the controller contend for
// the wire.
func (d *Lance) Transmit(t *kern.Thread, b *pkt.Buf) {
	if pad := link.EthHeaderLen + link.EthMinPayload - b.Len(); pad > 0 {
		// Pad to the Ethernet minimum; padding bytes cross the PIO path too.
		// Extend grows in place when storage allows (always, for pooled
		// minimum-size frames) instead of copying into a fresh buffer.
		b.Extend(pad)
	}
	c := t.Cost()
	t.Compute(c.DeviceCSR + c.LancePIO(b.Len()) + c.DeviceCSR)
	hdr, err := link.PeekEth(b)
	if err != nil {
		panic(fmt.Sprintf("netdev: transmit of malformed frame: %v", err))
	}
	d.stats.TxFrames++
	d.stats.TxBytes += int64(b.Len())
	d.seg.Transmit(d.addr, hdr.Dst, b)
}

// Deliver runs at frame arrival. The controller interrupts; the kernel's
// interrupt handler moves the packet from the staging buffer to host memory
// with programmed I/O ("on receives, the entire packet, complete with
// network headers, is made available to the protocol code") and then runs
// the installed receive handler.
func (d *Lance) Deliver(b *pkt.Buf) {
	if hdr, err := link.PeekEth(b); err != nil || (hdr.Dst != d.addr && !hdr.Dst.IsBroadcast()) {
		if d.bus.Enabled() {
			d.bus.Emit(trace.Event{Kind: trace.FrameDrop, Node: d.Name(),
				A: int64(b.Len()), Text: "addr-filter"})
		}
		b.Release() // address filter in the controller
		return
	}
	c := &d.host.Cost
	b.Meta.Rx = d
	d.host.ComputeAsyncArg(c.InterruptDispatch+c.LancePIO(b.Len()), lanceRx, b)
}

// lanceRx completes the receive interrupt of frame a.
func lanceRx(a any) {
	b := a.(*pkt.Buf)
	d := b.Meta.Rx.(*Lance)
	b.Meta.Rx = nil
	d.stats.RxFrames++
	d.stats.RxBytes += int64(b.Len())
	if d.handler != nil {
		d.handler(b)
	} else {
		d.stats.RxDropped++
		if d.bus.Enabled() {
			d.bus.Emit(trace.Event{Kind: trace.FrameDrop, Node: d.Name(),
				A: int64(b.Len()), Text: "no-handler"})
		}
		b.Release()
	}
}

// ---------------------------------------------------------------------------
// AN1
// ---------------------------------------------------------------------------

// RingStatus describes one BQI receive ring's occupancy.
type RingStatus struct {
	Capacity int
	InUse    int
	Dropped  int
}

// Ring is one entry in the controller's BQI table: a ring of host
// buffers the controller DMAs into. autoRelease models consumers (the
// kernel default queue) that copy the packet out of the ring synchronously
// in their handler, recycling the buffer immediately; channel rings hold
// buffers until the owning library hands them back. The record is the
// installer's (InstallRing), so that one which installs and removes rings
// all day can reuse it.
type Ring struct {
	dev         *AN1
	status      RingStatus
	handler     RxHandler
	autoRelease bool
}

// AN1 is the DMA-capable interface with hardware demultiplexing.
type AN1 struct {
	host  *kern.Host
	seg   *wire.Segment
	addr  link.Addr
	mtu   int
	rings map[uint16]*Ring
	bus   *trace.Bus
	stats Stats
}

// NewAN1 creates an AN1 controller attached to the segment. The mtu
// parameter selects between the paper's 1500-byte encapsulation and the
// hardware's 64 KB frames (the ablation).
func NewAN1(h *kern.Host, seg *wire.Segment, addr link.Addr, mtu int) *AN1 {
	if mtu <= 0 {
		mtu = link.AN1EncapMTU
	}
	d := &AN1{host: h, seg: seg, addr: addr, mtu: mtu, rings: make(map[uint16]*Ring)}
	seg.Attach(d)
	return d
}

func (d *AN1) Host() *kern.Host { return d.host }
func (d *AN1) Name() string     { return d.host.Name + ".an1" }
func (d *AN1) Addr() link.Addr  { return d.addr }
func (d *AN1) HdrLen() int      { return link.AN1HeaderLen }
func (d *AN1) MTU() int         { return d.mtu }
func (d *AN1) Stats() Stats     { return d.stats }

// SetTrace attaches a trace bus for controller-level drop events.
func (d *AN1) SetTrace(bus *trace.Bus) { d.bus = bus }

// SetRxHandler installs the handler for the default kernel ring (BQI 0).
// The kernel copies packets out of the ring in its handler, so the ring
// recycles immediately.
func (d *AN1) SetRxHandler(h RxHandler) {
	d.rings[0] = &Ring{dev: d, status: RingStatus{Capacity: 64}, handler: h, autoRelease: true}
}

// InstallRing binds a BQI to a ring of host buffers with the given handler,
// in the record r, which the caller must leave alone until RemoveRing says it
// may have it back. Only the network I/O module calls this; "strict access
// control to the index is maintained through memory protection". Ring
// buffers stay in use until Release.
func (d *AN1) InstallRing(bqi uint16, r *Ring, capacity int, h RxHandler) {
	*r = Ring{dev: d, status: RingStatus{Capacity: capacity}, handler: h}
	d.rings[bqi] = r
}

// RemoveRing unbinds a BQI (connection teardown). It reports whether the
// ring's record is the installer's again: with a buffer still in use a frame
// may be between its arrival and its interrupt, which completes in the ring
// the frame arrived in.
func (d *AN1) RemoveRing(bqi uint16) (idle bool) {
	r, ok := d.rings[bqi]
	delete(d.rings, bqi)
	return ok && r.status.InUse == 0
}

// RingStatus reports a ring's occupancy; ok is false if the BQI is unbound.
func (d *AN1) RingStatus(bqi uint16) (RingStatus, bool) {
	r, ok := d.rings[bqi]
	if !ok {
		return RingStatus{}, false
	}
	return r.status, true
}

// Release returns one buffer to the BQI's ring ("when the library is done
// with the buffer it hands it back to the network module which adds it to
// the BQI ring").
func (d *AN1) Release(bqi uint16) {
	if r, ok := d.rings[bqi]; ok && r.status.InUse > 0 {
		r.status.InUse--
	}
}

// Transmit writes a DMA descriptor (charged to the calling thread) and lets
// the controller stream the frame from host memory.
func (d *AN1) Transmit(t *kern.Thread, b *pkt.Buf) {
	c := t.Cost()
	t.Compute(c.AN1DMASetup + c.DeviceCSR)
	hdr, err := link.PeekAN1(b)
	if err != nil {
		panic(fmt.Sprintf("netdev: transmit of malformed AN1 frame: %v", err))
	}
	d.stats.TxFrames++
	d.stats.TxBytes += int64(b.Len())
	d.seg.Transmit(d.addr, hdr.Dst, b)
}

// Deliver runs at frame arrival: the controller reads the BQI from the link
// header, DMAs the frame into the next buffer of that ring (no CPU), and
// interrupts. The kernel handler performs only the ring bookkeeping before
// handing the buffer up.
func (d *AN1) Deliver(b *pkt.Buf) {
	hdr, err := link.PeekAN1(b)
	if err != nil || (hdr.Dst != d.addr && !hdr.Dst.IsBroadcast()) {
		if d.bus.Enabled() {
			d.bus.Emit(trace.Event{Kind: trace.FrameDrop, Node: d.Name(),
				A: int64(b.Len()), Text: "addr-filter"})
		}
		b.Release()
		return
	}
	ring, ok := d.rings[hdr.BQI]
	if !ok {
		// Unbound BQIs fall back to the protected kernel default.
		ring, ok = d.rings[0]
		if !ok {
			d.stats.RxDropped++
			if d.bus.Enabled() {
				d.bus.Emit(trace.Event{Kind: trace.FrameDrop, Node: d.Name(),
					A: int64(b.Len()), Text: "no-ring"})
			}
			b.Release()
			return
		}
		b.Meta.BQI = 0
	} else {
		b.Meta.BQI = hdr.BQI
	}
	if ring.status.InUse >= ring.status.Capacity {
		ring.status.Dropped++
		d.stats.RxDropped++
		if d.bus.Enabled() {
			d.bus.Emit(trace.Event{Kind: trace.FrameDrop, Node: d.Name(),
				A: int64(b.Len()), B: int64(hdr.BQI), Text: "ring-overflow"})
		}
		b.Release()
		return
	}
	ring.status.InUse++
	c := &d.host.Cost
	b.Meta.Rx = ring
	d.host.ComputeAsyncArg(c.InterruptDispatch+c.AN1DeviceMgmt, an1Rx, b)
}

// an1Rx completes the receive interrupt of frame a: the ring it sits in was
// chosen on arrival and is used even if its BQI has been unbound since.
func an1Rx(a any) {
	b := a.(*pkt.Buf)
	ring := b.Meta.Rx.(*Ring)
	b.Meta.Rx = nil
	ring.dev.stats.RxFrames++
	ring.dev.stats.RxBytes += int64(b.Len())
	if ring.handler != nil {
		ring.handler(b)
	}
	if ring.autoRelease && ring.status.InUse > 0 {
		ring.status.InUse--
	}
}
