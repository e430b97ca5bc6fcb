package stacks

import (
	"time"

	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/pkt"
	"ulp/internal/sim"
	"ulp/internal/tcp"
)

// Segment is an inbound TCP segment that passed its checksum.
type Segment struct {
	IP          ipv4.Header
	Raw         []byte     // the IP payload as received: TCP header and data
	Hdr         tcp.Header // the decoded TCP header
	Data        []byte     // the payload after the TCP header
	Local, Peer tcp.Endpoint
	AdvBQI      uint16 // the buffer queue index the sender advertised (AN1; 0 elsewhere)
}

// OpensConnection reports whether s is a bare SYN, the only segment a
// listener clones a pcb for.
func (s *Segment) OpensConnection() bool {
	return s.Hdr.Flags&tcp.FlagSYN != 0 && s.Hdr.Flags&(tcp.FlagACK|tcp.FlagRST) == 0
}

// Hooks is what an organization adds to the default-path receive pipeline
// (Input), which is written once for every organization with a kernel-side
// input thread, the monolithic stacks and the registry: link header, ARP, IP
// with reassembly, TCP decode and charge, and the reset for a segment no
// endpoint takes. Which endpoints exist, and what reaching one costs, is
// behind the hooks; the pipeline never asks which caller it serves.
type Hooks struct {
	// Extra is charged with every segment's SegCost.
	Extra time.Duration
	// TCP delivers a segment; false means no endpoint takes it, and the
	// pipeline answers with a reset.
	TCP func(t *kern.Thread, s Segment) bool
	// UDP delivers a datagram's IP header and payload.
	UDP func(t *kern.Thread, h ipv4.Header, data []byte)
}

// InputLoop returns the body of an input thread fed through q: the
// interrupt handler queues frames, the thread is dispatched and runs each
// through Input.
func (n *Netif) InputLoop(q *sim.Queue[*pkt.Buf], h *Hooks) func(t *kern.Thread) {
	return func(t *kern.Thread) {
		for {
			b := q.Pop(t.Proc)
			t.Compute(t.Cost().ThreadSwitch) // interrupt-to-input-thread dispatch
			n.Input(t, b, h)
		}
	}
}

// Input processes one inbound frame in thread context: a TCP segment is
// decoded and charged, handed to the organization, and its sender reset if
// nobody takes it. The frame dies here on every path: ARP replies and resets
// are built in fresh buffers, and reassembly, the hooks and tcp.Conn.Input
// copy the bytes they keep.
func (n *Netif) Input(t *kern.Thread, b *pkt.Buf, h *Hooks) {
	defer b.Release()
	et, advBQI, err := n.StripLink(b)
	if err != nil {
		return
	}
	if et == link.TypeARP {
		n.InputARP(t, b)
		return
	}
	if et != link.TypeIPv4 {
		return
	}
	ih, err := ipv4.Decode(b)
	if err != nil || ih.Dst != n.IP {
		return // not ours; no forwarding
	}
	data := b.Bytes()
	if ih.MF || ih.FragOff > 0 {
		var done bool
		if ih, data, done = n.Rsm.Insert(n.Now(), ih, data); !done {
			return
		}
	}
	switch ih.Proto {
	case ipv4.ProtoUDP:
		h.UDP(t, ih, data)
		return
	case ipv4.ProtoTCP:
	default:
		return
	}
	seg := pkt.FromBytes(0, data)
	defer seg.Release()
	th, ok := DecodeSegment(t, ih, seg, h.Extra)
	if !ok {
		return
	}
	s := Segment{IP: ih, Raw: data, Hdr: th, Data: seg.Bytes(), AdvBQI: advBQI,
		Local: tcp.Endpoint{IP: ih.Dst, Port: th.DstPort},
		Peer:  tcp.Endpoint{IP: ih.Src, Port: th.SrcPort}}
	if h.TCP(t, s) {
		return
	}
	if rst, rb := tcp.MakeRST(th, seg.Len(), n.Headroom(), s.Local, s.Peer); rst != nil {
		n.SendTCP(t, rb, s.Peer.IP, 0)
	}
}

// DecodeSegment is the segment step every receive path shares, the
// library's channel included: it strips and checks the TCP header of seg, an
// IP payload, and charges t SegCost plus extra. A segment that fails its
// checksum is dropped uncharged (false); retransmission recovers it.
func DecodeSegment(t *kern.Thread, ih ipv4.Header, seg *pkt.Buf, extra time.Duration) (tcp.Header, bool) {
	th, err := tcp.Decode(seg, ih.Src, ih.Dst)
	if err != nil {
		return th, false
	}
	t.Compute(SegCost(t.Dom.Host, seg.Len()) + extra)
	return th, true
}

// SegCost is the per-segment protocol processing charge, identical in all
// organizations ("the protocol stack that is executed is nearly identical
// in all three systems").
func SegCost(h *kern.Host, n int) time.Duration {
	m := &h.Cost
	return m.TCPSegment + m.IPPacket + 2*m.TimerOp + m.Checksum(n)
}

// MbufCost is the per-packet BSD buffer-layer charge the monolithic
// organizations add on top of SegCost (the library's shared rings avoid
// it).
func MbufCost(h *kern.Host) time.Duration { return h.Cost.MbufLayer }
