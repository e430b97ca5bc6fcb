package registry

import (
	"time"

	"ulp/internal/filter"
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/netio"
	"ulp/internal/pkt"
	"ulp/internal/stacks"
)

// The paper's §5 observation for connectionless protocols: "typical
// request-response protocols do not require an initial connection setup,
// yet require authorized connection identifiers ... these protocols are
// often used in an overall context that has a connection setup (or address
// binding) phase, e.g., in an RPC system. In these cases, after the address
// binding phase, the dedicated server can be bypassed." This file is that
// binding phase: the registry allocates UDP end-points, builds their
// channels and capabilities, and resolves peer link addresses; datagram
// traffic then flows directly between library and network I/O module.

// BindUDPReq asks the registry to allocate a datagram end-point. Owner, as
// in ConnectReq, enables crash reclamation; nil opts out.
type BindUDPReq struct {
	Port  uint16
	Owner *kern.Domain
}

// UDPHandoff conveys the datagram end-point's channel and capability.
type UDPHandoff struct {
	Cap     *netio.Capability
	Channel *netio.Channel
	Err     error
}

// ResolveReq asks the registry to resolve a peer's link address (the
// address-binding phase of an RPC system).
type ResolveReq struct {
	IP ipv4.Addr
}

// ResolveReply carries the resolution result.
type ResolveReply struct {
	HW  link.Addr
	Err error
}

// UDPSendReq relays one datagram through the registry (the un-optimized
// pre-binding path a dedicated-server organization would use for every
// datagram; the RPC ablation measures what bypassing it saves).
type UDPSendReq struct {
	SrcPort uint16
	Dst     ipv4.Addr
	Frame   *pkt.Buf // complete link frame, built by the library
}

// UnbindUDPReq releases a datagram end-point.
type UnbindUDPReq struct {
	Port uint16
	Cap  *netio.Capability
}

// handleBindUDP allocates the port and builds the channel.
func (r *Server) handleBindUDP(t *kern.Thread, m kern.Msg, req BindUDPReq) {
	c := t.Cost()
	t.Compute(c.RegistryPortAlloc + c.ChannelSetup)
	if !r.udpPorts.Reserve(req.Port) {
		r.finish(t, m, kern.Msg{Op: "udp-handoff", Body: UDPHandoff{Err: stacks.ErrPortInUse}})
		return
	}
	spec := filter.Spec{
		LinkHdrLen: r.nif.Mod.Device().HdrLen(),
		Proto:      ipv4.ProtoUDP,
		LocalIP:    r.nif.IP, LocalPort: req.Port,
	}
	tmpl := netio.Template{
		LinkSrc: r.nif.HW, Type: link.TypeIPv4,
		Proto:   ipv4.ProtoUDP,
		LocalIP: r.nif.IP, LocalPort: req.Port,
	}
	var bqi uint16
	if r.nif.IsAN1() {
		t.Compute(c.BQIReserve)
		bqi, _ = r.nif.Mod.ReserveBQI(r.dom)
	}
	cap, ch, err := r.nif.Mod.CreateChannelBQI(r.dom, spec, tmpl, 32, bqi)
	if err != nil {
		r.udpPorts.Release(req.Port)
		r.finish(t, m, kern.Msg{Op: "udp-handoff", Body: UDPHandoff{Err: err}})
		return
	}
	if req.Owner != nil {
		_ = r.nif.Mod.AssignOwner(r.dom, cap, req.Owner)
		r.watch(req.Owner)
	}
	r.udpChannels[req.Port] = &udpBinding{owner: req.Owner, ch: ch, cap: cap}
	r.finish(t, m, kern.Msg{Op: "udp-handoff", Body: UDPHandoff{Cap: cap, Channel: ch}})
}

// handleResolve performs the address-binding resolution, driving ARP as
// needed.
func (r *Server) handleResolve(t *kern.Thread, m kern.Msg, req ResolveReq) {
	if !ipv4.SameSubnet(r.nif.IP, req.IP) {
		r.finish(t, m, kern.Msg{Op: "resolve-reply", Body: ResolveReply{Err: stacks.ErrUnreachable}})
		return
	}
	for attempt := 0; attempt < 5; attempt++ {
		if hw, ok := r.nif.ARP.Lookup(r.nif.Now(), req.IP); ok {
			r.finish(t, m, kern.Msg{Op: "resolve-reply", Body: ResolveReply{HW: hw}})
			return
		}
		r.nif.RequestARP(t, req.IP, r.nif.Mod.SendKernel)
		t.Sleep(2 * time.Millisecond)
	}
	r.finish(t, m, kern.Msg{Op: "resolve-reply", Body: ResolveReply{Err: stacks.ErrUnreachable}})
}

// handleUDPSend relays a datagram through the registry's kernel path.
func (r *Server) handleUDPSend(t *kern.Thread, m kern.Msg, req UDPSendReq) {
	c := t.Cost()
	t.Compute(c.RegistrySendPath)
	r.nif.Mod.SendKernel(t, req.Frame)
	r.finish(t, m, kern.Msg{Op: "udp-send-ack"})
}

// handleUnbindUDP reclaims a datagram end-point.
func (r *Server) handleUnbindUDP(t *kern.Thread, req UnbindUDPReq) {
	if req.Cap != nil {
		_ = r.nif.Mod.DestroyChannel(r.dom, req.Cap)
	}
	delete(r.udpChannels, req.Port)
	r.udpPorts.Release(req.Port)
}
