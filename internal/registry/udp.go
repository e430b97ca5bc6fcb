package registry

import (
	"time"

	"ulp/internal/ctl"
	"ulp/internal/filter"
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/netio"
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

// handleBindUDP allocates the port and builds the channel.
func (r *Server) handleBindUDP(t *kern.Thread, m kern.Msg, req ctl.BindUDPReq) {
	c := t.Cost()
	t.Compute(c.RegistryPortAlloc + c.ChannelSetup)
	if r.nif.Mod.PortHeld(ipv4.ProtoUDP, r.nif.IP, req.Port) {
		r.finish(t, m, kern.Msg{Op: "udp-handoff", Body: ctl.UDPHandoff{Err: stacks.ErrPortInUse}})
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
	var err error
	if r.nif.IsAN1() {
		t.Compute(c.BQIReserve)
		bqi, err = r.nif.Mod.ReserveBQI(r.dom)
	}
	var cap *netio.Capability
	if err == nil {
		cap, _, err = r.nif.Mod.CreateChannelBQI(r.dom, m.From, spec, tmpl, 32, bqi)
	}
	if err != nil {
		_ = r.nif.Mod.ReleaseBQI(r.dom, bqi)
		r.finish(t, m, kern.Msg{Op: "udp-handoff", Body: ctl.UDPHandoff{Err: err}})
		return
	}
	r.finish(t, m, kern.Msg{Op: "udp-handoff", Body: ctl.UDPHandoff{Cap: cap}})
}

// handleResolve performs the address-binding resolution, driving ARP as
// needed.
func (r *Server) handleResolve(t *kern.Thread, m kern.Msg, req ctl.ResolveReq) {
	reply := ctl.ResolveReply{Err: stacks.ErrUnreachable}
	for attempt := 0; attempt < 5 && ipv4.SameSubnet(r.nif.IP, req.IP); attempt++ {
		if hw, ok := r.nif.ARP.Lookup(r.nif.Now(), req.IP); ok {
			reply = ctl.ResolveReply{HW: hw}
			break
		}
		r.nif.RequestARP(t, req.IP)
		t.Sleep(2 * time.Millisecond)
	}
	r.finish(t, m, kern.Msg{Op: "resolve-reply", Body: reply})
}

// handleUDPSend relays a datagram through the registry's kernel path once
// its capability vouches for it: the capability must be the sender's and the
// frame must pass the template check Module.Send runs on the fast path, so
// the relay sends nothing the library could not send itself. A refused frame
// is released and the error answered.
func (r *Server) handleUDPSend(t *kern.Thread, m kern.Msg, req ctl.UDPSendReq) {
	t.Compute(t.Cost().RegistrySendPath)
	mod := r.nif.Mod
	err := netio.ErrBadCapability
	if r.issued(req.Cap, m.From) {
		if tmpl := req.Cap.Template(); tmpl.Verify(req.Frame.Bytes(), mod.Device().HdrLen()) {
			mod.SendKernel(t, req.Frame)
			r.finish(t, m, kern.Msg{Op: "udp-send-ack"})
			return
		}
		err = netio.ErrTemplateMismatch
	}
	req.Frame.Release()
	r.finish(t, m, kern.Msg{Op: "udp-send-ack", Body: err})
}
