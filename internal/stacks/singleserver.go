package stacks

import (
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/netio"
	"ulp/internal/sim"
)

// NewSingleServer builds the Mach 3.0 + UX organization on a host whose
// netio module is mod: the entire protocol suite executes in one trusted
// user-level server with the network device mapped into its address space.
// Every socket call is a Mach IPC round trip between the application and
// the server (request + reply, each a message send plus a context switch),
// and all data crosses in message bodies by copy. Inbound packets interrupt
// the kernel and must then wake the server's input thread in its own
// address space.
//
// This is the organization the paper's measurements show losing to both
// Ultrix and the user-level library ("the user-level library implementation
// outperforms the monolithic Mach/UX implementation ... 42% faster for the
// 4K packet case").
func NewSingleServer(s *sim.Sim, mod *netio.Module, ip ipv4.Addr) *Monolithic {
	// rpc charges one application<->server round trip (request send +
	// switch into the server, reply send + switch back) with no in-line
	// data.
	rpc := func(t *kern.Thread) {
		c := t.Cost()
		t.Compute(2*c.MachIPCSend + 2*c.ContextSwitch + c.Copy(0))
	}
	move := func(t *kern.Thread, n int) { t.Compute(t.Cost().Copy(n) + t.Cost().SockbufOp) }
	return newMonolithic(s, mod, ip, organization{
		name:        "singleserver",
		domain:      "ux-server", // a trusted user-level process; it maps the device
		inputThread: "input",
		issOrigin:   20000,
		issStride:   64013,
		call:        rpc,
		listen:      rpc, // socket() + bind()/listen() folded into one RPC
		connect: func(t *kern.Thread) {
			rpc(t) // socket()
			rpc(t) // connect()
			t.Compute(t.Cost().PCBSetup)
		},
		writeMove: move,
		readMove:  move,
		rxWakeup:  func(h *kern.Host) { h.ComputeAsync(h.Cost.KernelWakeup, nil) },
		// Waking the blocked application read and sending its reply message
		// crosses address spaces again.
		readerWakeup: func(t *kern.Thread) { t.Compute(t.Cost().MachIPCSend + t.Cost().ContextSwitch) },
	})
}
