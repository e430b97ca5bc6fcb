package stacks

import (
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/netio"
	"ulp/internal/sim"
)

// NewInKernel builds the Ultrix-style monolithic organization on a host
// whose netio module is mod: the whole protocol stack executes in the
// kernel. Socket calls are general-purpose traps; data crosses the
// user/kernel boundary by copy for small writes and by page remap for
// writes of RemapMinUltrix bytes or more ("Ultrix uses an identical
// mechanism, but it is invoked only when the user packet size is 1024
// bytes or larger"); input runs at software-interrupt level and wakes
// sleeping readers with a context switch.
func NewInKernel(s *sim.Sim, mod *netio.Module, ip ipv4.Addr) *Monolithic {
	open := func(t *kern.Thread) {
		t.Trap()
		t.Compute(t.Cost().PCBSetup)
	}
	return newMonolithic(s, mod, ip, organization{
		name:        "inkernel",
		domain:      "kernel",
		inputThread: "softint",
		issOrigin:   10000,
		issStride:   64009,
		call:        func(t *kern.Thread) { t.Trap() },
		listen:      open,
		connect:     open,
		writeMove: func(t *kern.Thread, n int) {
			c := t.Cost()
			if n >= c.RemapMinUltrix {
				t.Compute(c.PageRemap + c.SockbufOp)
			} else {
				t.Compute(c.Copy(n) + c.SockbufOp)
			}
		},
		readMove:     func(t *kern.Thread, n int) { t.Compute(t.Cost().Copy(n) + t.Cost().SockbufOp) },
		readerWakeup: func(t *kern.Thread) { t.Compute(t.Cost().ContextSwitch) },
	})
}
