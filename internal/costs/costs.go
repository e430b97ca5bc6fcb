// Package costs holds the virtual-time cost model for the simulated 1993
// hosts: DECstation 5000/200 workstations (25 MHz MIPS R3000) running either
// Ultrix 4.2A, Mach 3.0 + UX, or Mach 3.0 with the user-level protocol
// library, attached to a 10 Mb/s Ethernet (DEC PMADD-AA "LANCE", programmed
// I/O) and a 100 Mb/s DEC SRC AN1 segment (DMA, hardware BQI demux).
//
// Every structural operation in the simulation — traps, context switches,
// IPC, copies, checksums, interrupts, demultiplexing, timer management —
// charges one of these constants to the host CPU. The protocol engines
// themselves are pure; organization shells charge identical protocol-
// processing costs in all three organizations, so measured differences stem
// from structure alone, which is the paper's central claim ("the protocol
// stack that is executed is nearly identical in all three systems ... any
// performance difference is due to the structure and mechanisms provided").
//
// Values are calibrated against the paper's published numbers (Tables 1–5)
// and contemporary measurements of Mach 3.0 and Ultrix on this hardware
// class. They are deliberately centralized so that EXPERIMENTS.md can point
// at a single calibration surface.
package costs

import "time"

// Model is the set of per-operation costs. The zero value is unusable; use
// Default (or copy and modify it for ablations).
type Model struct {
	// ---- Traps and domain crossings -------------------------------------

	// SyscallTrap is a general-purpose kernel trap and return, including
	// argument validation and dispatch (an Ultrix or UX socket system call).
	SyscallTrap time.Duration

	// FastTrap is the specialized kernel entry point used by the user-level
	// library's send path. The paper: "a kernel crossing to access the
	// network device can be made fast because it is a specialized entry
	// point" and "the sanity checks involved in a trap can be simplified".
	FastTrap time.Duration

	// ContextSwitch is a full cross-address-space process switch including
	// scheduler work and cache/TLB disturbance.
	ContextSwitch time.Duration

	// ThreadSwitch is a same-address-space lightweight (C-Threads style)
	// switch.
	ThreadSwitch time.Duration

	// KernelWakeup is the cost of a kernel-mediated wakeup of a user thread
	// blocked on a lightweight semaphore: the signal, scheduler pass, and
	// the switch into the target address space.
	KernelWakeup time.Duration

	// SemSignal is the cost of posting a lightweight semaphore when no
	// cross-domain wakeup is needed (the waiter is already runnable or the
	// count is simply incremented).
	SemSignal time.Duration

	// MachIPCSend is a one-way Mach message send, small message, including
	// port rights checks. A null RPC is two of these plus two context
	// switches.
	MachIPCSend time.Duration

	// ---- Memory ----------------------------------------------------------

	// CopyPerByte is bcopy through the cache.
	CopyPerByte time.Duration

	// ChecksumPerByte is the Internet checksum inner loop.
	ChecksumPerByte time.Duration

	// PageRemap is the VM operation that donates a page instead of copying
	// (the "buffer organization that eliminates byte copying" both Ultrix
	// and the library use; Ultrix only invokes it for writes >= RemapMin).
	PageRemap time.Duration

	// RemapMinUltrix is the smallest user write for which Ultrix uses the
	// page-remap path ("invoked only when the user packet size is 1024
	// bytes or larger"). The user-level library uses its shared region for
	// all sizes.
	RemapMinUltrix int

	// ---- Devices and interrupts -------------------------------------------

	// InterruptDispatch is interrupt entry, device identification and
	// return (excluding handler body work).
	InterruptDispatch time.Duration

	// DeviceCSR is a single programmed control/status register access.
	DeviceCSR time.Duration

	// LancePIOPerByte is the programmed-I/O transfer between host memory
	// and the LANCE on-board staging buffers (the PMADD-AA has no DMA).
	LancePIOPerByte time.Duration

	// AN1DMASetup is writing a descriptor and ringing the doorbell for one
	// AN1 DMA transfer; the DMA itself proceeds without the CPU.
	AN1DMASetup time.Duration

	// AN1DeviceMgmt is the per-packet device-management bookkeeping
	// inherent to the AN1's buffer-queue machinery (ring replenishment,
	// descriptor recycling). Table 5 includes it in the hardware demux
	// figure: "Part of the cost of programming this machinery and
	// bookkeeping accounts for the observed times."
	AN1DeviceMgmt time.Duration

	// ---- Demultiplexing and protection -------------------------------------

	// FilterDemux is running the software input demultiplexer over one
	// packet's headers in the kernel (BPF-style compiled predicate; the
	// CSPF interpreter is measured separately by the filter ablation).
	FilterDemux time.Duration

	// LanceDemuxFixed is the fixed per-packet device-management work on the
	// LANCE receive path that Table 5 attributes to software
	// demultiplexing, excluding copies.
	LanceDemuxFixed time.Duration

	// TemplateCheck is the per-packet outbound header-template match in the
	// network I/O module ("the logic required ... is quite short").
	TemplateCheck time.Duration

	// ---- Protocol processing ----------------------------------------------

	// TCPSegment is per-segment TCP processing (input or output path:
	// control block work, state machine, window update, header build or
	// parse) excluding checksums, copies and timer operations, which are
	// charged separately.
	TCPSegment time.Duration

	// IPPacket is per-packet IP processing (header build/parse, route or
	// reassembly lookup), excluding checksum.
	IPPacket time.Duration

	// UDPPacket is per-datagram UDP processing.
	UDPPacket time.Duration

	// TimerOp is one timing-wheel operation (set, cancel, or fire).
	// "Practically every message arrival and departure involves timer
	// operations."
	TimerOp time.Duration

	// SockbufOp is socket-buffer append/remove bookkeeping per operation
	// (not per byte).
	SockbufOp time.Duration

	// MbufLayer is the per-packet cost of the BSD kernel buffer layer
	// (mbuf allocation, chaining, sbappend, free) paid by the monolithic
	// organizations on both transmit and receive. The user-level library's
	// preallocated shared rings avoid it — the "buffer organization" the
	// paper credits for its small-packet wins.
	MbufLayer time.Duration

	// PCBSetup is protocol-control-block creation and socket-layer setup
	// for a new connection in the monolithic organizations (socreate +
	// in_pcballoc work).
	PCBSetup time.Duration

	// ProcCall is an ordinary intra-address-space procedure call into the
	// protocol library ("user applications invoke protocol functions
	// through procedure calls").
	ProcCall time.Duration

	// ---- Registry / connection setup ---------------------------------------

	// RegistryPortAlloc is allocation of a connection end-point name and
	// the associated bookkeeping in the registry server.
	RegistryPortAlloc time.Duration

	// RegistryConnSetup is the registry's non-overlappable outbound
	// connection-establishment processing ("allocating connection
	// identifiers, executing the start of connection set up phase ...
	// accounts for about 1.5 ms", jointly with RegistryPortAlloc).
	RegistryConnSetup time.Duration

	// ChannelSetup is creating the shared-memory region, wiring it, and
	// installing the capability/template/demux binding with the network
	// I/O module ("nearly 3.4 ms are spent in setting up user channels to
	// the network device").
	ChannelSetup time.Duration

	// StateTransfer is moving established-connection TCP state from the
	// registry server to the library ("about 1.4 ms to transfer and set up
	// TCP state to user level").
	StateTransfer time.Duration

	// BQIReserve is allocating a buffer queue index with the controller
	// before the handshake ("before initiating connection the server
	// requests the network I/O module for a BQI that the remote node can
	// use") — the "machinery involved to setup the BQI" that makes AN1
	// connection setup slightly more expensive in Table 4.
	BQIReserve time.Duration

	// RegistrySendPath is the registry's un-optimized path to the network
	// device (standard Mach IPC rather than shared memory): extra cost per
	// registry-originated packet during the handshake.
	RegistrySendPath time.Duration
}

// Default is the calibrated model. See EXPERIMENTS.md for the calibration
// record (paper value vs simulated value per table).
func Default() Model {
	return Model{
		SyscallTrap:       60 * time.Microsecond,
		FastTrap:          20 * time.Microsecond,
		ContextSwitch:     140 * time.Microsecond,
		ThreadSwitch:      35 * time.Microsecond,
		KernelWakeup:      700 * time.Microsecond,
		SemSignal:         18 * time.Microsecond,
		MachIPCSend:       450 * time.Microsecond,
		CopyPerByte:       45 * time.Nanosecond,
		ChecksumPerByte:   28 * time.Nanosecond,
		PageRemap:         40 * time.Microsecond,
		RemapMinUltrix:    1024,
		InterruptDispatch: 22 * time.Microsecond,
		DeviceCSR:         2 * time.Microsecond,
		LancePIOPerByte:   75 * time.Nanosecond,
		AN1DMASetup:       12 * time.Microsecond,
		AN1DeviceMgmt:     50 * time.Microsecond,
		FilterDemux:       30 * time.Microsecond,
		LanceDemuxFixed:   22 * time.Microsecond,
		TemplateCheck:     12 * time.Microsecond,
		TCPSegment:        120 * time.Microsecond,
		IPPacket:          40 * time.Microsecond,
		UDPPacket:         45 * time.Microsecond,
		TimerOp:           6 * time.Microsecond,
		SockbufOp:         10 * time.Microsecond,
		MbufLayer:         100 * time.Microsecond,
		PCBSetup:          500 * time.Microsecond,
		ProcCall:          4 * time.Microsecond,
		RegistryPortAlloc: 300 * time.Microsecond,
		RegistryConnSetup: 900 * time.Microsecond,
		ChannelSetup:      3400 * time.Microsecond,
		StateTransfer:     1400 * time.Microsecond,
		BQIReserve:        400 * time.Microsecond,
		RegistrySendPath:  250 * time.Microsecond,
	}
}

// Copy returns n bytes' worth of bcopy time.
func (m *Model) Copy(n int) time.Duration {
	return time.Duration(n) * m.CopyPerByte
}

// Checksum returns n bytes' worth of Internet-checksum time.
func (m *Model) Checksum(n int) time.Duration {
	return time.Duration(n) * m.ChecksumPerByte
}

// LancePIO returns n bytes' worth of programmed-I/O time on the LANCE.
func (m *Model) LancePIO(n int) time.Duration {
	return time.Duration(n) * m.LancePIOPerByte
}
