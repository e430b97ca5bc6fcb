package filter

import "encoding/binary"

// Spec describes one endpoint's input demultiplexing predicate over an
// incoming link frame carrying IPv4: protocol, local (destination) address
// and port, and — for connected endpoints — remote (source) address and
// port. Zero remote fields are wildcards, as for a listening socket.
//
// The registry server constructs a Spec per endpoint at connection-setup
// time and installs it with the network I/O module, which demultiplexes by
// the Spec's fields: one steering-table lookup per frame, under the fully
// specified tuple or the listener form (netio's steerKey). Compile returns
// the same predicate as native code ("the demultiplexing logic requires only
// a few instructions", synthesized into the kernel), and CompileBPF and
// CompileCSPF emit it for the interpreters in filter.go, which exist only to
// reproduce the paper's interpreter-architecture comparison
// (experiments.AblationFilter).
type Spec struct {
	// LinkHdrLen is the link header size in bytes (14 Ethernet, 16 AN1).
	LinkHdrLen int
	// Proto is the IPv4 protocol number (6 TCP, 17 UDP).
	Proto uint8
	// LocalIP and LocalPort are the endpoint's own address (packet
	// destination fields).
	LocalIP   [4]byte
	LocalPort uint16
	// RemoteIP and RemotePort constrain the packet source; zero values are
	// wildcards.
	RemoteIP   [4]byte
	RemotePort uint16
}

// Compile returns the native demultiplexing predicate: the direct-execution
// code the kernel synthesizes, with every constant hoisted out of the
// per-packet path (addresses pre-packed into words, the wildcard decisions
// taken once here instead of per packet). It handles variable IP header
// lengths and skips non-first fragments, whose transport ports are absent.
// The receive path does not run it (netio looks the fields up instead): it
// is the native form the benchmark's demux probe times and the interpreters
// are tested against.
func (s Spec) Compile() func(frame []byte) bool {
	l := s.LinkHdrLen
	minLen := l + 20
	proto := s.Proto
	localIP := binary.BigEndian.Uint32(s.LocalIP[:])
	localPort := s.LocalPort
	checkRemoteIP := s.RemoteIP != ([4]byte{})
	remoteIP := binary.BigEndian.Uint32(s.RemoteIP[:])
	remotePort := s.RemotePort
	return func(frame []byte) bool {
		if len(frame) < minLen {
			return false
		}
		if binary.BigEndian.Uint16(frame[l-2:]) != 0x0800 {
			return false
		}
		ip := frame[l:]
		if ip[0]>>4 != 4 {
			return false
		}
		if ip[9] != proto {
			return false
		}
		if binary.BigEndian.Uint32(ip[16:]) != localIP {
			return false
		}
		if checkRemoteIP && binary.BigEndian.Uint32(ip[12:]) != remoteIP {
			return false
		}
		if binary.BigEndian.Uint16(ip[6:])&0x1fff != 0 {
			return false // non-first fragment: no transport header
		}
		ihl := int(ip[0]&0x0f) * 4
		if ihl < 20 || len(ip) < ihl+4 {
			return false
		}
		if binary.BigEndian.Uint16(ip[ihl+2:]) != localPort {
			return false
		}
		if remotePort != 0 && binary.BigEndian.Uint16(ip[ihl:]) != remotePort {
			return false
		}
		return true
	}
}

// CompileBPF emits the register-machine form of the predicate, using the
// classic LdxMSH idiom to handle variable IP header lengths.
func (s Spec) CompileBPF() BPFProgram {
	l := uint32(s.LinkHdrLen)
	var p BPFProgram
	emit := func(in BPFInstr) { p = append(p, in) }
	// Each test either falls through (match) or jumps to the final reject.
	// Jump offsets are patched at the end.
	var rejects []int
	test := func(in BPFInstr, cmp BPFInstr) {
		emit(in)
		rejects = append(rejects, len(p))
		emit(cmp) // Jf patched to reject
	}
	test(BPFInstr{Op: BPFLdH, K: l - 2}, BPFInstr{Op: BPFJEq, K: 0x0800})
	test(BPFInstr{Op: BPFLdB, K: l + 9}, BPFInstr{Op: BPFJEq, K: uint32(s.Proto)})
	test(BPFInstr{Op: BPFLdW, K: l + 16}, BPFInstr{Op: BPFJEq, K: binary.BigEndian.Uint32(s.LocalIP[:])})
	if s.RemoteIP != ([4]byte{}) {
		test(BPFInstr{Op: BPFLdW, K: l + 12}, BPFInstr{Op: BPFJEq, K: binary.BigEndian.Uint32(s.RemoteIP[:])})
	}
	// Reject fragments with nonzero offset: JSet jumps to reject on match,
	// so emit it inverted.
	emit(BPFInstr{Op: BPFLdH, K: l + 6})
	fragIdx := len(p)
	emit(BPFInstr{Op: BPFJSet, K: 0x1fff}) // Jt patched to reject
	emit(BPFInstr{Op: BPFLdxMSH, K: l})
	test(BPFInstr{Op: BPFLdHI, K: l + 2}, BPFInstr{Op: BPFJEq, K: uint32(s.LocalPort)})
	if s.RemotePort != 0 {
		test(BPFInstr{Op: BPFLdHI, K: l}, BPFInstr{Op: BPFJEq, K: uint32(s.RemotePort)})
	}
	emit(BPFInstr{Op: BPFRet, K: 1})
	rejectIdx := len(p)
	emit(BPFInstr{Op: BPFRet, K: 0})
	for _, i := range rejects {
		p[i].Jf = uint8(rejectIdx - i - 1)
	}
	p[fragIdx].Jt = uint8(rejectIdx - fragIdx - 1)
	return p
}

// CompileCSPF emits the stack-machine form. CSPF has no indexed loads, so —
// like the historical filters — it assumes the standard 20-byte IP header
// and cannot demultiplex packets carrying IP options. Each field test uses
// the short-circuit CAND so a mismatch rejects immediately.
func (s Spec) CompileCSPF() CSPFProgram {
	lw := uint16(s.LinkHdrLen / 2) // link header length in 16-bit words
	var p CSPFProgram
	word := func(w, lit uint16) {
		p = append(p,
			CSPFInstr{Op: CSPFPushWord, Arg: w},
			CSPFInstr{Op: CSPFPushLit, Arg: lit},
			CSPFInstr{Op: CSPFCand},
		)
	}
	// EtherType at word lw-1.
	word(lw-1, 0x0800)
	// Protocol: low byte of the TTL/proto word (IP word 4).
	p = append(p,
		CSPFInstr{Op: CSPFPushWord, Arg: lw + 4},
		CSPFInstr{Op: CSPFPushLit, Arg: 0x00ff},
		CSPFInstr{Op: CSPFAnd},
		CSPFInstr{Op: CSPFPushLit, Arg: uint16(s.Proto)},
		CSPFInstr{Op: CSPFCand},
	)
	// Fragment offset bits of the flags/frag word (IP word 3) must be 0.
	p = append(p,
		CSPFInstr{Op: CSPFPushWord, Arg: lw + 3},
		CSPFInstr{Op: CSPFPushLit, Arg: 0x1fff},
		CSPFInstr{Op: CSPFAnd},
		CSPFInstr{Op: CSPFPushLit, Arg: 0},
		CSPFInstr{Op: CSPFCand},
	)
	// Destination IP (IP words 8, 9).
	word(lw+8, binary.BigEndian.Uint16(s.LocalIP[0:2]))
	word(lw+9, binary.BigEndian.Uint16(s.LocalIP[2:4]))
	if s.RemoteIP != ([4]byte{}) {
		word(lw+6, binary.BigEndian.Uint16(s.RemoteIP[0:2]))
		word(lw+7, binary.BigEndian.Uint16(s.RemoteIP[2:4]))
	}
	// Ports, assuming IHL=5: transport header at IP word 10.
	word(lw+11, s.LocalPort)
	if s.RemotePort != 0 {
		word(lw+10, s.RemotePort)
	}
	return p
}
