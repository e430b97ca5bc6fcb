// Package filter implements software input-packet demultiplexing in the two
// architectures the paper discusses:
//
//   - CSPF: the original stack-based Packet Filter language of Mogul, Rashid
//     and Accetta [18], in which "filter programs composed of stack
//     operations and operators are interpreted by a kernel-resident program
//     at packet reception time". The paper observes this interpretation "is
//     not likely to scale with CPU speeds because it is memory intensive".
//   - BPF: the register-based architecture of McCanne and Jacobson [17],
//     which "recognizes these issues and provides higher performance suited
//     for modern RISC processors".
//
// Both virtual machines report the number of instructions executed, so the
// filter ablation (experiments.AblationFilter) can compare the architectures
// on identical demultiplexing predicates. The receive path runs neither: the
// network I/O module looks each frame up by a Spec's fields in its steering
// table and charges a fixed per-frame demux cost (netio.rxSoftware).
package filter

import "encoding/binary"

// ---------------------------------------------------------------------------
// CSPF: stack machine
// ---------------------------------------------------------------------------

// CSPFOp is a stack-machine opcode.
type CSPFOp uint8

// CSPF opcodes. PUSHWORD pushes the 16-bit packet word at a word offset;
// PUSHLIT pushes an immediate. Binary operators pop two, push one. The
// short-circuit forms (COR, CAND) return immediately on success or failure
// respectively, which real CSPF filters rely on heavily.
const (
	CSPFPushWord CSPFOp = iota
	CSPFPushLit
	CSPFEq
	CSPFNeq
	CSPFLt
	CSPFLe
	CSPFGt
	CSPFGe
	CSPFAnd
	CSPFOr
	CSPFXor
	CSPFAdd
	CSPFSub
	CSPFCor  // pop a,b; if a==b accept immediately, else push 0
	CSPFCand // pop a,b; if a!=b reject immediately, else push 1
)

// CSPFInstr is one stack-machine instruction.
type CSPFInstr struct {
	Op  CSPFOp
	Arg uint16 // word offset for PushWord, immediate for PushLit
}

// CSPFProgram is a filter program. The packet is accepted if the program
// runs to completion with a non-zero value on top of the stack, or exits
// early through a short-circuit accept.
type CSPFProgram []CSPFInstr

const cspfStackDepth = 32

// Run interprets the program over the packet. It returns whether the packet
// is accepted and how many instructions were executed (for cost accounting).
// Malformed programs (stack under/overflow) and out-of-range packet
// references reject the packet, as the in-kernel interpreter must never
// fault.
func (p CSPFProgram) Run(packet []byte) (accept bool, executed int) {
	var stack [cspfStackDepth]uint16
	sp := 0
	push := func(v uint16) bool {
		if sp >= cspfStackDepth {
			return false
		}
		stack[sp] = v
		sp++
		return true
	}
	pop2 := func() (a, b uint16, ok bool) {
		if sp < 2 {
			return 0, 0, false
		}
		sp--
		b = stack[sp]
		sp--
		a = stack[sp]
		return a, b, true
	}
	for _, in := range p {
		executed++
		switch in.Op {
		case CSPFPushWord:
			off := int(in.Arg) * 2
			if off+2 > len(packet) {
				return false, executed
			}
			if !push(binary.BigEndian.Uint16(packet[off:])) {
				return false, executed
			}
		case CSPFPushLit:
			if !push(in.Arg) {
				return false, executed
			}
		case CSPFCor:
			a, b, ok := pop2()
			if !ok {
				return false, executed
			}
			if a == b {
				return true, executed
			}
			if !push(0) {
				return false, executed
			}
		case CSPFCand:
			a, b, ok := pop2()
			if !ok {
				return false, executed
			}
			if a != b {
				return false, executed
			}
			if !push(1) {
				return false, executed
			}
		default:
			a, b, ok := pop2()
			if !ok {
				return false, executed
			}
			var v uint16
			switch in.Op {
			case CSPFEq:
				if a == b {
					v = 1
				}
			case CSPFNeq:
				if a != b {
					v = 1
				}
			case CSPFLt:
				if a < b {
					v = 1
				}
			case CSPFLe:
				if a <= b {
					v = 1
				}
			case CSPFGt:
				if a > b {
					v = 1
				}
			case CSPFGe:
				if a >= b {
					v = 1
				}
			case CSPFAnd:
				v = a & b
			case CSPFOr:
				v = a | b
			case CSPFXor:
				v = a ^ b
			case CSPFAdd:
				v = a + b
			case CSPFSub:
				v = a - b
			default:
				return false, executed
			}
			if !push(v) {
				return false, executed
			}
		}
	}
	return sp > 0 && stack[sp-1] != 0, executed
}

// ---------------------------------------------------------------------------
// BPF: register machine
// ---------------------------------------------------------------------------

// BPFOp is a register-machine opcode (a compact subset of classic BPF
// sufficient for transport demultiplexing).
type BPFOp uint8

// BPF opcodes.
const (
	BPFLdB    BPFOp = iota // A = pkt[k] (byte)
	BPFLdH                 // A = pkt[k:k+2] (big-endian half)
	BPFLdW                 // A = pkt[k:k+4] (big-endian word)
	BPFLdBI                // A = pkt[X+k] (byte, indexed)
	BPFLdHI                // A = pkt[X+k:...] (half, indexed)
	BPFLdxMSH              // X = 4*(pkt[k] & 0x0f)  — the IP header-length idiom
	BPFJEq                 // if A == k jump jt else jf (relative, in instructions)
	BPFJGt                 // if A > k jump jt else jf
	BPFJSet                // if A & k jump jt else jf
	BPFRet                 // return k (nonzero accepts)
	BPFAndK                // A &= k
	BPFTax                 // X = A
	BPFTxa                 // A = X
)

// BPFInstr is one register-machine instruction.
type BPFInstr struct {
	Op     BPFOp
	K      uint32
	Jt, Jf uint8
}

// BPFProgram is a filter program for the register machine.
type BPFProgram []BPFInstr

// Run interprets the program over the packet, returning acceptance and the
// number of instructions executed. Out-of-range loads and running off the
// end of the program reject, as the in-kernel interpreter must never fault.
func (p BPFProgram) Run(packet []byte) (accept bool, executed int) {
	var a, x uint32
	pc := 0
	for pc < len(p) {
		in := p[pc]
		executed++
		pc++
		switch in.Op {
		case BPFLdB:
			k := int(in.K)
			if k >= len(packet) {
				return false, executed
			}
			a = uint32(packet[k])
		case BPFLdH:
			k := int(in.K)
			if k+2 > len(packet) {
				return false, executed
			}
			a = uint32(binary.BigEndian.Uint16(packet[k:]))
		case BPFLdW:
			k := int(in.K)
			if k+4 > len(packet) {
				return false, executed
			}
			a = binary.BigEndian.Uint32(packet[k:])
		case BPFLdBI:
			k := int(x) + int(in.K)
			if k >= len(packet) {
				return false, executed
			}
			a = uint32(packet[k])
		case BPFLdHI:
			k := int(x) + int(in.K)
			if k+2 > len(packet) {
				return false, executed
			}
			a = uint32(binary.BigEndian.Uint16(packet[k:]))
		case BPFLdxMSH:
			k := int(in.K)
			if k >= len(packet) {
				return false, executed
			}
			x = 4 * uint32(packet[k]&0x0f)
		case BPFJEq:
			if a == in.K {
				pc += int(in.Jt)
			} else {
				pc += int(in.Jf)
			}
		case BPFJGt:
			if a > in.K {
				pc += int(in.Jt)
			} else {
				pc += int(in.Jf)
			}
		case BPFJSet:
			if a&in.K != 0 {
				pc += int(in.Jt)
			} else {
				pc += int(in.Jf)
			}
		case BPFRet:
			return in.K != 0, executed
		case BPFAndK:
			a &= in.K
		case BPFTax:
			x = a
		case BPFTxa:
			a = x
		default:
			return false, executed
		}
	}
	return false, executed
}
