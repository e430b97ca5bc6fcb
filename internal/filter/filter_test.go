package filter

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

// buildFrame constructs a well-formed link+IPv4+transport frame matching or
// nearly matching spec, with IHL fixed at 5 (the CSPF-compatible case).
func buildFrame(spec Spec, srcIP, dstIP [4]byte, proto uint8, srcPort, dstPort uint16, fragOff uint16) []byte {
	f := make([]byte, spec.LinkHdrLen+20+8)
	binary.BigEndian.PutUint16(f[spec.LinkHdrLen-2:], 0x0800)
	ip := f[spec.LinkHdrLen:]
	ip[0] = 0x45
	binary.BigEndian.PutUint16(ip[6:], fragOff&0x1fff)
	ip[9] = proto
	copy(ip[12:16], srcIP[:])
	copy(ip[16:20], dstIP[:])
	binary.BigEndian.PutUint16(ip[20:], srcPort)
	binary.BigEndian.PutUint16(ip[22:], dstPort)
	return f
}

var testSpec = Spec{
	LinkHdrLen: 14,
	Proto:      6,
	LocalIP:    [4]byte{10, 0, 0, 2},
	LocalPort:  1234,
	RemoteIP:   [4]byte{10, 0, 0, 1},
	RemotePort: 80,
}

func TestMatchAccepts(t *testing.T) {
	f := buildFrame(testSpec, testSpec.RemoteIP, testSpec.LocalIP, 6, 80, 1234, 0)
	if !testSpec.Compile()(f) {
		t.Fatal("native match rejected a matching frame")
	}
}

func TestMatchRejections(t *testing.T) {
	cases := map[string][]byte{
		"wrong ethertype": func() []byte {
			f := buildFrame(testSpec, testSpec.RemoteIP, testSpec.LocalIP, 6, 80, 1234, 0)
			binary.BigEndian.PutUint16(f[12:], 0x0806)
			return f
		}(),
		"wrong proto":    buildFrame(testSpec, testSpec.RemoteIP, testSpec.LocalIP, 17, 80, 1234, 0),
		"wrong dst ip":   buildFrame(testSpec, testSpec.RemoteIP, [4]byte{10, 0, 0, 9}, 6, 80, 1234, 0),
		"wrong src ip":   buildFrame(testSpec, [4]byte{10, 0, 0, 9}, testSpec.LocalIP, 6, 80, 1234, 0),
		"wrong dst port": buildFrame(testSpec, testSpec.RemoteIP, testSpec.LocalIP, 6, 80, 999, 0),
		"wrong src port": buildFrame(testSpec, testSpec.RemoteIP, testSpec.LocalIP, 6, 99, 1234, 0),
		"fragment":       buildFrame(testSpec, testSpec.RemoteIP, testSpec.LocalIP, 6, 80, 1234, 100),
		"short":          make([]byte, 20),
		"empty":          nil,
	}
	match := testSpec.Compile()
	for name, f := range cases {
		if match(f) {
			t.Errorf("%s: native match accepted", name)
		}
	}
}

func TestWildcardSpec(t *testing.T) {
	listen := Spec{LinkHdrLen: 14, Proto: 6, LocalIP: [4]byte{10, 0, 0, 2}, LocalPort: 21}
	f := buildFrame(listen, [4]byte{1, 2, 3, 4}, listen.LocalIP, 6, 5555, 21, 0)
	if !listen.Compile()(f) {
		t.Fatal("wildcard spec rejected matching frame")
	}
	for _, prog := range []interface {
		Run([]byte) (bool, int)
	}{listen.CompileBPF(), listen.CompileCSPF()} {
		if ok, _ := prog.Run(f); !ok {
			t.Fatalf("%T rejected frame accepted by wildcard native match", prog)
		}
	}
}

// TestCompiledProgramsValidate checks CompileBPF's jump patching: every
// jump of every emitted program lands inside the program, and the program
// ends in a return, so the interpreter never runs off its end.
func TestCompiledProgramsValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		p := randSpec(rng).CompileBPF()
		if len(p) == 0 || p[len(p)-1].Op != BPFRet {
			t.Fatalf("program does not end in a return: %+v", p)
		}
		for j, in := range p {
			switch in.Op {
			case BPFJEq, BPFJGt, BPFJSet:
				if j+1+int(in.Jt) >= len(p) || j+1+int(in.Jf) >= len(p) {
					t.Fatalf("jump out of range at %d: %+v", j, p)
				}
			}
		}
	}
}

func TestVariableIHLBPFOnly(t *testing.T) {
	// Build a frame with IHL=6 (one option word); BPF and native handle it,
	// CSPF (documented limitation) does not.
	spec := testSpec
	f := make([]byte, spec.LinkHdrLen+24+8)
	binary.BigEndian.PutUint16(f[spec.LinkHdrLen-2:], 0x0800)
	ip := f[spec.LinkHdrLen:]
	ip[0] = 0x46
	ip[9] = 6
	copy(ip[12:16], spec.RemoteIP[:])
	copy(ip[16:20], spec.LocalIP[:])
	binary.BigEndian.PutUint16(ip[24:], 80)
	binary.BigEndian.PutUint16(ip[26:], 1234)
	if !spec.Compile()(f) {
		t.Fatal("native match should handle IHL=6")
	}
	if ok, _ := spec.CompileBPF().Run(f); !ok {
		t.Fatal("BPF (LdxMSH) should handle IHL=6")
	}
}

// Property: on well-formed IHL=5 frames, native, BPF and CSPF agree.
func TestArchitecturesAgreeProperty(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spec := Spec{
			LinkHdrLen: []int{14, 16}[rng.Intn(2)],
			Proto:      []uint8{6, 17}[rng.Intn(2)],
			LocalIP:    [4]byte{10, 0, 0, byte(rng.Intn(4))},
			LocalPort:  uint16(rng.Intn(4) + 1),
		}
		if rng.Intn(2) == 0 {
			spec.RemoteIP = [4]byte{10, 0, 0, byte(rng.Intn(4))}
			spec.RemotePort = uint16(rng.Intn(4) + 1)
		}
		bpf := spec.CompileBPF()
		cspf := spec.CompileCSPF()
		native := spec.Compile()
		// Draw fields from small ranges so matches actually occur.
		for i := 0; i < 40; i++ {
			f := buildFrame(spec,
				[4]byte{10, 0, 0, byte(rng.Intn(4))},
				[4]byte{10, 0, 0, byte(rng.Intn(4))},
				[]uint8{6, 17}[rng.Intn(2)],
				uint16(rng.Intn(4)+1), uint16(rng.Intn(4)+1),
				uint16(rng.Intn(2)*77))
			want := native(f)
			if got, _ := bpf.Run(f); got != want {
				return false
			}
			if got, _ := cspf.Run(f); got != want {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the interpreters never panic on arbitrary bytes, and BPF agrees
// with native on arbitrary garbage (both must reject or accept together for
// IHL>=5 well-formed-enough frames; for garbage both reject).
func TestRobustnessOnGarbage(t *testing.T) {
	bpf := testSpec.CompileBPF()
	cspf := testSpec.CompileCSPF()
	native := testSpec.Compile()
	if err := quick.Check(func(data []byte) bool {
		a, _ := bpf.Run(data)
		b, _ := cspf.Run(data)
		c := native(data)
		// On arbitrary garbage the odds of a match are negligible but not
		// impossible; require only no-panic and BPF==native.
		_ = b
		return a == c
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestInstructionCounts(t *testing.T) {
	f := buildFrame(testSpec, testSpec.RemoteIP, testSpec.LocalIP, 6, 80, 1234, 0)
	_, nb := testSpec.CompileBPF().Run(f)
	_, nc := testSpec.CompileCSPF().Run(f)
	if nb == 0 || nc == 0 {
		t.Fatal("instruction counts should be nonzero")
	}
	// The stack architecture takes materially more interpreted operations
	// for the same predicate — the paper's point about CSPF being memory
	// intensive relative to the RISC-friendly BPF design.
	if nc <= nb {
		t.Fatalf("CSPF executed %d ops vs BPF %d; expected CSPF > BPF", nc, nb)
	}
}

func TestCSPFEarlyRejectCheapens(t *testing.T) {
	good := buildFrame(testSpec, testSpec.RemoteIP, testSpec.LocalIP, 6, 80, 1234, 0)
	bad := buildFrame(testSpec, testSpec.RemoteIP, testSpec.LocalIP, 6, 80, 1234, 0)
	binary.BigEndian.PutUint16(bad[12:], 0x0806) // wrong ethertype, first test
	_, nGood := testSpec.CompileCSPF().Run(good)
	_, nBad := testSpec.CompileCSPF().Run(bad)
	if nBad >= nGood {
		t.Fatalf("early reject executed %d ops, full accept %d; want reject cheaper", nBad, nGood)
	}
}

func TestCSPFStackOps(t *testing.T) {
	// Direct unit tests of the stack machine beyond the compiler's idioms.
	pkt := []byte{0x00, 0x05, 0x00, 0x03}
	run := func(p CSPFProgram) bool { ok, _ := p.Run(pkt); return ok }
	if !run(CSPFProgram{
		{Op: CSPFPushWord, Arg: 0}, {Op: CSPFPushWord, Arg: 1}, {Op: CSPFAdd},
		{Op: CSPFPushLit, Arg: 8}, {Op: CSPFEq},
	}) {
		t.Fatal("5+3 != 8 per CSPF")
	}
	if !run(CSPFProgram{
		{Op: CSPFPushWord, Arg: 0}, {Op: CSPFPushLit, Arg: 3}, {Op: CSPFSub},
		{Op: CSPFPushLit, Arg: 2}, {Op: CSPFEq},
	}) {
		t.Fatal("5-3 != 2 per CSPF")
	}
	if !run(CSPFProgram{
		{Op: CSPFPushLit, Arg: 0xf0}, {Op: CSPFPushLit, Arg: 0x1f}, {Op: CSPFXor},
		{Op: CSPFPushLit, Arg: 0xef}, {Op: CSPFEq},
	}) {
		t.Fatal("xor broken")
	}
	if run(CSPFProgram{{Op: CSPFPushLit, Arg: 1}, {Op: CSPFEq}}) {
		t.Fatal("stack underflow should reject")
	}
	if run(CSPFProgram{{Op: CSPFPushWord, Arg: 100}}) {
		t.Fatal("out-of-range word load should reject")
	}
	// Comparison operators.
	cmp := func(op CSPFOp, a, b uint16) bool {
		return run(CSPFProgram{{Op: CSPFPushLit, Arg: a}, {Op: CSPFPushLit, Arg: b}, {Op: op}})
	}
	if !cmp(CSPFLt, 1, 2) || cmp(CSPFLt, 2, 2) || !cmp(CSPFLe, 2, 2) ||
		!cmp(CSPFGt, 3, 2) || cmp(CSPFGt, 2, 2) || !cmp(CSPFGe, 2, 2) ||
		!cmp(CSPFNeq, 1, 2) || cmp(CSPFNeq, 2, 2) || !cmp(CSPFOr, 0, 2) {
		t.Fatal("comparison operator broken")
	}
	// COR short-circuit accept.
	if ok, n := (CSPFProgram{
		{Op: CSPFPushLit, Arg: 7}, {Op: CSPFPushLit, Arg: 7}, {Op: CSPFCor},
		{Op: CSPFPushLit, Arg: 0},
	}).Run(pkt); !ok || n != 3 {
		t.Fatalf("COR short-circuit: ok=%v n=%d", ok, n)
	}
	// Stack overflow rejects rather than panicking.
	var deep CSPFProgram
	for i := 0; i < 64; i++ {
		deep = append(deep, CSPFInstr{Op: CSPFPushLit, Arg: 1})
	}
	if ok, _ := deep.Run(pkt); ok {
		t.Fatal("stack overflow should reject")
	}
}

func TestBPFOps(t *testing.T) {
	pkt := []byte{0x12, 0x34, 0x56, 0x78, 0x45}
	run := func(p BPFProgram) bool { ok, _ := p.Run(pkt); return ok }
	if !run(BPFProgram{{Op: BPFLdW, K: 0}, {Op: BPFJEq, K: 0x12345678, Jt: 0, Jf: 1}, {Op: BPFRet, K: 1}, {Op: BPFRet, K: 0}}) {
		t.Fatal("LdW/JEq broken")
	}
	if !run(BPFProgram{{Op: BPFLdB, K: 4}, {Op: BPFAndK, K: 0x0f}, {Op: BPFJEq, K: 5, Jt: 0, Jf: 1}, {Op: BPFRet, K: 1}, {Op: BPFRet, K: 0}}) {
		t.Fatal("LdB/AndK broken")
	}
	if !run(BPFProgram{{Op: BPFLdxMSH, K: 4}, {Op: BPFTxa}, {Op: BPFJEq, K: 20, Jt: 0, Jf: 1}, {Op: BPFRet, K: 1}, {Op: BPFRet, K: 0}}) {
		t.Fatal("LdxMSH/Txa broken")
	}
	// Out-of-range indexed load must reject, not fault.
	if run(BPFProgram{{Op: BPFLdB, K: 0}, {Op: BPFTax}, {Op: BPFLdBI, K: 0x22}, {Op: BPFRet, K: 1}}) {
		t.Fatal("out-of-range indexed load should reject")
	}
}

func TestBPFIndexedLoad(t *testing.T) {
	pkt := make([]byte, 64)
	pkt[0] = 3
	pkt[3+2] = 0xaa
	p := BPFProgram{
		{Op: BPFLdB, K: 0},
		{Op: BPFTax},
		{Op: BPFLdBI, K: 2}, // pkt[X+2] = pkt[5]
		{Op: BPFJEq, K: 0xaa, Jt: 0, Jf: 1},
		{Op: BPFRet, K: 1},
		{Op: BPFRet, K: 0},
	}
	if ok, _ := p.Run(pkt); !ok {
		t.Fatal("indexed byte load broken")
	}
	// Out-of-range indexed load rejects.
	pkt[0] = 200
	if ok, _ := p.Run(pkt[:32]); ok {
		t.Fatal("out-of-range indexed load should reject")
	}
}

func TestBPFRunOffEndRejects(t *testing.T) {
	p := BPFProgram{{Op: BPFLdB, K: 0}}
	if ok, _ := p.Run([]byte{1}); ok {
		t.Fatal("program without RET should reject")
	}
}

// randSpec produces a random demux spec, sometimes with wildcard remote
// fields, over Ethernet or AN1 link header lengths.
func randSpec(rng *rand.Rand) Spec {
	s := Spec{
		LinkHdrLen: []int{14, 16}[rng.Intn(2)],
		Proto:      []uint8{6, 17}[rng.Intn(2)],
		LocalPort:  uint16(rng.Intn(65536)),
	}
	rng.Read(s.LocalIP[:])
	if rng.Intn(2) == 0 {
		rng.Read(s.RemoteIP[:])
		s.RemotePort = uint16(1 + rng.Intn(65535))
	}
	return s
}

// randFrame produces a frame that sometimes matches the spec, sometimes
// differs in one field, and sometimes is random garbage or truncated —
// covering accept paths, every reject path, IP options (IHL 5 to 7) and
// bounds handling.
func randFrame(rng *rand.Rand, s Spec) []byte {
	l := s.LinkHdrLen
	n := l + 20 + 8 + rng.Intn(64)
	f := make([]byte, n)
	rng.Read(f)
	switch rng.Intn(8) {
	case 0: // pure garbage
		return f
	case 1: // truncated
		return f[:rng.Intn(len(f))]
	}
	// Construct a matching frame, then maybe perturb one field.
	f[l-2], f[l-1] = 0x08, 0x00
	ihl := 5 + rng.Intn(3)
	f[l] = 0x40 | byte(ihl)
	f[l+6] &= 0xe0 // first fragment
	f[l+7] = 0
	f[l+9] = s.Proto
	copy(f[l+12:], s.RemoteIP[:])
	copy(f[l+16:], s.LocalIP[:])
	tp := l + ihl*4
	if tp+4 > len(f) {
		return f[:rng.Intn(len(f))]
	}
	f[tp] = byte(s.RemotePort >> 8)
	f[tp+1] = byte(s.RemotePort)
	f[tp+2] = byte(s.LocalPort >> 8)
	f[tp+3] = byte(s.LocalPort)
	if rng.Intn(2) == 0 {
		f[rng.Intn(len(f))] ^= 1 << rng.Intn(8) // perturb one bit anywhere
	}
	return f
}

// TestCompiledEquivalence verifies the native predicate against the
// interpreters over randomized specs and frames. The BPF program is the
// reference on every frame, except that the native code also refuses an IP
// version other than 4 and an IHL below 5, which the BPF program does not
// test; the CSPF program, which assumes a 20-byte IP header, must agree on
// every frame whose version/IHL byte is 0x45.
func TestCompiledEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var accepted, options int
	for i := 0; i < 500; i++ {
		s := randSpec(rng)
		bpf := s.CompileBPF()
		cspf := s.CompileCSPF()
		native := s.Compile()
		for j := 0; j < 40; j++ {
			f := randFrame(rng, s)
			got := native(f)
			want, _ := bpf.Run(f)
			var vihl byte
			if len(f) > s.LinkHdrLen {
				vihl = f[s.LinkHdrLen]
			}
			if vihl>>4 != 4 || vihl&0x0f < 5 {
				want = false
			}
			if got != want {
				t.Fatalf("native %v, BPF reference %v\nspec %+v\nframe %x", got, want, s, f)
			}
			if vihl == 0x45 {
				if c, _ := cspf.Run(f); c != got {
					t.Fatalf("native %v, CSPF %v on an IHL=5 frame\nspec %+v\nframe %x", got, c, s, f)
				}
			}
			if got {
				accepted++
				if vihl != 0x45 {
					options++
				}
			}
		}
	}
	if accepted < 5000 || options < 3000 {
		t.Fatalf("corpus too thin: %d accepted frames, %d with IP options", accepted, options)
	}
}
