package experiments

import "testing"

func TestAblationBatching(t *testing.T) {
	r := AblationBatching(nil)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	t.Logf("batched %.2f Mb/s, per-packet notifications %.2f Mb/s", r.BatchedMbps, r.UnbatchedMbps)
	if r.BatchedMbps < r.UnbatchedMbps {
		t.Fatalf("batching made things worse: %.2f < %.2f", r.BatchedMbps, r.UnbatchedMbps)
	}
}

func TestAblationAN1MTU(t *testing.T) {
	r := AblationAN1MTU(nil)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	t.Logf("1500B encapsulation %+v, 64K frames %+v", r.Encap1500, r.Jumbo64K)
	if r.Jumbo64K.Mbps < 1.5*r.Encap1500.Mbps {
		t.Fatalf("64K frames should be a large win: %.2f vs %.2f", r.Jumbo64K.Mbps, r.Encap1500.Mbps)
	}
}

func TestAblationFilter(t *testing.T) {
	r := AblationFilter(nil)
	t.Logf("CSPF %d instrs = %v; BPF %d instrs = %v; native %v",
		r.CSPFInstrs, r.CSPFTime, r.BPFInstrs, r.BPFTime, r.NativeTime)
	if r.CSPFTime <= r.BPFTime {
		t.Fatal("CSPF should cost more than BPF")
	}
	if r.BPFTime <= r.NativeTime/2 {
		t.Fatal("interpreted BPF should not massively beat synthesized native code")
	}
}

func TestAblationAppSpecific(t *testing.T) {
	r := AblationAppSpecific(nil)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	t.Logf("stock %v per op, NoDelay variant %v per op", r.StockPerOp, r.NoDelayPerOp)
	if r.NoDelayPerOp >= r.StockPerOp {
		t.Fatal("the specialized variant should win on this workload")
	}
}

func TestAblationChecksum(t *testing.T) {
	r := AblationChecksum(nil)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	t.Logf("with checksum %.2f Mb/s, without %.2f Mb/s", r.WithMbps, r.WithoutMbps)
	if r.WithoutMbps <= r.WithMbps {
		t.Fatal("checksum elision should help on the fast network")
	}
}

func TestAblationRPC(t *testing.T) {
	r := AblationRPC(nil)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	t.Logf("via registry %v/op, bypassed %v/op", r.ViaServerPerOp, r.BypassedPerOp)
	if r.BypassedPerOp >= r.ViaServerPerOp {
		t.Fatal("bypassing the server must reduce request-response latency")
	}
}
