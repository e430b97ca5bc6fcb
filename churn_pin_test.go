package ulp_test

import (
	"testing"
	"time"

	"ulp/internal/experiments"
)

// TestChurnVirtualNumbersPinned holds the control plane's virtual clock still
// in both registry shapes: 200 connection set-ups through a lone registry
// (Shards 0, the paper's) and through four shards. The constants were recorded at commit 5d632a0, before the lone
// registry became a one-shard federation; the paper tables (ulbench's golden
// file) pin only the lone shape, and bench/'s baselines pin the sharded one
// only outside `go test`. A change meant to move them records new constants
// and says why.
func TestChurnVirtualNumbersPinned(t *testing.T) {
	for _, want := range []struct {
		shards                  int
		p50, p99, p999, virtual time.Duration
	}{
		{0, 123536952, 186697300, 186844208, 1634896016},
		{4, 18691364, 34079380, 34300060, 511102496},
	} {
		r := experiments.Churn(experiments.ChurnConfig{Conns: 200, Shards: want.shards})
		if r.Err != nil {
			t.Fatalf("shards %d: %v", want.shards, r.Err)
		}
		if r.P50 != want.p50 || r.P99 != want.p99 || r.P999 != want.p999 || r.Virtual != want.virtual {
			t.Errorf("shards %d: p50 %d p99 %d p999 %d virtual %d ns, pinned %d %d %d %d",
				want.shards, r.P50, r.P99, r.P999, r.Virtual,
				want.p50, want.p99, want.p999, want.virtual)
		}
	}
}
