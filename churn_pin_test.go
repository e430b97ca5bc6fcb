package ulp_test

import (
	"testing"
	"time"

	"ulp/internal/experiments"
)

// TestChurnVirtualNumbersPinned holds the control plane's virtual clock still
// in both registry shapes: 200 connection set-ups through a lone registry
// (Shards 0, the paper's) and through four shards. The constants were
// recorded when each library's connections came to share one input thread
// (a frame that finds it running costs a signal, not a wakeup), and the
// sharded row again when a library's requests to a sharded registry came to
// leave from the calling thread, with no hold to coalesce them; both rows
// again when a frame that finds a registry shard's input thread at work came
// to cost a signal, not a wakeup, as a channel's doorbell charges; the
// sharded row again when a listen became one call that writes the host's one
// listener table, where it had been one call to each shard in turn; the paper
// tables (ulbench's golden file) pin only the lone shape, and bench/'s
// baselines pin the sharded one only outside `go test`. A change meant to
// move them records new constants and says why.
func TestChurnVirtualNumbersPinned(t *testing.T) {
	for _, want := range []struct {
		shards                  int
		p50, p99, p999, virtual time.Duration
	}{
		{0, 110969076, 164803132, 165367932, 1530950516},
		{4, 16758360, 36233212, 36985320, 357918256},
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
