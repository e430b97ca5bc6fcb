package ulp_test

import (
	"runtime"
	"testing"

	"ulp/internal/experiments"
)

// What one more connection set-up may allocate on a warm world, on the
// benchmark's churn shape (fast path, four shards). The server closes first,
// so its library's half of every connection sits in TIME_WAIT for the rest of
// the run and is the floor: a compact record (DESIGN §5.5), its handle and
// its channel; everything else is recycled, down to the hand-off, the
// connect's reply port and the control path's timed waits and asynchronous
// sends. The constants are about a tenth above what lending hand-offs
// measured (2 573 bytes, 20 mallocs); before, it was 3 263 and 28, with a
// full record held through TIME_WAIT 4 455 and 35, and before records were
// recycled 10 706 and 152.
const (
	churnSetupBytesBudget   = 2800
	churnSetupMallocsBudget = 22
)

// TestChurnSetupAllocBudget measures the marginal set-up: the difference
// between an 800- and a 400-connection run in one process, which cancels the
// world build and the warm-up of every free list.
func TestChurnSetupAllocBudget(t *testing.T) {
	run := func(conns int) (bytes, mallocs uint64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		r := experiments.Churn(experiments.ChurnConfig{Conns: conns, Shards: 4})
		runtime.ReadMemStats(&after)
		if r.Err != nil {
			t.Fatalf("%d connections: %v", conns, r.Err)
		}
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	b400, m400 := run(400)
	b800, m800 := run(800)
	bytes, mallocs := (b800-b400)/400, (m800-m400)/400
	t.Logf("one more set-up allocates %d bytes in %d mallocs", bytes, mallocs)
	if bytes > churnSetupBytesBudget {
		t.Errorf("one more set-up allocates %d bytes, budget %d", bytes, churnSetupBytesBudget)
	}
	if mallocs > churnSetupMallocsBudget {
		t.Errorf("one more set-up allocates %d mallocs, budget %d", mallocs, churnSetupMallocsBudget)
	}
}
