package experiments

import (
	"time"

	"ulp"
	"ulp/internal/stacks"
)

// StatsReport runs a representative 1 MB bulk transfer on a fresh Ethernet
// world and returns the per-layer counter breakdown (wire frames and bytes,
// device tx/rx, demux decisions, notification batching, copies, checksum
// bytes, packet-pool churn, engine activity) in the style of the paper's
// per-layer cost accounting. The report reflects the whole run including
// connection setup. zeroCopy toggles the zero-copy receive path of the
// user-level library (the monolithic organizations have no receive
// channels): with it on, the breakdown shows referenced_bytes/delivered_by_ref
// rising where copied_bytes would have, per channel and in aggregate.
func StatsReport(org ulp.Org, zeroCopy bool) (string, error) {
	w := newWorld(ulp.Config{Org: org, Net: ulp.Ethernet, ZeroCopyRx: zeroCopy && org == ulp.OrgUserLib})
	if _, err := bulkSend(w, 1<<20, 8192, stacks.Options{}, 30*time.Second); err != nil {
		return "", err
	}
	return w.StatsReport(), nil
}
