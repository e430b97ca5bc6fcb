package experiments

import (
	"time"

	"ulp"
	"ulp/internal/costs"
	"ulp/internal/stacks"
)

// StatsReportZC runs a representative 1 MB bulk transfer on a fresh world and
// returns the per-layer counter breakdown (wire frames and bytes, device
// tx/rx, demux decisions, notification batching, copies, checksum bytes,
// packet-pool churn, engine activity) in the style of the paper's per-layer
// cost accounting. The report reflects the whole run including connection
// setup. zeroCopy toggles the zero-copy receive path: with it on, the
// breakdown shows referenced_bytes/delivered_by_ref rising where
// copied_bytes would have, per channel and in aggregate.
func StatsReportZC(org OrgSel, net NetSel, model *costs.Model, zeroCopy bool) (string, error) {
	w := newWorldWith(org, net, model, func(cfg *ulp.Config) {
		cfg.ZeroCopyRx = zeroCopy
	})
	if _, err := bulkSend(w, 1<<20, 8192, stacks.Options{}, 30*time.Second); err != nil {
		return "", err
	}
	return w.w.StatsReport(), nil
}
