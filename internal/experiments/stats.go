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
// connection setup. Under the user-level library the netio lines break the
// receive path down per channel: frames delivered by reference, the bytes
// the LANCE's software demux copied into the shared region, notifications.
func StatsReport(org ulp.Org) (string, error) {
	w := newWorld(ulp.Config{Org: org, Net: ulp.Ethernet})
	if _, err := bulkSend(w, 1<<20, 8192, stacks.Options{}, 30*time.Second); err != nil {
		return "", err
	}
	return w.StatsReport(), nil
}
