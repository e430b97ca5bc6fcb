package experiments

// End-to-end degradation under adversarial link conditions. The paper's
// tables measure the stacks over a clean wire; this experiment drives the
// same user-level stack through the segment's impairment plan
// (wire.LinkConditions) and tabulates how gracefully throughput degrades —
// and where the stack gives up — as a function of loss-burst length, link
// flap period, and bufferbloat queue depth. The interesting outputs are
// goodput, retransmission counts, R1 advisories (RFC 1122 "delivery looks
// degraded"), and R2 give-ups (connection abandoned with a user-visible
// timeout), which together show the hardened failure behaviour: sessions
// either make progress or fail crisply, never hang.

import (
	"errors"
	"fmt"
	"io"
	"time"

	"ulp"
	"ulp/internal/kern"
	"ulp/internal/stacks"
	"ulp/internal/wire"
)

// DegradeConfig parameterizes the degradation experiment.
type DegradeConfig struct {
	// Bytes is the payload per transfer (default 256 KiB).
	Bytes int
}

const (
	// degradeSeed drives the link-condition RNG.
	degradeSeed = 1
	// degradeR2 is the retransmission give-up threshold applied to every
	// connection: permanent outages fail in a few virtual minutes instead
	// of tens, and before the keepalive horizon, so the sender's R2 give-up
	// — not the idle probe — is what fires.
	degradeR2 = 8
)

// DegradeRow is one (profile, knob) measurement.
type DegradeRow struct {
	Profile string // "bursty-loss", "flap", "partition", "bufferbloat"
	Knob    string // human-readable knob setting, e.g. "burst≈10 frames"

	Completed bool          // transfer finished intact
	GaveUp    bool          // a side abandoned the connection (R2/keepalive)
	Goodput   float64       // delivered payload Mb/s over virtual time
	Virtual   time.Duration // virtual time to completion or failure

	Rexmits     int // timeout retransmissions (sender)
	FastRexmits int // fast retransmissions (sender)
	R1          int // R1 advisories (sender)
	GiveUps     int // R2 give-ups, both sides

	CondDrops  int // frames dropped by the link conditions (all stages)
	QueueDrops int // of which bufferbloat tail drops

	Err error // unexpected failure (budget exhausted, corrupt transfer)
}

// Degrade sweeps three degradation profiles over a two-host user-level
// world: Gilbert–Elliott bursty loss (mean burst length sweep), link-flap
// schedules (half-period sweep, plus a permanent partition that must end in
// a clean give-up), and a rate-limited bufferbloat queue (depth sweep).
func Degrade(cfg DegradeConfig) []DegradeRow {
	if cfg.Bytes == 0 {
		cfg.Bytes = 256 << 10
	}
	var rows []DegradeRow

	// Bursty loss: ~3% of frames enter a loss burst; the knob is the mean
	// burst length (1/PBadGood), with every frame inside a burst lost.
	for _, pbg := range []float64{0.5, 0.2, 0.1, 0.05} {
		lc := &wire.LinkConditions{
			Seed:  degradeSeed,
			Burst: &wire.GilbertElliott{PGoodBad: 0.03, PBadGood: pbg, LossBad: 1},
		}
		rows = append(rows, degradeRow(cfg, "bursty-loss",
			fmt.Sprintf("burst~%.0f frames", 1/pbg), lc))
	}

	// Link flaps: the wire goes dark for a half-period, comes back for a
	// half-period, 20 cycles starting at 200 ms. Short flaps cost little;
	// long flaps push the sender deep into backoff.
	for _, hp := range []time.Duration{100 * time.Millisecond, 500 * time.Millisecond, 2 * time.Second} {
		lc := &wire.LinkConditions{Seed: degradeSeed}
		start := 200 * time.Millisecond
		for k := 0; k < 20; k++ {
			from := start + time.Duration(2*k)*hp
			lc.Flaps = append(lc.Flaps, wire.Window{From: from, Until: from + hp})
		}
		rows = append(rows, degradeRow(cfg, "flap",
			fmt.Sprintf("half-period %v", hp), lc))
	}

	// Permanent partition mid-transfer: no heal, so the only acceptable
	// outcome is a crisp R2 give-up surfacing a timeout to the writer.
	lc := &wire.LinkConditions{
		Seed:       degradeSeed,
		Partitions: []wire.Window{{From: 200 * time.Millisecond}},
	}
	rows = append(rows, degradeRow(cfg, "partition", "permanent @200ms", lc))

	// Bufferbloat: a 10 Mb/s bottleneck with a bounded tail-drop queue.
	// Shallow queues drop (forcing retransmissions); deep queues inflate
	// the RTT instead.
	for _, depth := range []int{4, 16, 64, 256} {
		lc := &wire.LinkConditions{
			Seed:  degradeSeed,
			Queue: &wire.QueueModel{RateBitsPerSec: 10_000_000, MaxFrames: depth},
		}
		rows = append(rows, degradeRow(cfg, "bufferbloat",
			fmt.Sprintf("queue %d frames", depth), lc))
	}
	return rows
}

// degradeRow runs one transfer through one condition plan.
func degradeRow(cfg DegradeConfig, profile, knob string, lc *wire.LinkConditions) DegradeRow {
	w := newWorld(ulp.Config{Org: ulp.OrgUserLib, Net: ulp.AN1, Conditions: lc})
	row := DegradeRow{Profile: profile, Knob: knob}

	// Keepalive lets the silent (server) side notice a dead peer too; R2
	// bounds how long the sender retries into an outage (and, at the
	// default thresholds, fires before the keepalive horizon). Large
	// socket buffers keep the window — not the BSD 8 KB default — as the
	// flight-size limit, so the bufferbloat queue actually fills.
	opts := stacks.Options{RexmtR2: degradeR2, KeepAliveTicks: 240, SndBuf: 64 << 10, RcvBuf: 64 << 10}

	// The row ends when the server has every byte, or when a give-up
	// surfaces as an error on the blocked writer (or the reader, via
	// keepalive).
	var got int
	var srvConn, cliConn stacks.Conn
	err := exchange{opts: opts, budget: 20 * time.Minute, serverEnds: true,
		serve: func(t *kern.Thread, l stacks.Listener) error {
			c, err := l.Accept(t)
			if err != nil {
				return err
			}
			srvConn = c
			buf := make([]byte, 16384)
			for got < cfg.Bytes {
				n, err := c.Read(t, buf)
				got += n
				if err != nil {
					return err
				}
				if n == 0 {
					return io.ErrUnexpectedEOF
				}
			}
			return nil
		},
		client: func(t *kern.Thread, dial func() (stacks.Conn, error)) error {
			c, err := dial()
			if err != nil {
				return err
			}
			cliConn = c
			chunk := make([]byte, 32768)
			for i := range chunk {
				chunk[i] = byte(i)
			}
			for sent := 0; sent < cfg.Bytes; sent += len(chunk) {
				if _, err := c.Write(t, chunk[:min(len(chunk), cfg.Bytes-sent)]); err != nil {
					return err
				}
			}
			return c.Close(t)
		},
	}.run(w)
	row.Virtual = w.Now()
	row.Completed = err == nil
	row.Goodput = mbps(int64(got), row.Virtual)

	if cliConn != nil {
		cs := cliConn.Stats()
		row.Rexmits, row.FastRexmits = cs.Rexmits, cs.FastRexmits
		row.R1, row.GiveUps = cs.R1Advisories, cs.RexmtGiveUps
	}
	if srvConn != nil {
		row.GiveUps += srvConn.Stats().RexmtGiveUps
	}
	row.GaveUp = row.GiveUps > 0 || errors.Is(err, stacks.ErrTimeout)

	st := w.Seg.Stats()
	row.CondDrops, row.QueueDrops = st.Dropped, st.QueueDrops

	if !row.Completed && !row.GaveUp {
		row.Err = fmt.Errorf("degrade(%s/%s): neither completed nor gave up (got %d/%d): %w",
			profile, knob, got, cfg.Bytes, err)
	}
	return row
}
