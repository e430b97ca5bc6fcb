package explore

// Library returns the base scenario set. The scripts are chosen so that,
// together with their built-in fault placements, every edge of the legal
// transition relation in internal/conform is exercised: the full handshake
// and orderly release, simultaneous open and close, resets in every
// synchronized state, user aborts in every state, and retransmission
// give-up (timer death) wherever unacked sequence space can be outstanding.
// The explorer's mutation loop then perturbs these scripts with additional
// fault schedules looking for violations, so the library doubles as the
// seed corpus.
//
// Step timing recap: frames take 1 step (100 ms) per hop; the slow timer
// runs every 5 steps; TIME_WAIT in most scenarios is shortened to 10 slow
// ticks (50 steps) so the 2*MSL release is observed within the budget.
func Library() []Scenario {
	var lib []Scenario
	add := func(s Scenario) { lib = append(lib, s) }

	// Standard openers shared by most scripts.
	open := []Op{
		{Step: 0, Side: B, Kind: OpOpenListen},
		{Step: 0, Side: A, Kind: OpOpenActive},
	}
	withOpen := func(ops ...Op) []Op { return append(append([]Op{}, open...), ops...) }

	// Full lifecycle: active open, data, orderly release initiated by A.
	// A: SYN_SENT->EST->FIN_WAIT_1->FIN_WAIT_2->TIME_WAIT->CLOSED(timer)
	// B: LISTEN->SYN_RCVD->EST->CLOSE_WAIT->LAST_ACK->CLOSED(segment)
	add(Scenario{
		Name: "handshake-close", TimeWaitTicks: 10, MaxSteps: 200,
		Ops: withOpen(
			Op{Step: 6, Side: A, Kind: OpWrite, Arg: 1500},
			Op{Step: 20, Side: A, Kind: OpClose},
			Op{Step: 30, Side: B, Kind: OpClose},
		),
	})

	// Simultaneous open, then simultaneous close: both ends are clients.
	// Both: SYN_SENT->SYN_RCVD->EST->FIN_WAIT_1->CLOSING->TIME_WAIT->CLOSED
	add(Scenario{
		Name: "simultaneous-open-close", TimeWaitTicks: 10, MaxSteps: 250,
		Ops: []Op{
			{Step: 0, Side: A, Kind: OpOpenActive},
			{Step: 0, Side: B, Kind: OpOpenActive},
			{Step: 20, Side: A, Kind: OpClose},
			{Step: 20, Side: B, Kind: OpClose},
		},
	})

	// Local closes with nothing in flight: LISTEN->CLOSED and
	// SYN_SENT->CLOSED by user call.
	add(Scenario{
		Name: "close-before-establish", MaxSteps: 40,
		Ops: []Op{
			{Step: 0, Side: B, Kind: OpOpenListen},
			{Step: 0, Side: A, Kind: OpCut, Arg: DirBoth},
			{Step: 0, Side: A, Kind: OpOpenActive},
			{Step: 4, Side: B, Kind: OpClose},
			{Step: 6, Side: A, Kind: OpClose},
		},
	})

	// Passive end closes while stranded in SYN_RCVD (handshake ACK cut),
	// then retransmits its FIN into the void until the timer gives up:
	// SYN_RCVD->FIN_WAIT_1 (user), FIN_WAIT_1->CLOSED (timer); A's data
	// retransmissions also die: ESTABLISHED->CLOSED (timer).
	add(Scenario{
		Name: "close-synrcvd-giveup",
		Ops: withOpen(
			Op{Step: 2, Side: A, Kind: OpCut, Arg: DirBoth},
			Op{Step: 4, Side: A, Kind: OpWrite, Arg: 600},
			Op{Step: 10, Side: B, Kind: OpClose},
		),
	})

	// Abort pairs: the aborting side takes the user edge to CLOSED and its
	// RST lands the peer on the reset edge.
	add(Scenario{ // EST->CLOSED (user) + EST->CLOSED (reset)
		Name: "abort-established", MaxSteps: 60,
		Ops: withOpen(
			Op{Step: 6, Side: A, Kind: OpWrite, Arg: 600},
			Op{Step: 14, Side: A, Kind: OpAbort},
		),
	})
	add(Scenario{ // SYN_RCVD->CLOSED (user)
		Name: "abort-synrcvd", MaxSteps: 60,
		Ops: withOpen(
			Op{Step: 2, Side: A, Kind: OpCut, Arg: DirBoth},
			Op{Step: 10, Side: B, Kind: OpAbort},
		),
	})
	add(Scenario{ // FIN_WAIT_1->CLOSED (user) + CLOSE_WAIT->CLOSED (reset)
		Name: "abort-finwait1", MaxSteps: 80,
		Ops: withOpen(
			// Sever B->A so the FIN's ACK never returns; A stays FIN_WAIT_1.
			Op{Step: 10, Side: A, Kind: OpCut, Arg: DirBA},
			Op{Step: 11, Side: A, Kind: OpClose},
			Op{Step: 20, Side: A, Kind: OpAbort},
		),
	})
	add(Scenario{ // FIN_WAIT_2->CLOSED (user)
		Name: "abort-finwait2", MaxSteps: 80,
		Ops: withOpen(
			Op{Step: 10, Side: A, Kind: OpClose}, // FIN acked, B holds CLOSE_WAIT
			Op{Step: 20, Side: A, Kind: OpAbort},
		),
	})
	add(Scenario{ // CLOSE_WAIT->CLOSED (user) + FIN_WAIT_2->CLOSED (reset)
		Name: "abort-closewait", MaxSteps: 80,
		Ops: withOpen(
			Op{Step: 10, Side: A, Kind: OpClose},
			Op{Step: 20, Side: B, Kind: OpAbort},
		),
	})
	add(Scenario{ // CLOSING->CLOSED (user) + CLOSING->CLOSED (timer)
		Name: "abort-closing",
		Ops: []Op{
			{Step: 0, Side: A, Kind: OpOpenActive},
			{Step: 0, Side: B, Kind: OpOpenActive},
			// Simultaneous close; the crossing FINs arrive, the answering
			// ACKs are cut, leaving both stuck in CLOSING.
			{Step: 20, Side: A, Kind: OpClose},
			{Step: 20, Side: B, Kind: OpClose},
			{Step: 21, Side: A, Kind: OpCut, Arg: DirBoth},
			{Step: 30, Side: A, Kind: OpAbort},
			// B retransmits its FIN until the timer gives up.
		},
	})
	add(Scenario{ // LAST_ACK->CLOSED (user)
		Name: "abort-lastack", MaxSteps: 120,
		Ops: withOpen(
			Op{Step: 10, Side: A, Kind: OpClose},
			// B answers the FIN and closes; its own FIN's ACK is severed.
			Op{Step: 13, Side: A, Kind: OpCut, Arg: DirAB},
			Op{Step: 14, Side: B, Kind: OpClose},
			Op{Step: 30, Side: B, Kind: OpAbort},
		),
	})
	add(Scenario{ // TIME_WAIT->CLOSED (user)
		Name: "abort-timewait", TimeWaitTicks: 40, MaxSteps: 120,
		Ops: withOpen(
			Op{Step: 10, Side: A, Kind: OpClose},
			Op{Step: 20, Side: B, Kind: OpClose},
			Op{Step: 40, Side: A, Kind: OpAbort}, // mid-TIME_WAIT
		),
	})

	// Injected resets in states the abort pairs do not reach.
	add(Scenario{ // SYN_SENT->CLOSED (reset): connection refused
		Name: "rst-synsent", MaxSteps: 40,
		Ops:    []Op{{Step: 0, Side: A, Kind: OpOpenActive}},
		Faults: []Fault{{Kind: FaultRST, At: 3, Side: A}},
	})
	add(Scenario{ // SYN_RCVD->CLOSED (reset)
		Name: "rst-synrcvd", MaxSteps: 60,
		Ops:    withOpen(Op{Step: 2, Side: A, Kind: OpCut, Arg: DirBoth}),
		Faults: []Fault{{Kind: FaultRST, At: 10, Side: B}},
	})
	add(Scenario{ // FIN_WAIT_1->CLOSED (reset)
		Name: "rst-finwait1", MaxSteps: 60,
		Ops: withOpen(
			Op{Step: 10, Side: A, Kind: OpCut, Arg: DirBA},
			Op{Step: 11, Side: A, Kind: OpClose},
		),
		Faults: []Fault{{Kind: FaultRST, At: 20, Side: A}},
	})
	add(Scenario{ // CLOSING->CLOSED (reset)
		Name: "rst-closing", MaxSteps: 80,
		Ops: []Op{
			{Step: 0, Side: A, Kind: OpOpenActive},
			{Step: 0, Side: B, Kind: OpOpenActive},
			{Step: 20, Side: A, Kind: OpClose},
			{Step: 20, Side: B, Kind: OpClose},
			{Step: 21, Side: A, Kind: OpCut, Arg: DirBoth},
		},
		Faults: []Fault{
			{Kind: FaultRST, At: 30, Side: A},
			{Kind: FaultRST, At: 30, Side: B},
		},
	})
	add(Scenario{ // LAST_ACK->CLOSED (reset)
		Name: "rst-lastack", MaxSteps: 80,
		Ops: withOpen(
			Op{Step: 10, Side: A, Kind: OpClose},
			Op{Step: 13, Side: A, Kind: OpCut, Arg: DirAB},
			Op{Step: 14, Side: B, Kind: OpClose},
		),
		Faults: []Fault{{Kind: FaultRST, At: 30, Side: B}},
	})
	add(Scenario{ // TIME_WAIT->CLOSED (reset)
		Name: "rst-timewait", TimeWaitTicks: 40, MaxSteps: 120,
		Ops: withOpen(
			Op{Step: 10, Side: A, Kind: OpClose},
			Op{Step: 20, Side: B, Kind: OpClose},
		),
		Faults: []Fault{{Kind: FaultRST, At: 45, Side: A}},
	})

	// Timer deaths not covered above.
	add(Scenario{ // SYN_SENT->CLOSED (timer): SYN into the void
		Name: "timeout-synsent",
		Ops:  []Op{{Step: 0, Side: A, Kind: OpOpenActive}},
	})
	add(Scenario{ // SYN_RCVD->CLOSED (timer)
		Name: "timeout-synrcvd",
		Ops:  withOpen(Op{Step: 2, Side: A, Kind: OpCut, Arg: DirBoth}),
	})
	add(Scenario{ // CLOSE_WAIT->CLOSED (timer) + FIN_WAIT_1->CLOSED (timer)
		Name: "timeout-closewait",
		Ops: withOpen(
			Op{Step: 10, Side: A, Kind: OpClose},
			// B holds CLOSE_WAIT, keeps writing; the wire then dies with
			// its data (and A's unacked FIN) outstanding.
			Op{Step: 12, Side: B, Kind: OpWrite, Arg: 600},
			Op{Step: 13, Side: A, Kind: OpCut, Arg: DirBoth},
		),
	})
	add(Scenario{ // LAST_ACK->CLOSED (timer)
		Name: "timeout-lastack",
		Ops: withOpen(
			Op{Step: 10, Side: A, Kind: OpClose},
			Op{Step: 13, Side: A, Kind: OpCut, Arg: DirAB},
			Op{Step: 14, Side: B, Kind: OpClose},
		),
	})

	// Zero-window persist: B stops reading, A's data fills the window and
	// the persist machinery probes until B drains. Exercises the
	// TCPPersist invariants rather than new edges.
	add(Scenario{
		Name: "zero-window-persist", NoAutoRead: true, MaxSteps: 600,
		Ops: withOpen(
			Op{Step: 6, Side: A, Kind: OpWrite, Arg: 4096},
			Op{Step: 10, Side: A, Kind: OpWrite, Arg: 4096},
			Op{Step: 200, Side: B, Kind: OpRead},
			Op{Step: 210, Side: B, Kind: OpRead},
			Op{Step: 220, Side: A, Kind: OpClose},
			Op{Step: 230, Side: B, Kind: OpRead},
			Op{Step: 240, Side: B, Kind: OpClose},
		),
	})

	// Partition mid-transfer, then heal: A's data retransmits into the cut
	// and must survive (the partition is shorter than the give-up horizon);
	// after the heal both sides finish the transfer and release cleanly.
	// The FaultFlap variant replays the same script through three shorter
	// down/up cycles, stressing Karn + backoff across repeated recoveries.
	add(Scenario{
		Name: "partition-heal-resume", TimeWaitTicks: 10, MaxSteps: 500,
		Ops: withOpen(
			Op{Step: 10, Side: A, Kind: OpWrite, Arg: 2000},
			Op{Step: 120, Side: A, Kind: OpWrite, Arg: 1000},
			Op{Step: 200, Side: A, Kind: OpClose},
			Op{Step: 220, Side: B, Kind: OpClose},
		),
		Faults: []Fault{{Kind: FaultPartition, At: 12, Dur: 60}},
	})
	add(Scenario{
		Name: "flap-survive", TimeWaitTicks: 10, MaxSteps: 500,
		Ops: withOpen(
			Op{Step: 10, Side: A, Kind: OpWrite, Arg: 2000},
			Op{Step: 200, Side: A, Kind: OpClose},
			Op{Step: 220, Side: B, Kind: OpClose},
		),
		Faults: []Fault{{Kind: FaultFlap, At: 12, Dur: 12}},
	})

	// Lossy handshake and release: the scripted drops force SYN, SYN|ACK
	// and FIN retransmissions (Karn + backoff invariants under recovery).
	add(Scenario{
		Name: "retransmit-recovery", TimeWaitTicks: 10, MaxSteps: 400,
		Ops: withOpen(
			Op{Step: 20, Side: A, Kind: OpWrite, Arg: 2000},
			Op{Step: 60, Side: A, Kind: OpClose},
			Op{Step: 80, Side: B, Kind: OpClose},
		),
		Faults: []Fault{
			{Kind: FaultDrop, At: 0}, // first SYN
			{Kind: FaultDrop, At: 2}, // first SYN|ACK
			{Kind: FaultDrop, At: 6}, // a data segment
		},
	})

	// Tail loss: A warms up with 8 KiB, then sends a short flight and loses
	// one of its last segments, so too few follow it to draw three
	// duplicate ACKs. The tail loss probe draws the missing one and fast
	// retransmission repairs the hole. In the second scenario a loss in the
	// first write starts fast retransmission, which is lost too: recovery
	// stalls until the retransmission timer, and no probe may go in between
	// (conform's probe rules). In the third the same loss is repaired, the
	// full ACK lands exactly on recover, and the first segment sent above
	// it is lost: the duplicates it draws (one of them after a probe) start
	// the next recovery at once (conform's fast-entry rule), with no
	// time-out. In the fourth, B's first ACK and A's probe are lost, and A
	// times out; its resend is acknowledged, and the next segment is lost
	// too. The three duplicates it draws lie below the time-out's recover,
	// where they may echo its resends: they start no recovery (fast-entry
	// again), and a second time-out repairs the hole.
	tail := withOpen(
		Op{Step: 10, Side: A, Kind: OpWrite, Arg: 8192},
		Op{Step: 60, Side: A, Kind: OpWrite, Arg: 2560},
		Op{Step: 120, Side: A, Kind: OpClose},
		Op{Step: 130, Side: B, Kind: OpClose},
	)
	add(Scenario{
		Name: "tail-loss-probe", TimeWaitTicks: 10, MaxSteps: 400, Ops: tail,
		Faults: []Fault{{Kind: FaultDrop, At: 41}}, // the flight's fourth segment
	})
	add(Scenario{
		Name: "recovery-stall", TimeWaitTicks: 10, MaxSteps: 400, Ops: tail,
		Faults: []Fault{
			{Kind: FaultDrop, At: 10},
			{Kind: FaultDrop, At: 18}, // its fast retransmission
		},
	})
	add(Scenario{
		Name: "recovery-back-to-back", TimeWaitTicks: 10, MaxSteps: 400, Ops: tail,
		Faults: []Fault{
			{Kind: FaultDrop, At: 10},
			{Kind: FaultDrop, At: 19}, // the first segment above recover
		},
	})
	add(Scenario{
		Name: "timeout-below-recover", TimeWaitTicks: 10, MaxSteps: 400, Ops: tail,
		Faults: []Fault{
			{Kind: FaultDrop, At: 4}, // B's ACK of the first segment
			{Kind: FaultDrop, At: 5}, // A's probe
			{Kind: FaultDrop, At: 8}, // the segment after the time-out's resend
		},
	})

	// TIME_WAIT's one rule (tcp.TW), which the protocol library's compact
	// record runs once a connection that closed first is compacted, and a
	// pcb in TIME_WAIT runs on its own state. A closes first. In the first
	// scenario its ACK of B's FIN is dropped, so B retransmits the FIN into
	// A's TIME_WAIT, which answers it, and B closes on that answer:
	// LAST_ACK->CLOSED (segment), then TIME_WAIT->CLOSED (timer). In the
	// second, B opens again on the same tuple with a SYN inside A's window,
	// which A answers with a reset: TIME_WAIT->CLOSED (reset).
	add(Scenario{
		Name: "timewait-late-fin", TimeWaitTicks: 10, MaxSteps: 200,
		Ops: withOpen(
			Op{Step: 10, Side: A, Kind: OpClose},
			Op{Step: 20, Side: B, Kind: OpClose},
		),
		Faults: []Fault{{Kind: FaultDrop, At: 6}}, // A's ACK of B's FIN
	})
	add(Scenario{
		Name: "timewait-syn-reuse", TimeWaitTicks: 10, MaxSteps: 200,
		Ops: withOpen(
			Op{Step: 10, Side: A, Kind: OpClose},
			Op{Step: 20, Side: B, Kind: OpClose},
			Op{Step: 30, Side: B, Kind: OpReopen, Arg: 100},
			Op{Step: 40, Side: B, Kind: OpClose},
		),
	})

	return lib
}

// ScenarioByName finds a library scenario (for replaying reproducers).
func ScenarioByName(name string) (Scenario, bool) {
	for _, s := range Library() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}
