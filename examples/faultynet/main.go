// Faultynet: runs the user-level library over a hostile Ethernet — packet
// loss, duplication, single-bit corruption and reordering injected at the
// wire — and shows the protocol machinery (checksums, retransmission, tail
// loss probes, fast retransmit, reassembly) delivering a byte-perfect stream
// anyway.
//
// Exits non-zero if the transfer fails verification, so it doubles as a
// scriptable smoke test.
//
//	go run ./examples/faultynet
package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"ulp"
	"ulp/internal/kern"
	"ulp/internal/stacks"
	"ulp/internal/wire"
)

const transferSize = 200 << 10

// shared is the state the simulated application threads write and the main
// goroutine reads after the run. The simulator hands control between
// goroutines one at a time, but the mutex makes the sharing discipline
// explicit and keeps the example clean under the race detector.
type shared struct {
	mu           sync.Mutex
	got          []byte
	cConn, sConn stacks.Conn
	done         bool
	failure      string
}

func (s *shared) fail(msg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failure == "" {
		s.failure = msg
	}
	s.done = true
}

func main() { os.Exit(run(os.Stdout)) }

// run is the whole program; it returns 1 if the transfer failed verification.
func run(stdout io.Writer) int {
	faults := &wire.LinkConditions{
		Seed:         7,
		LossProb:     0.05,
		DupProb:      0.02,
		CorruptProb:  0.02,
		ReorderProb:  0.05,
		ReorderDelay: 2 * time.Millisecond,
	}
	fmt.Fprintf(stdout, "wire faults: %.0f%% loss, %.0f%% duplication, %.0f%% corruption, %.0f%% reordering\n\n",
		faults.LossProb*100, faults.DupProb*100, faults.CorruptProb*100, faults.ReorderProb*100)

	w := ulp.NewWorld(ulp.Config{Org: ulp.OrgUserLib, Net: ulp.Ethernet, Conditions: faults})
	data := make([]byte, transferSize)
	for i := range data {
		data[i] = byte(i*31 + i>>11)
	}

	srv := w.Node(0).App("receiver")
	cli := w.Node(1).App("sender")
	st := &shared{}

	srv.Go("rx", func(t *kern.Thread) {
		l, _ := srv.Stack.Listen(t, 9, stacks.Options{})
		c, err := l.Accept(t)
		if err != nil {
			st.fail(fmt.Sprintf("accept: %v", err))
			return
		}
		st.mu.Lock()
		st.sConn = c
		st.mu.Unlock()
		buf := make([]byte, 65536)
		total := 0
		for total < transferSize {
			n, err := c.Read(t, buf)
			if err != nil {
				st.fail(fmt.Sprintf("receiver read: %v", err))
				return
			}
			if n == 0 {
				break
			}
			st.mu.Lock()
			st.got = append(st.got, buf[:n]...)
			total = len(st.got)
			st.mu.Unlock()
		}
		st.mu.Lock()
		st.done = true
		st.mu.Unlock()
	})
	cli.GoAfter(time.Millisecond, "tx", func(t *kern.Thread) {
		c, err := cli.Stack.Connect(t, w.Endpoint(0, 9), stacks.Options{})
		if err != nil {
			st.fail(fmt.Sprintf("connect: %v", err))
			return
		}
		st.mu.Lock()
		st.cConn = c
		st.mu.Unlock()
		sent := 0
		for sent < transferSize {
			n, err := c.Write(t, data[sent:])
			if err != nil {
				st.fail(fmt.Sprintf("sender write: %v", err))
				return
			}
			sent += n
		}
	})
	w.RunUntil(30*time.Minute, func() bool {
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.done
	})

	st.mu.Lock()
	defer st.mu.Unlock()
	fmt.Fprintf(stdout, "transferred %d/%d bytes in %v of virtual time\n",
		len(st.got), transferSize, w.Now().Round(time.Millisecond))

	code := 0
	if st.failure != "" {
		fmt.Fprintln(stdout, "failure:", st.failure)
		code = 1
	}
	if !st.done {
		fmt.Fprintln(stdout, "failure: transfer did not complete within the virtual-time budget")
		code = 1
	}
	if bytes.Equal(st.got, data) {
		fmt.Fprintln(stdout, "integrity: byte-for-byte intact")
	} else {
		fmt.Fprintln(stdout, "integrity: CORRUPTED — protocol failure!")
		code = 1
	}

	ws := w.Seg.Stats()
	fmt.Fprintf(stdout, "\nwire:   %d frames sent, %d dropped, %d corrupted, %d duplicated, %d reordered\n",
		ws.Sent, ws.Dropped, ws.Corrupted, ws.Duplicated, ws.Reordered)
	if st.cConn != nil {
		cs := st.cConn.Stats()
		fmt.Fprintf(stdout, "sender: %d segments, %d timeout retransmissions, %d tail loss probes, %d fast retransmissions, %d dup-acks seen\n",
			cs.SegsSent, cs.Rexmits, cs.TailProbes, cs.FastRexmits, cs.DupAcksRcvd)
	}
	if st.sConn != nil {
		ss := st.sConn.Stats()
		fmt.Fprintf(stdout, "receiver: %d segments received, %d out-of-order arrivals queued for reassembly\n",
			ss.SegsRcvd, ss.OutOfOrder)
	}
	return code
}
