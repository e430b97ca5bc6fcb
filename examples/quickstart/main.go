// Quickstart: build a two-workstation world running the paper's user-level
// protocol library organization, establish a TCP connection through the
// registry server, exchange data over the shared-memory channels, and print
// what happened — including the protection and demultiplexing machinery
// working underneath.
//
//	go run ./examples/quickstart
//	go run ./examples/quickstart -stats   # per-layer counter breakdown
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"ulp"
	"ulp/internal/kern"
	"ulp/internal/stacks"
)

var stats = flag.Bool("stats", false, "print the per-layer stats breakdown after the run")

func main() {
	flag.Parse()
	os.Exit(run(os.Stdout))
}

// run is the whole program; it returns the exit status.
func run(stdout io.Writer) int {
	// Two DECstation-class hosts on a 10 Mb/s Ethernet, each running a
	// registry server and the in-kernel network I/O module.
	w := ulp.NewWorld(ulp.Config{Org: ulp.OrgUserLib, Net: ulp.Ethernet})

	server := w.Node(0).App("server")
	client := w.Node(1).App("client")

	done := false

	// The server application links the protocol library, asks its registry
	// to listen, and echoes one round.
	server.Go("server", func(t *kern.Thread) {
		l, err := server.Stack.Listen(t, 7, stacks.Options{})
		if err != nil {
			fmt.Fprintln(stdout, "listen:", err)
			return
		}
		c, err := l.Accept(t)
		if err != nil {
			fmt.Fprintln(stdout, "accept:", err)
			return
		}
		fmt.Fprintf(stdout, "[%8v] server: accepted connection, state %v\n", w.Now(), c.State())
		buf := make([]byte, 256)
		for {
			n, err := c.Read(t, buf)
			if err != nil || n == 0 {
				c.Close(t)
				return
			}
			fmt.Fprintf(stdout, "[%8v] server: echoing %q\n", w.Now(), buf[:n])
			c.Write(t, buf[:n])
		}
	})

	// The client connects — the registry performs the three-way handshake,
	// sets up the shared channel and capability, then hands the live
	// connection to the library. Data then bypasses the server entirely.
	client.GoAfter(time.Millisecond, "client", func(t *kern.Thread) {
		start := w.Now()
		c, err := client.Stack.Connect(t, w.Endpoint(0, 7), stacks.Options{})
		if err != nil {
			fmt.Fprintln(stdout, "connect:", err)
			done = true
			return
		}
		fmt.Fprintf(stdout, "[%8v] client: connected in %v (registry handshake + channel setup + state transfer)\n",
			w.Now(), w.Now()-start)

		for _, msg := range []string{"hello, user-level TCP", "the registry is bypassed now"} {
			c.Write(t, []byte(msg))
			buf := make([]byte, 256)
			total := 0
			for total < len(msg) {
				n, _ := c.Read(t, buf[total:len(msg)])
				total += n
			}
			fmt.Fprintf(stdout, "[%8v] client: echo %q\n", w.Now(), buf[:total])
		}
		st := c.Stats()
		fmt.Fprintf(stdout, "[%8v] client: closing; %d segments sent, %d received, %d timer ops\n",
			w.Now(), st.SegsSent, st.SegsRcvd, st.TimerOps)
		c.Close(t)
		done = true
	})

	w.RunUntil(time.Minute, func() bool { return done })

	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "network I/O module counters:")
	snap := w.StatsRegistry().Snapshot()
	for i := 0; i < w.Nodes(); i++ {
		ns := fmt.Sprintf("netio.h%d.", i)
		fmt.Fprintf(stdout, "  host %d: %d sends verified against templates, %d rejected; demux: %d to channels, %d to kernel default\n",
			i, snap[ns+"send_ok"], snap[ns+"send_rejected"], snap[ns+"demux_matched"], snap[ns+"demux_default"])
	}
	if *stats {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "per-layer stats:")
		fmt.Fprint(stdout, w.StatsReport())
	}
	return 0
}
