// Filetransfer: the paper's throughput-intensive workload — a bulk transfer
// of a 1 MB "file" — run under all three protocol organizations on both
// networks, with end-to-end integrity verification. This is Table 2's
// scenario as an application.
//
//	go run ./examples/filetransfer
//	go run ./examples/filetransfer -stats   # per-layer counter breakdown per run
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"time"

	"ulp"
	"ulp/internal/kern"
	"ulp/internal/stacks"
)

var statsFlag = flag.Bool("stats", false, "print the per-layer stats breakdown after each transfer")

const fileSize = 1 << 20

// makeFile builds a deterministic pseudo-file.
func makeFile() []byte {
	f := make([]byte, fileSize)
	for i := range f {
		f[i] = byte(i*2654435761 + i>>9)
	}
	return f
}

func transfer(stdout io.Writer, org ulp.Org, net ulp.Net) (mbps float64, d time.Duration, ok bool) {
	w := ulp.NewWorld(ulp.Config{Org: org, Net: net})
	file := makeFile()
	want := fnv.New64a()
	want.Write(file)

	srv := w.Node(0).App("receiver")
	cli := w.Node(1).App("sender")
	var start, end time.Duration
	got := fnv.New64a()
	received := 0
	done := false

	srv.Go("rx", func(t *kern.Thread) {
		l, err := srv.Stack.Listen(t, 2049, stacks.Options{})
		if err != nil {
			done = true
			return
		}
		c, err := l.Accept(t)
		if err != nil {
			done = true
			return
		}
		start = w.Now()
		buf := make([]byte, 65536)
		for received < fileSize {
			n, err := c.Read(t, buf)
			if err != nil || n == 0 {
				break
			}
			got.Write(buf[:n])
			received += n
		}
		end = w.Now()
		done = true
	})
	cli.GoAfter(time.Millisecond, "tx", func(t *kern.Thread) {
		c, err := cli.Stack.Connect(t, w.Endpoint(0, 2049), stacks.Options{})
		if err != nil {
			done = true
			return
		}
		sent := 0
		for sent < fileSize {
			n, err := c.Write(t, file[sent:min(sent+8192, fileSize)])
			if err != nil {
				break
			}
			sent += n
		}
		c.Close(t)
	})
	w.RunUntil(10*time.Minute, func() bool { return done })
	if *statsFlag {
		fmt.Fprintf(stdout, "\n--- %v / %v per-layer stats ---\n%s\n", org, net, w.StatsReport())
	}
	if received != fileSize || got.Sum64() != want.Sum64() {
		return 0, 0, false
	}
	d = end - start
	return float64(fileSize) * 8 / d.Seconds() / 1e6, d, true
}

func main() {
	flag.Parse()
	os.Exit(run(os.Stdout))
}

// run is the whole program; it returns 1 if a transfer arrived corrupted.
func run(stdout io.Writer) int {
	code := 0
	fmt.Fprintf(stdout, "transferring a %d KB file (FNV-checksummed end to end)\n\n", fileSize>>10)
	fmt.Fprintf(stdout, "%-14s %-12s %12s %14s %10s\n", "organization", "network", "virtual time", "throughput", "integrity")
	for _, org := range []ulp.Org{ulp.OrgInKernel, ulp.OrgSingleServer, ulp.OrgUserLib} {
		for _, net := range []ulp.Net{ulp.Ethernet, ulp.AN1, ulp.AN1Jumbo} {
			if org == ulp.OrgSingleServer && net != ulp.Ethernet {
				continue // the paper has no mapped AN1 driver for Mach/UX
			}
			mbps, d, ok := transfer(stdout, org, net)
			status := "OK"
			if !ok {
				status, code = "CORRUPT", 1
			}
			fmt.Fprintf(stdout, "%-14v %-12v %12v %11.2f Mb/s %8s\n", org, net, d.Round(time.Millisecond), mbps, status)
		}
	}
	return code
}
