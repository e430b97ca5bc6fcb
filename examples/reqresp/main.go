// Reqresp: the paper's latency-critical workload — request-response
// traffic, the kind that motivated specialized protocols "in lieu of
// existing byte-stream protocols" (§1.1). It runs a small RPC-style
// workload three ways:
//
//  1. TCP with stock options, under the user-level library;
//
//  2. TCP specialized for the application with the §5 "canned options"
//     (NoDelay — the simple form of application-specific protocol
//     generation);
//
//  3. UDP on the monolithic kernel stack, the classic request-response
//     transport the paper contrasts with byte streams.
//
//     go run ./examples/reqresp
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"ulp"
	"ulp/internal/kern"
	"ulp/internal/stacks"
	"ulp/internal/udp"
)

const ops = 25

// tcpRPC measures per-operation latency of header+body requests over TCP.
func tcpRPC(opts stacks.Options) (time.Duration, bool) {
	w := ulp.NewWorld(ulp.Config{Org: ulp.OrgUserLib, Net: ulp.Ethernet})
	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	var perOp time.Duration
	done := false
	srv.Go("srv", func(t *kern.Thread) {
		l, err := srv.Stack.Listen(t, 111, opts)
		if err != nil {
			done = true
			return
		}
		c, err := l.Accept(t)
		if err != nil {
			done = true
			return
		}
		buf := make([]byte, 64)
		for {
			got := 0
			for got < 16 {
				n, _ := c.Read(t, buf[got:16])
				if n == 0 {
					return
				}
				got += n
			}
			c.Write(t, []byte("result: 42......"))
		}
	})
	cli.GoAfter(time.Millisecond, "cli", func(t *kern.Thread) {
		c, err := cli.Stack.Connect(t, w.Endpoint(0, 111), opts)
		if err != nil {
			done = true
			return
		}
		buf := make([]byte, 64)
		start := w.Now()
		for i := 0; i < ops; i++ {
			c.Write(t, []byte("rpc-hdr|")) // marshalled header
			c.Write(t, []byte("args(7) ")) // marshalled arguments
			got := 0
			for got < 16 {
				n, _ := c.Read(t, buf[got:16])
				got += n
			}
		}
		perOp = (w.Now() - start) / ops
		done = true
	})
	w.RunUntil(time.Minute, func() bool { return done })
	return perOp, done && perOp > 0
}

// udpRPC measures the same workload over the kernel datagram service.
func udpRPC() (time.Duration, bool) {
	w := ulp.NewWorld(ulp.Config{Org: ulp.OrgInKernel, Net: ulp.Ethernet})
	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	var perOp time.Duration
	done := false
	srv.Go("srv", func(t *kern.Thread) {
		sock, err := w.Node(0).UDP().Bind(t, 111)
		if err != nil {
			done = true
			return
		}
		for {
			req := sock.Recv(t)
			sock.SendTo(t, req.From, []byte("result: 42......"))
		}
	})
	cli.GoAfter(time.Millisecond, "cli", func(t *kern.Thread) {
		sock, err := w.Node(1).UDP().Bind(t, 1111)
		if err != nil {
			done = true
			return
		}
		start := w.Now()
		for i := 0; i < ops; i++ {
			sock.SendTo(t, udp.Endpoint{IP: w.Node(0).IP, Port: 111}, []byte("rpc-hdr|args(7) "))
			sock.Recv(t)
		}
		perOp = (w.Now() - start) / ops
		sock.Close(t)
		done = true
	})
	w.RunUntil(time.Minute, func() bool { return done })
	return perOp, done && perOp > 0
}

func main() { os.Exit(run(os.Stdout)) }

// run is the whole program; it returns the exit status.
func run(stdout io.Writer) int {
	fmt.Fprintf(stdout, "request-response workload: %d RPCs of 16-byte requests/replies over the Ethernet\n\n", ops)
	if d, ok := tcpRPC(stacks.Options{}); ok {
		fmt.Fprintf(stdout, "  %-44s %10v/op\n", "TCP, stock protocol (user-level library)", d)
	}
	if d, ok := tcpRPC(stacks.Options{NoDelay: true, NoDelayedAck: true}); ok {
		fmt.Fprintf(stdout, "  %-44s %10v/op\n", "TCP, application-specific variant (NoDelay)", d)
	}
	if d, ok := udpRPC(); ok {
		fmt.Fprintf(stdout, "  %-44s %10v/op\n", "UDP request-response (in-kernel)", d)
	}
	fmt.Fprintln(stdout, "\nThe two-write requests collide with Nagle under the stock protocol;")
	fmt.Fprintln(stdout, "the specialized variant recovers request-response latency, the §5 idea.")
	return 0
}
