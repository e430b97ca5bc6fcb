// Command ultrace runs a scenario under any protocol organization and
// prints a tcpdump-style trace of every frame on the wire — link, IP and
// TCP/UDP/ARP headers decoded — so the handshake choreography (including
// the AN1 BQI exchange through the link header) can be read directly.
//
// Usage:
//
//	ultrace                      # userlib on Ethernet, echo scenario
//	ultrace -org inkernel -net an1
//	ultrace -loss 0.1            # watch retransmission machinery engage
//	ultrace -pcap out.pcap       # also write frames as a capture file
//	                             # readable by tcpdump/wireshark (Ethernet
//	                             # scenarios decode fully; AN1 uses DLT_USER0)
//	ultrace -conform             # check the run against the RFC 793 state
//	                             # machine; non-zero exit on any violation
//
// The exit status is 1 when the echo fails to connect or to finish within
// five virtual minutes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"ulp"
	"ulp/internal/arp"
	"ulp/internal/conform"
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/pkt"
	"ulp/internal/stacks"
	"ulp/internal/tcp"
	"ulp/internal/trace"
	"ulp/internal/udp"
	"ulp/internal/wire"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is the whole command: it parses args, writes the trace to stdout and
// returns the exit status.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("ultrace", flag.ContinueOnError)
	orgName := fs.String("org", "userlib", "organization: userlib | inkernel | singleserver")
	netName := fs.String("net", "ethernet", "network: ethernet | an1 | an1-64k")
	loss := fs.Float64("loss", 0, "wire loss probability")
	bytes := fs.Int("bytes", 3000, "payload bytes to echo")
	pcapPath := fs.String("pcap", "", "write every transmitted frame to this pcap file")
	conformFlag := fs.Bool("conform", false, "check the trace against the RFC 793 state machine; exit 1 on violations")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := ulp.Config{}
	switch *orgName {
	case "userlib":
		cfg.Org = ulp.OrgUserLib
	case "inkernel":
		cfg.Org = ulp.OrgInKernel
	case "singleserver":
		cfg.Org = ulp.OrgSingleServer
	default:
		fmt.Fprintln(stdout, "unknown organization", *orgName)
		return 2
	}
	switch *netName {
	case "ethernet":
		cfg.Net = ulp.Ethernet
	case "an1":
		cfg.Net = ulp.AN1
	case "an1-64k":
		cfg.Net = ulp.AN1Jumbo
	default:
		fmt.Fprintln(stdout, "unknown network", *netName)
		return 2
	}
	if *loss > 0 {
		cfg.Conditions = &wire.LinkConditions{Seed: 1, LossProb: *loss}
	}

	w := ulp.NewWorld(cfg)
	var checker *conform.Checker
	if *conformFlag {
		checker = w.EnableConformance()
	}
	an1 := cfg.Net != ulp.Ethernet
	w.TraceFrames(func(at time.Duration, frame *pkt.Buf) {
		fmt.Fprintf(stdout, "%12v  %s\n", at, renderFrame(frame, an1))
	})

	if *pcapPath != "" {
		f, err := os.Create(*pcapPath)
		if err != nil {
			fmt.Fprintln(stdout, "pcap:", err)
			return 1
		}
		defer f.Close()
		linkType := trace.LinkTypeEthernet
		if an1 {
			linkType = trace.LinkTypeUser0
		}
		pw, err := trace.NewPcapWriter(f, linkType)
		if err != nil {
			fmt.Fprintln(stdout, "pcap:", err)
			return 1
		}
		w.EnableTrace().Subscribe(func(e trace.Event) {
			if e.Kind == trace.FrameTx {
				pw.WritePacket(e.At, e.Frame)
			}
		})
	}

	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	const budget = 5 * time.Minute
	done := false
	var failure error
	srv.Go("srv", func(t *kern.Thread) {
		l, err := srv.Stack.Listen(t, 80, stacks.Options{})
		if err != nil {
			return
		}
		c, err := l.Accept(t)
		if err != nil {
			return
		}
		buf := make([]byte, 65536)
		for {
			n, _ := c.Read(t, buf)
			if n == 0 {
				c.Close(t)
				return
			}
			c.Write(t, buf[:n])
		}
	})
	cli.GoAfter(time.Millisecond, "cli", func(t *kern.Thread) {
		defer func() { done = true }()
		c, err := cli.Stack.Connect(t, w.Endpoint(0, 80), stacks.Options{})
		if err != nil {
			failure = fmt.Errorf("connect: %w", err)
			return
		}
		payload := make([]byte, *bytes)
		c.Write(t, payload)
		got := 0
		buf := make([]byte, 65536)
		for got < *bytes {
			n, err := c.Read(t, buf)
			if err != nil || n == 0 {
				failure = fmt.Errorf("echo ended after %d of %d bytes: %v", got, *bytes, err)
				return
			}
			got += n
		}
		c.Close(t)
	})
	w.RunUntil(budget, func() bool { return done })
	w.Run(100 * time.Millisecond) // drain the close exchange
	if !done {
		failure = fmt.Errorf("echo did not finish within %v", budget)
	}
	if failure != nil {
		fmt.Fprintln(stdout, "echo failed:", failure)
		return 1
	}

	if checker != nil {
		cov := checker.Coverage()
		fmt.Fprintf(stdout, "conformance: %d violations, %d/%d legal transition edges exercised\n",
			checker.Reported(), cov.Count(), cov.Total())
		for _, v := range checker.Violations() {
			fmt.Fprintln(stdout, "  ", v)
		}
		if n := checker.Reported() - len(checker.Violations()); n > 0 {
			fmt.Fprintf(stdout, "   and %d more\n", n)
		}
		if checker.Reported() > 0 {
			return 1
		}
	}
	return 0
}

// renderFrame decodes one frame for display.
func renderFrame(b *pkt.Buf, an1 bool) string {
	f := b.Clone()
	var et link.EtherType
	prefix := ""
	if an1 {
		h, err := link.DecodeAN1(f)
		if err != nil {
			return "malformed AN1 frame"
		}
		et = h.Type
		prefix = fmt.Sprintf("%v > %v bqi=%d", h.Src, h.Dst, h.BQI)
		if h.AdvBQI != 0 {
			prefix += fmt.Sprintf(" adv-bqi=%d", h.AdvBQI)
		}
	} else {
		h, err := link.DecodeEth(f)
		if err != nil {
			return "malformed Ethernet frame"
		}
		et = h.Type
		prefix = fmt.Sprintf("%v > %v", h.Src, h.Dst)
	}
	switch et {
	case link.TypeARP:
		p, err := arp.Decode(f)
		if err != nil {
			return prefix + " malformed ARP"
		}
		if p.Op == arp.OpRequest {
			return fmt.Sprintf("%s ARP who-has %v tell %v", prefix, p.TargetIP, p.SenderIP)
		}
		return fmt.Sprintf("%s ARP reply %v is-at %v", prefix, p.SenderIP, p.SenderHW)
	case link.TypeIPv4:
		ih, err := ipv4.Decode(f)
		if err != nil {
			return prefix + " malformed IP"
		}
		switch ih.Proto {
		case ipv4.ProtoTCP:
			th, err := tcp.Decode(f, ih.Src, ih.Dst)
			if err != nil {
				return fmt.Sprintf("%s %v > %v TCP [bad checksum]", prefix, ih.Src, ih.Dst)
			}
			extra := ""
			if th.MSS != 0 {
				extra = fmt.Sprintf(" mss=%d", th.MSS)
			}
			if n := f.Len(); n > 0 {
				extra += fmt.Sprintf(" len=%d", n)
			}
			return fmt.Sprintf("%s %v:%d > %v:%d %s%s", prefix, ih.Src, th.SrcPort, ih.Dst, th.DstPort, th, extra)
		case ipv4.ProtoUDP:
			uh, err := udp.Decode(f, ih.Src, ih.Dst)
			if err != nil {
				return fmt.Sprintf("%s %v > %v UDP [bad checksum]", prefix, ih.Src, ih.Dst)
			}
			return fmt.Sprintf("%s %v:%d > %v:%d UDP len=%d", prefix, ih.Src, uh.SrcPort, ih.Dst, uh.DstPort, f.Len())
		}
		return fmt.Sprintf("%s %s", prefix, ih)
	case link.TypeRaw:
		return fmt.Sprintf("%s RAW len=%d", prefix, f.Len())
	}
	return fmt.Sprintf("%s ethertype %#04x len=%d", prefix, uint16(et), f.Len())
}
