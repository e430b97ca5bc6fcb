package netio

import (
	"testing"
	"time"

	"ulp/internal/costs"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/pkt"
)

// bellRig is one host's module with channels fed by Inject, so the only work
// its CPU does is what the semaphore posts charge.
type bellRig struct {
	w    *world
	bell Doorbell
	// asleep marks that the consumer is blocked in the doorbell's Wait; got
	// names, per frame it drained, the channel the frame came from.
	asleep bool
	got    []*Channel
}

func newBellRig(t *testing.T) *bellRig {
	r := &bellRig{w: newWorld(t, false)}
	r.bell.Init(r.w.h2)
	return r
}

// channel creates a channel on local port port, attached to nothing.
func (r *bellRig) channel(t *testing.T, port uint16) *Channel {
	t.Helper()
	spec, tmpl := chanSpecAndTemplate(r.w, link.EthHeaderLen)
	spec.LocalPort, tmpl.LocalPort = port, port
	_, ch, err := r.w.m2.CreateChannel(r.w.krn2, spec, tmpl, 8)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// consume spawns the doorbell's consumer: it sleeps on the doorbell and
// drains every channel that rang, as a library's input thread does.
func (r *bellRig) consume() {
	r.w.app2.Spawn("consumer", func(th *kern.Thread) {
		for {
			r.asleep = true
			r.bell.Wait(th)
			r.asleep = false
			for ch := r.bell.Next(); ch != nil; ch = r.bell.Next() {
				for _, b := range ch.TryRecv() {
					r.got = append(r.got, ch)
					b.Release()
				}
			}
		}
	})
	r.w.s.Run(0)
}

// post delivers one frame into ch, as the kernel path does, and runs the
// world until the post has been charged.
func (r *bellRig) post(ch *Channel) {
	ch.Inject(pkt.FromBytes(0, []byte("x")))
	r.w.s.Run(0)
}

// check holds the host's semaphore counters and CPU time to the posts made.
func (r *bellRig) check(t *testing.T, what string, wakeups, signals int64) {
	t.Helper()
	got := map[string]int64{}
	r.w.h2.Describe(func(k string, v int64) { got[k] = v })
	c := costs.Default()
	busy := time.Duration(wakeups)*c.KernelWakeup + time.Duration(signals)*c.SemSignal
	if got["wakeups"] != wakeups || got["signals"] != signals || r.w.h2.CPU.Busy() != busy {
		t.Fatalf("%s: %d wakeups, %d signals, cpu %v; want %d, %d, %v",
			what, got["wakeups"], got["signals"], r.w.h2.CPU.Busy(), wakeups, signals, busy)
	}
}

// The wakeup cost rule: a post that makes a sleeping consumer runnable costs
// KernelWakeup, every other post SemSignal, and a channel joins a doorbell's
// list at most once between drains.
func TestDoorbellCostRule(t *testing.T) {
	t.Run("unattached", func(t *testing.T) {
		// Rung before any consumer attached it: each post is a signal.
		r := newBellRig(t)
		ch := r.channel(t, 80)
		r.post(ch)
		r.check(t, "first post", 0, 1)
		for _, b := range ch.TryRecv() {
			b.Release()
		}
		r.post(ch)
		r.check(t, "second post", 0, 2)
	})
	t.Run("attach-wakes-sleeper", func(t *testing.T) {
		// Frames that arrived before Attach reach a sleeping consumer for
		// one wakeup.
		r := newBellRig(t)
		r.consume()
		ch := r.channel(t, 80)
		r.post(ch)
		r.post(ch)
		r.check(t, "before attach", 0, 1)
		ch.Attach(&r.bell, nil)
		r.w.s.Run(0)
		r.check(t, "after attach", 1, 1)
		if len(r.got) != 2 || !r.asleep {
			t.Fatalf("consumer drained %d frames (asleep %v), want the 2 posted before Attach", len(r.got), r.asleep)
		}
	})
	t.Run("attach-to-awake", func(t *testing.T) {
		// A consumer not asleep finds the channel on its list by itself.
		r := newBellRig(t)
		ch := r.channel(t, 80)
		r.post(ch)
		ch.Attach(&r.bell, nil)
		r.w.s.Run(0)
		r.check(t, "after attach", 0, 1)
		r.consume()
		r.check(t, "after drain", 0, 1)
		if len(r.got) != 1 || !r.asleep {
			t.Fatalf("consumer drained %d frames (asleep %v), want 1", len(r.got), r.asleep)
		}
	})
	t.Run("second-channel", func(t *testing.T) {
		// The first channel's post wakes the consumer; the second joins
		// the list before it runs and only signals.
		r := newBellRig(t)
		r.consume()
		ch1, ch2 := r.channel(t, 80), r.channel(t, 81)
		ch1.Attach(&r.bell, nil)
		ch2.Attach(&r.bell, nil)
		ch2.Inject(pkt.FromBytes(0, []byte("x")))
		ch1.Inject(pkt.FromBytes(0, []byte("x")))
		r.w.s.Run(0)
		r.check(t, "two channels", 1, 1)
		if len(r.got) != 2 || r.got[0] != ch2 || r.got[1] != ch1 {
			t.Fatalf("consumer served %v, want ch2 then ch1", r.got)
		}
	})
	t.Run("reattach-keeps-place", func(t *testing.T) {
		// A channel on the list attached again to the same doorbell, as a
		// connection compacted for TIME_WAIT is, changes owner in place:
		// no post, and it is served in its turn.
		r := newBellRig(t)
		r.consume()
		ch1, ch2 := r.channel(t, 80), r.channel(t, 81)
		ch1.Attach(&r.bell, nil)
		ch2.Attach(&r.bell, nil)
		ch1.Inject(pkt.FromBytes(0, []byte("x")))
		ch2.Inject(pkt.FromBytes(0, []byte("x")))
		ch1.Attach(&r.bell, "compacted")
		r.w.s.Run(0)
		r.check(t, "two channels", 1, 1)
		if len(r.got) != 2 || r.got[0] != ch1 || r.got[1] != ch2 || ch1.Owner() != "compacted" {
			t.Fatalf("consumer served %v, owner %v; want ch1 then ch2, the new owner", r.got, ch1.Owner())
		}
	})
	t.Run("disowned", func(t *testing.T) {
		// A disowned channel's frames wake nobody.
		r := newBellRig(t)
		r.consume()
		ch := r.channel(t, 80)
		ch.Attach(&r.bell, nil)
		ch.Disown()
		r.post(ch)
		r.check(t, "after disown", 0, 1)
		if len(r.got) != 0 || !r.asleep || ch.Pending() != 1 {
			t.Fatalf("disowned channel's frame reached the consumer: got %d, asleep %v, pending %d",
				len(r.got), r.asleep, ch.Pending())
		}
	})
}
