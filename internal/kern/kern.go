// Package kern simulates the operating-system substrate the paper's three
// protocol organizations run on: hosts with a single CPU, address-space
// domains, threads, traps, Mach-style message ports, lightweight semaphores
// with kernel-mediated wakeups, and shared-memory regions.
//
// The kernel charges the *structural* costs — traps, context switches, IPC,
// wakeups — to the host CPU using the calibrated cost model; protocol
// processing costs are charged by the organization shells. This split is
// what lets the three organizations run identical protocol code and differ
// only in structure, mirroring the paper's methodology.
package kern

import (
	"fmt"
	"time"

	"ulp/internal/costs"
	"ulp/internal/freelist"
	"ulp/internal/sim"
)

// Host is one simulated workstation (a DECstation 5000/200 in the paper's
// configuration).
type Host struct {
	S    *sim.Sim
	Name string
	CPU  *sim.Resource
	Cost costs.Model

	ndomains int // domains created, which numbers them (Domain.Index)
	// wakeups and signals count semaphore posts by what they cost: a wakeup
	// made a blocked thread runnable, a signal found nobody to wake (Sem.V,
	// Domain.Notify).
	wakeups, signals int64
	// sends holds the records of SendAsync messages that have been pushed.
	sends freelist.List[*asyncSend]
}

// NewHost creates a host with the given cost model.
func NewHost(s *sim.Sim, name string, model costs.Model) *Host {
	return &Host{S: s, Name: name, CPU: s.NewResource(name + ".cpu"), Cost: model}
}

// Describe emits the host's kernel counters under their stats names.
func (h *Host) Describe(emit func(string, int64)) {
	emit("wakeups", h.wakeups)
	emit("signals", h.signals)
}

// NewDomain creates an address space on the host. Privileged domains model
// the kernel and trusted servers (the registry).
func (h *Host) NewDomain(name string, privileged bool) *Domain {
	h.ndomains++
	return &Domain{Host: h, Name: name, Privileged: privileged, index: h.ndomains - 1}
}

// ComputeAsync charges d of CPU from event context (interrupt level) and
// runs fn when the CPU work completes.
func (h *Host) ComputeAsync(d time.Duration, fn func()) {
	h.CPU.UseAsync(d, fn)
}

// ComputeAsyncArg is ComputeAsync for an argument-carrying callback, which
// costs no closure: fn is a static function, arg what it works on.
func (h *Host) ComputeAsyncArg(d time.Duration, fn func(any), arg any) {
	h.CPU.UseAsyncArg(d, fn, arg)
}

// NewCPU adds an auxiliary processing resource to the host — a core a
// pinned domain computes on instead of the main CPU (multiprocessor hosts;
// the sharded control plane runs one registry shard per core).
func (h *Host) NewCPU(name string) *sim.Resource {
	return h.S.NewResource(h.Name + "." + name)
}

// Domain is an address space: the kernel, a server, or an application.
type Domain struct {
	Host       *Host
	Name       string
	Privileged bool

	index int // Index
	// threads lists the live threads in spawn order (Kill walks it); a
	// thread unlinks itself when its function returns, so a domain that
	// spawns a thread per connection holds only the connections still open.
	threads    threadList
	dead       bool
	diedAt     sim.Time // the instant Kill ran
	deathHooks []func()
	cpu        *sim.Resource // non-nil: threads compute here, not Host.CPU
}

// PinCPU dedicates a processing resource to the domain: every Compute by
// the domain's threads charges this resource instead of the host's main
// CPU, so pinned domains on one host run their work in parallel. Costs
// charged by other domains on the same host are unaffected.
func (d *Domain) PinCPU(cpu *sim.Resource) { d.cpu = cpu }

// CPU returns the resource the domain's threads compute on.
func (d *Domain) CPU() *sim.Resource {
	if d.cpu != nil {
		return d.cpu
	}
	return d.Host.CPU
}

// ComputeAsync charges dur of CPU on the domain's compute resource from
// event context (the pinned-core analogue of Host.ComputeAsync).
func (d *Domain) ComputeAsync(dur time.Duration, fn func()) {
	d.CPU().UseAsync(dur, fn)
}

// Notify charges and counts, from event context, one post to a thread of
// the domain that is fed through a queue, by Sem.V's rule: KernelWakeup on
// the domain's compute resource if the thread is asleep on the queue and
// must be made runnable, else SemSignal, since the running thread will find
// the work before it sleeps again.
func (d *Domain) Notify(asleep bool) {
	h := d.Host
	if asleep {
		h.wakeups++
		d.ComputeAsync(h.Cost.KernelWakeup, nil)
		return
	}
	h.signals++
	d.ComputeAsync(h.Cost.SemSignal, nil)
}

func (d *Domain) String() string { return d.Host.Name + "/" + d.Name }

// Index numbers the domain on its host, in creation order.
func (d *Domain) Index() int { return d.index }

// Thread is a simulated thread of control bound to a domain.
type Thread struct {
	*sim.Proc
	Dom *Domain

	prev, next *Thread // Dom.threads
}

// threadList is an intrusive doubly-linked list: append at the tail and
// unlink anywhere in O(1), order kept.
type threadList struct {
	head, tail *Thread
	n          int
}

func (l *threadList) push(t *Thread) {
	t.prev = l.tail
	if l.tail != nil {
		l.tail.next = t
	} else {
		l.head = t
	}
	l.tail = t
	l.n++
}

func (l *threadList) unlink(t *Thread) {
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		l.head = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	} else {
		l.tail = t.prev
	}
	t.prev, t.next = nil, nil
	l.n--
}

// Spawn starts a thread in the domain. Spawning into a dead (crashed)
// domain returns a thread that never runs, as the address space is gone.
func (d *Domain) Spawn(name string, fn func(t *Thread)) *Thread {
	return d.SpawnAfter(0, name, fn)
}

// Name returns the thread's qualified name, "host/domain.name". It is
// composed on demand: the proc underneath carries only the short name, so
// spawning a thread builds no string.
func (t *Thread) Name() string { return t.Dom.String() + "." + t.Proc.Name() }

// SpawnAfter starts a thread in the domain after a delay.
func (d *Domain) SpawnAfter(delay time.Duration, name string, fn func(t *Thread)) *Thread {
	t := &Thread{Dom: d}
	t.Proc = d.Host.S.SpawnAfter(delay, name, func(p *sim.Proc) {
		// Deferred, so that a thread killed on its own leaves the list too.
		// Kill only marks its victims, so this never runs under Kill's walk.
		defer d.threads.unlink(t)
		if d.dead {
			return
		}
		fn(t)
	})
	d.threads.push(t)
	if d.dead {
		d.Host.S.Kill(t.Proc)
	}
	return t
}

// OnDeath registers a hook invoked when the domain is killed. The kernel
// uses this to notify trusted servers (the registry, the network I/O
// module) that an application crashed so its resources can be reclaimed.
// Hooks run in the kill context, after every thread has been torn down; a
// hook registered on an already-dead domain runs immediately, so observers
// cannot miss the death by racing with it.
func (d *Domain) OnDeath(fn func()) {
	if d.dead {
		fn()
		return
	}
	d.deathHooks = append(d.deathHooks, fn)
}

// Kill crashes the domain abruptly: every thread is torn down at its
// current blocking point without running any exit path, and the domain's
// death hooks fire. This models an application that segfaults or is killed
// — nothing the domain's code would have done on orderly exit happens.
// Killing an already-dead domain is a no-op.
func (d *Domain) Kill() {
	if d.dead {
		return
	}
	d.dead, d.diedAt = true, d.Host.S.Now()
	for t := d.threads.head; t != nil; t = t.next {
		d.Host.S.Kill(t.Proc)
	}
	for _, fn := range d.deathHooks {
		fn()
	}
}

// Dead reports whether the domain has been killed.
func (d *Domain) Dead() bool { return d.dead }

// DiedAt returns the instant the domain was killed; meaningful once Dead.
func (d *Domain) DiedAt() sim.Time { return d.diedAt }

// Threads counts the domain's live threads.
func (d *Domain) Threads() int { return d.threads.n }

// Compute charges d of CPU time on behalf of the thread — to the host CPU,
// or to the domain's pinned core if one was dedicated — blocking through
// any queueing delay.
func (t *Thread) Compute(d time.Duration) {
	t.Dom.CPU().Use(t.Proc, d)
}

// Cost returns the host's cost model.
func (t *Thread) Cost() *costs.Model { return &t.Dom.Host.Cost }

// Trap charges a general-purpose system-call trap (used by the monolithic
// organizations' socket calls).
func (t *Thread) Trap() { t.Compute(t.Cost().SyscallTrap) }

// FastTrap charges the specialized kernel entry used by the library's send
// path.
func (t *Thread) FastTrap() { t.Compute(t.Cost().FastTrap) }

// Sem is a lightweight semaphore with kernel-mediated wakeups: V pays only
// SemSignal when nobody needs waking across domains, and KernelWakeup when
// it must make a blocked user thread runnable (signal + scheduler pass +
// switch into the target address space). This matches the paper's
// "lightweight semaphore that a library thread is waiting on" notification
// path, including the observation that batching packets per notification
// amortizes the signalling cost.
type Sem struct {
	host *Host
	sem  sim.Semaphore
	// posting counts kernel wakeups on their way: posts that found a waiter
	// and reach the semaphore once the CPU has done the wakeup's work.
	posting int
}

// NewSem creates a semaphore owned by (delivering wakeups on) host h.
func NewSem(h *Host, name string, initial int) *Sem {
	m := new(Sem)
	m.Init(h, name, initial)
	return m
}

// Init makes m a fresh semaphore in place, for one embedded in another
// record. No thread may be blocked in P and no wakeup on its way.
func (m *Sem) Init(h *Host, name string, initial int) {
	m.host, m.posting = h, 0
	m.sem.Init(h.S, name, initial)
}

// V posts the semaphore. May be called from any context; the cost is
// charged to the host CPU asynchronously.
func (m *Sem) V() {
	if m.sem.Waiters() > 0 {
		m.host.wakeups++
		m.posting++
		m.host.ComputeAsyncArg(m.host.Cost.KernelWakeup, semPost, m)
		return
	}
	m.Signal()
	m.sem.V()
}

// Signal charges and counts a post that wakes nobody, without posting: one
// that joins an earlier post whose thread is running or already being woken
// and will see this one's work too.
func (m *Sem) Signal() {
	m.host.signals++
	m.host.ComputeAsync(m.host.Cost.SemSignal, nil)
}

// Sleeping reports whether a thread is blocked in P that no wakeup on its way
// will reach.
func (m *Sem) Sleeping() bool { return m.sem.Waiters() > m.posting }

func semPost(a any) {
	m := a.(*Sem)
	m.posting--
	m.sem.V()
}

// P blocks the thread until the semaphore is posted.
func (m *Sem) P(t *Thread) { m.sem.P(t.Proc) }

// Region is a memory region shared between domains (e.g. the packet buffer
// area the network I/O module shares with a protocol library). The region
// is wired (pinned) while a connection uses it, as in the paper. Access
// control is by possession of the *Region, mirroring capability possession.
type Region struct {
	Buf    []byte
	pinned bool
}

// Wire makes r a wired, zeroed region of size bytes in place — for a region
// embedded in a record that is reused — on its old backing array if that is
// large enough.
func (r *Region) Wire(size int) {
	if cap(r.Buf) < size {
		r.Buf = make([]byte, size)
	}
	r.Buf = r.Buf[:size]
	clear(r.Buf)
	r.pinned = true
}

// Unpin releases the wiring when the owning connection is torn down — on
// orderly teardown or when the kernel reclaims a crashed application's
// resources. Pinned regions are what a leaked crash would wire forever.
func (r *Region) Unpin() { r.pinned = false }

// Pinned reports whether the region is still wired.
func (r *Region) Pinned() bool { return r.pinned }

// Msg is a Mach-style message.
type Msg struct {
	// Op names the operation for dispatch.
	Op string
	// Body carries the payload object (simulation-side; Size below is what
	// is charged for the copy through the kernel).
	Body any
	// Size is the number of bytes of in-line data the message carries.
	Size int
	// Reply, when non-nil, is the port the receiver should respond on.
	Reply *Port
	// From is the sending domain: every send writes it, over whatever the
	// sender wrote, so a server names its callers by From.
	From *Domain
	// ID, when nonzero, identifies a request that may be retried (one with a
	// Reply port) across its retries so a server can deduplicate: a retry
	// whose original reply was lost carries the same ID, and the server
	// replays the cached outcome instead of executing the operation twice.
	// Only the IDs of one caller, From's call slot Slot, are compared.
	ID, Slot uint32
}

// Port is a Mach-style message port: a kernel-protected queue with send and
// receive rights. Sends charge the one-way IPC cost plus in-line data copy;
// the receiver side charges the context switch upon wakeup (modelled at
// send time for simplicity, as the costs are serial on one CPU).
type Port struct {
	host *Host
	name string
	q    sim.Queue[Msg]
}

// NewPort creates a port on host h.
func NewPort(h *Host, name string) *Port {
	p := &Port{host: h, name: name}
	p.q.Init(h.S)
	return p
}

// Send transmits m to the port from thread t, charging one-way IPC cost,
// in-line data copy, and the context switch into the receiving domain.
func (p *Port) Send(t *Thread, m Msg) {
	c := t.Cost()
	t.Compute(c.MachIPCSend + c.Copy(m.Size) + c.ContextSwitch)
	m.From = t.Dom
	p.q.Push(m)
}

// SendAsync posts for domain from, from event context (e.g. a kernel-side
// completion, or a library's teardown from its engine), charging costs
// asynchronously. The message waits for the CPU in a record from the
// host's list, which deliverAsync gives back as it pushes.
func (p *Port) SendAsync(from *Domain, m Msg) {
	c := &p.host.Cost
	as := p.host.sends.Get()
	if as == nil {
		as = new(asyncSend)
	}
	m.From = from
	as.p, as.m = p, m
	p.host.ComputeAsyncArg(c.MachIPCSend+c.Copy(m.Size), deliverAsync, as)
}

// asyncSend is a SendAsync message and its port while the send's CPU time
// runs.
type asyncSend struct {
	p *Port
	m Msg
}

// Scrub drops the port and the message.
func (as *asyncSend) Scrub() { *as = asyncSend{} }

func deliverAsync(a any) {
	as := a.(*asyncSend)
	p, m := as.p, as.m
	p.host.sends.Put(as)
	p.q.Push(m)
}

// Scrub readies a port for reuse by the thread that received on it. Only a
// port nothing will send to again may be reused — a reply port whose one
// answer has been received — so one with a message queued is a bug.
func (p *Port) Scrub() {
	if p.q.Len() != 0 {
		panic("kern: port " + p.name + " reused with a message queued")
	}
}

// Receive blocks until a message arrives.
func (p *Port) Receive(t *Thread) Msg {
	return p.q.Pop(t.Proc)
}

// Call performs an RPC: send m, then block for the reply on a private
// reply port. The reply path charges the return IPC and switch.
func (p *Port) Call(t *Thread, m Msg) Msg {
	reply := NewPort(t.Dom.Host, "reply") // made per call, so no name is composed for it
	m.Reply = reply
	p.Send(t, m)
	r := reply.Receive(t)
	c := t.Cost()
	t.Compute(c.MachIPCSend + c.Copy(r.Size) + c.ContextSwitch)
	return r
}

// ReceiveTimeout blocks for a message at most d of virtual time, reporting
// false if none arrived. On success it charges the receive-side IPC costs,
// like Call's reply path — a caller waiting on a reply port of its own under
// a deadline (a library's control call) pays what a plain Call would have.
func (p *Port) ReceiveTimeout(t *Thread, d time.Duration) (Msg, bool) {
	r, ok := p.q.PopTimeout(t.Proc, d)
	if !ok {
		return Msg{}, false
	}
	c := t.Cost()
	t.Compute(c.MachIPCSend + c.Copy(r.Size) + c.ContextSwitch)
	return r, true
}

// Reply responds to a received message carrying a reply port.
func (m Msg) ReplyTo(t *Thread, r Msg) {
	if m.Reply == nil {
		panic(fmt.Sprintf("kern: %s replied to one-way message %q", t.Name(), m.Op))
	}
	// The responder pays the send; the caller pays the receive-side costs
	// in Call.
	r.From = t.Dom
	m.Reply.q.Push(r)
}
