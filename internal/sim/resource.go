package sim

// Resource models a serially reusable processor (a host CPU) as a busy-until
// horizon. Work is reserved in FIFO order: a request that arrives while the
// resource is busy is served when the horizon is reached, so queueing delay
// emerges naturally under load. Preemption is not modelled; interrupt-level
// work reserves ahead of not-yet-issued thread work simply by being issued
// first, which is the dominant effect on a uniprocessor.
type Resource struct {
	s      *Sim
	name   string
	freeAt Time
	busy   Dur // statistics: total reserved time
}

// NewResource creates an idle resource.
func (s *Sim) NewResource(name string) *Resource {
	return &Resource{s: s, name: name}
}

// Use charges d of compute to the resource on behalf of proc p, blocking p
// for any queueing delay plus d. A zero or negative d is a no-op.
func (r *Resource) Use(p *Proc, d Dur) {
	if d <= 0 {
		return
	}
	start := r.s.now
	if r.freeAt > start {
		start = r.freeAt
	}
	r.freeAt = start.Add(d)
	r.busy += d
	p.SleepUntil(r.freeAt)
}

// UseAsync reserves d of compute from event context (e.g. an interrupt
// handler) and schedules fn at the completion time. fn may be nil.
func (r *Resource) UseAsync(d Dur, fn func()) {
	if d < 0 {
		d = 0
	}
	start := r.s.now
	if r.freeAt > start {
		start = r.freeAt
	}
	r.freeAt = start.Add(d)
	r.busy += d
	if fn != nil {
		r.s.At(r.freeAt, fn)
	}
}

// UseAsyncArg is UseAsync with an argument-carrying callback: fn is
// typically a static function and arg a pooled object, so reserving compute
// on the packet hot path allocates nothing.
func (r *Resource) UseAsyncArg(d Dur, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	start := r.s.now
	if r.freeAt > start {
		start = r.freeAt
	}
	r.freeAt = start.Add(d)
	r.busy += d
	if fn != nil {
		r.s.AtArg(r.freeAt, fn, arg)
	}
}

// Busy returns the cumulative reserved time, for utilization reporting.
func (r *Resource) Busy() Dur { return r.busy }
