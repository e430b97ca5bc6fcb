// Package stats is a small registry of per-layer metric providers with
// namespaces ("wire", "netdev.h0", "netio.h0", "registry.h0", "pkt",
// "checksum", "sim"). It exists so ulbench and the examples can print
// Table-style per-layer breakdowns — checksum bytes, copies, demux
// decisions, notifications batched — without every layer growing its own
// ad-hoc dump.
//
// Every layer keeps plain integers under its own serialization and
// describes them in one method of the provider shape, polled only at
// Snapshot time, so hot paths never touch the registry. A nil *Registry accepts
// registrations and snapshots to nil, so layers can wire stats
// unconditionally.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Registry maps "namespace.name" keys to polled providers. Registration
// takes a mutex.
type Registry struct {
	mu        sync.Mutex
	providers []provider
}

type provider struct {
	ns string
	fn func(emit func(name string, v int64))
}

// New creates an empty registry.
func New() *Registry { return &Registry{} }

// RegisterFunc registers a provider polled at Snapshot time. The provider
// calls emit once per metric with the bare name (the registry prefixes the
// namespace).
func (r *Registry) RegisterFunc(ns string, fn func(emit func(name string, v int64))) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.providers = append(r.providers, provider{ns: ns, fn: fn})
}

// Snapshot returns all metrics as a flat "ns.name" → value map, polling
// providers as of now.
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	provs := make([]provider, len(r.providers))
	copy(provs, r.providers)
	r.mu.Unlock()
	out := make(map[string]int64)
	for _, p := range provs {
		ns := p.ns
		p.fn(func(name string, v int64) {
			out[ns+"."+name] = v
		})
	}
	return out
}

// Render formats a snapshot as sorted "ns.name value" lines, one metric
// per line — deterministic, so reports diff cleanly.
func (r *Registry) Render() string {
	snap := r.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%-40s %d\n", k, snap[k])
	}
	return b.String()
}
