// Package lease implements time-bounded grants over capability ids, the
// mechanism that lets the in-kernel network I/O module outlive its control
// plane safely. The registry grants a lease when it installs a channel and
// renews the leases it issued on a heartbeat; if the registry dies and stays dead, the
// leases run out and the module quarantines the affected endpoints instead
// of serving a dead control plane forever. A restarted registry re-adopts
// state from the module and resumes renewing, which lifts the quarantine.
//
// The table is deliberately passive: expiry is evaluated lazily against a
// read-only virtual clock on each query, so it schedules no simulator
// events, draws no randomness, and keeps fault-free runs bit-identical.
package lease

import "time"

// Table tracks one lease per id (the module keys it by capability id).
type Table struct {
	now func() time.Duration
	ttl time.Duration
	exp map[uint64]time.Duration

	// Stats.
	Grants, Renewals int
}

// NewTable builds a table over a virtual clock. Every grant and renewal
// extends the lease to now+ttl.
func NewTable(now func() time.Duration, ttl time.Duration) *Table {
	return &Table{now: now, ttl: ttl, exp: make(map[uint64]time.Duration)}
}

// Grant starts a fresh lease for id.
func (t *Table) Grant(id uint64) {
	t.exp[id] = t.now() + t.ttl
	t.Grants++
}

// Renew extends id's lease; it reports whether the id was known. An expired
// but not yet dropped lease may be renewed — quarantine is a suspension,
// not a revocation, precisely so a late-restarting registry can recover
// endpoints whose state is still live in the module.
func (t *Table) Renew(id uint64) bool {
	if _, ok := t.exp[id]; !ok {
		return false
	}
	t.exp[id] = t.now() + t.ttl
	t.Renewals++
	return true
}

// Drop forgets id's lease (channel destroyed).
func (t *Table) Drop(id uint64) { delete(t.exp, id) }

// Expired reports whether id's lease has run out. An id the table has never
// seen is NOT expired: enforcement applies only to granted leases, so a
// module running without a lease-granting control plane (monolithic
// organizations, raw channels created before EnableLeases) is unaffected.
func (t *Table) Expired(id uint64) bool {
	e, ok := t.exp[id]
	return ok && t.now() >= e
}
