package lease

import (
	"testing"
	"time"
)

// clock is a manually advanced virtual clock.
type clock struct{ at time.Duration }

func (c *clock) now() time.Duration { return c.at }

func TestGrantRenewExpire(t *testing.T) {
	c := &clock{}
	tb := NewTable(c.now, 100*time.Millisecond)

	tb.Grant(7)
	if tb.Expired(7) {
		t.Fatal("fresh lease already expired")
	}
	c.at = 99 * time.Millisecond
	if tb.Expired(7) {
		t.Fatal("lease expired before ttl")
	}
	c.at = 100 * time.Millisecond
	if !tb.Expired(7) {
		t.Fatal("lease not expired at ttl")
	}

	// An expired lease can still be renewed (quarantine is a suspension).
	if !tb.Renew(7) {
		t.Fatal("renew of known id failed")
	}
	if tb.Expired(7) {
		t.Fatal("renewed lease still expired")
	}
}

func TestUnknownIDNeverExpired(t *testing.T) {
	c := &clock{at: time.Hour}
	tb := NewTable(c.now, time.Millisecond)
	if tb.Expired(42) {
		t.Fatal("unknown id reported expired")
	}
	if tb.Renew(42) {
		t.Fatal("renew of unknown id succeeded")
	}
}

func TestRenewAndDrop(t *testing.T) {
	c := &clock{}
	tb := NewTable(c.now, 50*time.Millisecond)
	tb.Grant(1)
	tb.Grant(2)
	tb.Grant(3)
	tb.Drop(2)
	c.at = 40 * time.Millisecond
	if !tb.Renew(1) || !tb.Renew(3) {
		t.Fatal("renew of a live lease failed")
	}
	if tb.Renew(2) {
		t.Fatal("renew of a dropped lease succeeded")
	}
	c.at = 80 * time.Millisecond // would be past the original deadline
	if tb.Expired(1) || tb.Expired(3) {
		t.Fatal("renewed lease expired")
	}
	if tb.Expired(2) {
		t.Fatal("dropped lease reported expired")
	}
	if tb.Grants != 3 || tb.Renewals != 2 {
		t.Fatalf("counters = %d grants %d renewals, want 3/2", tb.Grants, tb.Renewals)
	}
}
