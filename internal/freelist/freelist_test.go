package freelist

import "testing"

type rec struct {
	v    int
	keep []byte
}

func (r *rec) Scrub() { *r = rec{keep: r.keep[:0]} }

func TestListIsLIFOAndScrubs(t *testing.T) {
	var l List[*rec]
	if l.Get() != nil {
		t.Fatal("empty list returned a record")
	}
	a, b := &rec{v: 1, keep: make([]byte, 3, 8)}, &rec{v: 2}
	l.Put(a)
	l.Put(b)
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	if got := l.Get(); got != b {
		t.Fatal("Get did not return the last record put")
	}
	got := l.Get()
	if got != a || got.v != 0 || len(got.keep) != 0 || cap(got.keep) != 8 {
		t.Fatalf("record came back as %+v (cap %d), want scrubbed with its storage kept", got, cap(got.keep))
	}
	if l.Get() != nil || l.Len() != 0 {
		t.Fatal("list not empty after both records were taken")
	}
	for i := 0; i < Max+10; i++ {
		l.Put(&rec{v: i})
	}
	if l.Len() != Max {
		t.Fatalf("list holds %d records, bound %d", l.Len(), Max)
	}
}
