package stats

import (
	"strings"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.RegisterFunc("ns", func(emit func(string, int64)) { emit("z", 1) })
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	if r.Render() != "" {
		t.Fatal("nil registry must render empty")
	}
}

func TestProvidersPrefixed(t *testing.T) {
	r := New()
	calls := 0
	r.RegisterFunc("pkt", func(emit func(string, int64)) {
		calls++
		emit("gets", 11+int64(calls))
		emit("puts", 10)
	})
	r.RegisterFunc("netio.h0", func(emit func(string, int64)) { emit("high_water", 7) })
	snap := r.Snapshot()
	want := map[string]int64{
		"netio.h0.high_water": 7,
		"pkt.gets":            12,
		"pkt.puts":            10,
	}
	if len(snap) != len(want) {
		t.Errorf("snapshot has %d keys, want %d: %v", len(snap), len(want), snap)
	}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("snapshot[%q] = %d, want %d", k, snap[k], v)
		}
	}
	if got := r.Snapshot()["pkt.gets"]; got != 13 {
		t.Errorf("second snapshot pkt.gets = %d, want 13: providers are polled per Snapshot", got)
	}
}

func TestRenderSortedDeterministic(t *testing.T) {
	r := New()
	r.RegisterFunc("b", func(emit func(string, int64)) { emit("two", 2) })
	r.RegisterFunc("a", func(emit func(string, int64)) { emit("one", 1) })
	out := r.Render()
	if strings.Index(out, "a.one") > strings.Index(out, "b.two") {
		t.Fatalf("render not sorted:\n%s", out)
	}
	if out != r.Render() {
		t.Fatal("render must be deterministic")
	}
}
