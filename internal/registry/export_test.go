package registry

// Callers counts the host's callers' entries, for the package's external
// tests.
func (f *Federation) Callers() int { return len(f.calls) }
