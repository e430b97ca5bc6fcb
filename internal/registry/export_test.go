package registry

// Callers counts the host's callers' entries, for the package's external
// tests.
func (f *Federation) Callers() int { return len(f.calls) }

// SetQuota sets the host's admission quota, for the package's external tests.
func (f *Federation) SetQuota(n int) { f.quota = n }
