package main

import (
	"strings"
	"testing"
)

// TestOutput pins every organization and network's transfer time and throughput.
func TestOutput(t *testing.T) {
	var out strings.Builder
	if code := run(&out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	if out.String() != want {
		t.Errorf("output drifted:\n%s\nwant:\n%s", out.String(), want)
	}
}

const want = `transferring a 1024 KB file (FNV-checksummed end to end)

organization   network      virtual time     throughput  integrity
inkernel       ethernet           1.267s        6.62 Mb/s       OK
inkernel       an1                 734ms       11.43 Mb/s       OK
inkernel       an1-64k             334ms       25.15 Mb/s       OK
singleserver   ethernet           1.953s        4.30 Mb/s       OK
userlib        ethernet           1.344s        6.24 Mb/s       OK
userlib        an1                 757ms       11.09 Mb/s       OK
userlib        an1-64k             442ms       18.98 Mb/s       OK
`
