package main

import (
	"math"
	"testing"
)

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses must not shift the
	// fields: utime=1234 and stime=567 ticks.
	const stat = "4242 (smatchd (v2) x) S 1 4242 4242 0 -1 4194560 9000 0 3 0 1234 567 0 0 20 0 9 0 123456 1200000000 11000 18446744073709551615 1 1 0 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0\n"
	got, err := parseProcStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 18.01; math.Abs(got-want) > 1e-9 {
		t.Errorf("cpu seconds = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "1 smatchd S 1", "1 (smatchd) S 1 2 3", "1 (x) S 1 1 1 0 -1 0 0 0 0 0 abc 5 0"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) succeeded", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	const status = "Name:\tsmatchd\nUmask:\t0022\nState:\tS (sleeping)\nVmPeak:\t 1300000 kB\nVmSize:\t 1250000 kB\nVmHWM:\t   58340 kB\nVmRSS:\t   51200 kB\nThreads:\t9\n"
	got, err := parseVmHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if got != 58340 {
		t.Errorf("VmHWM = %d KiB, want 58340", got)
	}
	for _, bad := range []string{"", "Name:\tx\nVmRSS:\t1 kB\n", "VmHWM:\t12 MB\n", "VmHWM:\tmany kB\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parseVmHWM(%q) succeeded", bad)
		}
	}
}

// The fixtures above are hand-written; the live files of this process
// must parse too.
func TestProcSelf(t *testing.T) {
	if _, err := procCPU("self"); err != nil {
		t.Skipf("no /proc here: %v", err)
	}
	kib, err := procPeakRSSKiB("self")
	if err != nil || kib == 0 {
		t.Errorf("peak RSS of this process = %d KiB, err %v", kib, err)
	}
}
