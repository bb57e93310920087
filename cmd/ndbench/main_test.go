package main

import (
	"strings"
	"testing"
)

// TestServeBenchRejectsBadSizes: every size flag of serving mode must be
// at least 1. Zero used to print a table of 0 runs with +Inf allocs/run,
// and -submitters -1 panicked in makeslice.
func TestServeBenchRejectsBadSizes(t *testing.T) {
	for _, flag := range []string{"-submitters", "-repeats", "-n", "-base"} {
		for _, v := range []int{0, -1} {
			n, base, submitters, repeats := 64, 8, 2, 2
			switch flag {
			case "-submitters":
				submitters = v
			case "-repeats":
				repeats = v
			case "-n":
				n = v
			case "-base":
				base = v
			}
			tables, err := serveBench("FW-1D", n, base, 2, submitters, repeats, true, false, false, "", "", false)
			if err == nil {
				t.Fatalf("%s %d: no error (got %d tables)", flag, v, len(tables))
			}
			if !strings.Contains(err.Error(), flag) {
				t.Fatalf("%s %d: error %q does not name the flag", flag, v, err)
			}
		}
	}
}

// TestServeBenchSmoke runs a tiny serving table end to end: the engine
// and engine-per-run rows both complete every run.
func TestServeBenchSmoke(t *testing.T) {
	tables, err := serveBench("FW-1D", 32, 8, 2, 2, 3, true, false, false, "", "", false)
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != 2 || rows[0][0] != "engine" || rows[1][0] != "engine-per-run" {
		t.Fatalf("rows = %v, want engine and engine-per-run", rows)
	}
	for _, r := range rows {
		if r[1] != "6" {
			t.Fatalf("row %v: runs = %s, want 6", r, r[1])
		}
	}
}
