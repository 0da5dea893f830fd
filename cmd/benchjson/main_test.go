package main

import (
	"bufio"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: involution/internal/sim
cpu: Test CPU @ 3.0GHz
BenchmarkDeepPendingRetirement-8   	      50	  20000000 ns/op	      2000 events	      1999 queue_hwm	  500000 B/op	    4000 allocs/op
BenchmarkObserverOverhead/none-8   	     100	  10000000 ns/op	  100000 B/op	    1000 allocs/op
PASS
ok  	involution/internal/sim	3.000s
`

func TestParse(t *testing.T) {
	rep, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.CPU != "Test CPU @ 3.0GHz" {
		t.Fatalf("header: %+v", rep)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("want 2 benchmarks, got %d", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkDeepPendingRetirement" {
		t.Errorf("GOMAXPROCS suffix not stripped: %q", b.Name)
	}
	if b.Pkg != "involution/internal/sim" || b.Iterations != 50 || b.NsPerOp != 20000000 {
		t.Errorf("fields: %+v", b)
	}
	if b.AllocsPerOp == nil || *b.AllocsPerOp != 4000 || b.BytesPerOp == nil || *b.BytesPerOp != 500000 {
		t.Errorf("benchmem fields: %+v", b)
	}
	if b.Metrics["events"] != 2000 || b.Metrics["queue_hwm"] != 1999 {
		t.Errorf("custom metrics: %+v", b.Metrics)
	}
	// 2000 events / 20ms = 100k events/s.
	if b.EventsPerSec == nil || *b.EventsPerSec != 100000 {
		t.Errorf("events/sec: %+v", b.EventsPerSec)
	}
	if sub := rep.Benchmarks[1]; sub.Name != "BenchmarkObserverOverhead/none" || sub.EventsPerSec != nil {
		t.Errorf("sub-benchmark: %+v", sub)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX-8 12",              // no measurement pairs
		"BenchmarkX-8 nope 5 ns/op",    // bad iteration count
		"BenchmarkX-8 10 banana ns/op", // bad value
	} {
		if _, err := parse(bufio.NewScanner(strings.NewReader(line))); err == nil {
			t.Errorf("line %q must be rejected", line)
		}
	}
}

func TestParseCollapsesRepeats(t *testing.T) {
	const repeats = `pkg: involution/internal/sim
BenchmarkRing-2   	100	  3000 ns/op	  10 events	  64 B/op	  2 allocs/op
BenchmarkRing-2   	120	  1000 ns/op	  10 events	  64 B/op	  2 allocs/op
BenchmarkOther-2  	 10	   500 ns/op
BenchmarkRing-2   	110	  2000 ns/op	  10 events	  80 B/op	  3 allocs/op
BenchmarkRing-2   	 90	  9000 ns/op	  10 events	  80 B/op	  3 allocs/op
pkg: involution
BenchmarkRing-2   	  7	   700 ns/op
`
	rep, err := parse(bufio.NewScanner(strings.NewReader(repeats)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("want 3 entries (repeats collapsed per package), got %+v", rep.Benchmarks)
	}
	ring, other, root := rep.Benchmarks[0], rep.Benchmarks[1], rep.Benchmarks[2]
	if ring.Name != "BenchmarkRing" || other.Name != "BenchmarkOther" || root.Pkg != "involution" {
		t.Fatalf("first-run order not kept: %+v", rep.Benchmarks)
	}
	// Four runs: the medians are the means of the two middle values.
	if ring.Runs != 4 || ring.NsPerOp != 2500 || ring.NsPerOpMin != 1000 || ring.NsPerOpMax != 9000 {
		t.Errorf("ns/op median/min/max: %+v", ring)
	}
	if ring.Iterations != 105 || *ring.BytesPerOp != 72 || *ring.AllocsPerOp != 2.5 || ring.Metrics["events"] != 10 {
		t.Errorf("collapsed fields: %+v", ring)
	}
	// events/sec derives from the median ns/op: 10 events / 2500 ns.
	if ns := 2500.0; ring.EventsPerSec == nil || *ring.EventsPerSec != 10/(ns*1e-9) {
		t.Errorf("events/sec: %+v", ring)
	}
	if other.Runs != 1 || other.NsPerOp != 500 || other.NsPerOpMin != 500 || other.NsPerOpMax != 500 || other.AllocsPerOp != nil {
		t.Errorf("single run: %+v", other)
	}
}
