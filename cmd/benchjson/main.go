// Command benchjson converts `go test -bench -benchmem` output read from
// stdin into a machine-readable JSON report. It keeps ns/op, B/op,
// allocs/op and any custom b.ReportMetric units, and derives events/sec
// for benchmarks that report an "events" metric. Repeated runs of one
// benchmark (go test -count N) collapse into one entry holding the median
// of every value plus the fastest and slowest ns/op.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -count 5 ./internal/sim/ | benchjson -o BENCH_sim.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string  `json:"name"` // without the -GOMAXPROCS suffix
	Pkg        string  `json:"pkg"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"` // median over the runs
	// Runs is the number of repeated runs collapsed into this entry;
	// NsPerOpMin / NsPerOpMax are the fastest and slowest of them.
	Runs       int     `json:"runs"`
	NsPerOpMin float64 `json:"ns_per_op_min"`
	NsPerOpMax float64 `json:"ns_per_op_max"`
	// BytesPerOp / AllocsPerOp are present with -benchmem (medians).
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric units (e.g. "events"; medians).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// EventsPerSec = events / (ns_per_op · 1e−9) when "events" is reported.
	EventsPerSec *float64 `json:"events_per_sec,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	rep, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fatal(err)
	}
	if len(rep.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found on stdin"))
	}
	w := os.Stdout
	if *out != "" {
		w, err = os.Create(*out)
		if err != nil {
			fatal(err)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
	if w != os.Stdout {
		if err := w.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "benchjson: wrote %s (%d benchmarks)\n", *out, len(rep.Benchmarks))
	}
}

func parse(sc *bufio.Scanner) (Report, error) {
	var rep Report
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseBench(line, pkg)
			if err != nil {
				return rep, err
			}
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	rep.Benchmarks = collapse(rep.Benchmarks)
	return rep, sc.Err()
}

// collapse merges repeated runs of one benchmark (same package and name)
// into a single entry at the position of its first run: every value
// becomes the median over the runs, and the ns/op range is kept.
func collapse(runs []Benchmark) []Benchmark {
	type key struct{ pkg, name string }
	groups := make(map[key][]Benchmark)
	var order []key
	for _, b := range runs {
		k := key{b.Pkg, b.Name}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], b)
	}
	out := make([]Benchmark, 0, len(order))
	for _, k := range order {
		g := groups[k]
		// med returns the median of a value over the runs reporting it, or
		// nil when none does.
		med := func(get func(Benchmark) *float64) *float64 {
			var vs []float64
			for _, b := range g {
				if v := get(b); v != nil {
					vs = append(vs, *v)
				}
			}
			if len(vs) == 0 {
				return nil
			}
			return ptr(median(vs))
		}
		m := Benchmark{Name: k.name, Pkg: k.pkg, Runs: len(g),
			Iterations:  int64(*med(func(b Benchmark) *float64 { return ptr(float64(b.Iterations)) })),
			NsPerOp:     *med(func(b Benchmark) *float64 { return ptr(b.NsPerOp) }),
			BytesPerOp:  med(func(b Benchmark) *float64 { return b.BytesPerOp }),
			AllocsPerOp: med(func(b Benchmark) *float64 { return b.AllocsPerOp }),
			NsPerOpMin:  g[0].NsPerOp,
			NsPerOpMax:  g[0].NsPerOp,
		}
		for _, b := range g {
			m.NsPerOpMin = min(m.NsPerOpMin, b.NsPerOp)
			m.NsPerOpMax = max(m.NsPerOpMax, b.NsPerOp)
			for unit := range b.Metrics {
				if m.Metrics == nil {
					m.Metrics = map[string]float64{}
				}
				m.Metrics[unit] = *med(func(b Benchmark) *float64 {
					if v, ok := b.Metrics[unit]; ok {
						return &v
					}
					return nil
				})
			}
		}
		if ev, ok := m.Metrics["events"]; ok && m.NsPerOp > 0 {
			m.EventsPerSec = ptr(ev / (m.NsPerOp * 1e-9))
		}
		out = append(out, m)
	}
	return out
}

// median returns the middle value (the mean of the two middle values for
// an even count).
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// parseBench parses one result line: name, iteration count, then
// alternating value/unit pairs.
func parseBench(line, pkg string) (Benchmark, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, fmt.Errorf("malformed benchmark line %q", line)
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("line %q: bad iteration count: %v", line, err)
	}
	b := Benchmark{Name: name, Pkg: pkg, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("line %q: bad value %q: %v", line, fields[i], err)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = ptr(v)
		case "allocs/op":
			b.AllocsPerOp = ptr(v)
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, nil
}

func ptr(v float64) *float64 { return &v }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
