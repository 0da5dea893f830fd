package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"involution/internal/netlist"
)

func TestPercentileRefusesThinTails(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Error("p99 of 999 samples accepted")
	}
	v, err := percentile(seq(1000), 0.99)
	if err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(seq(19), 0.5); err == nil {
		t.Error("p50 of 19 samples accepted")
	}
	if v, err := percentile(seq(20), 0.5); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	// rounds makes rounds of one second each, ending at the given indices,
	// with no CPU time stolen.
	rounds := func(ends ...int) []roundStat {
		rs := make([]roundStat, len(ends))
		for i, e := range ends {
			rs[i] = roundStat{end: e, wall: 1}
		}
		return rs
	}
	if _, err := windowPercentile(seq(500), rounds(250, 500), 0.99); err == nil {
		t.Error("windowed p99 of 500 samples accepted")
	}
	// Rounds of 600: windows close on whole rounds once they hold 1000
	// jobs, here [0, 1200) and [1200, 2400); the median of their p99s.
	lat := append(seq(1200), seq(1200)...)
	for i := 1200; i < 2400; i++ {
		lat[i] *= 3
	}
	if v, err := windowPercentile(lat, rounds(600, 1200, 1800, 2400), 0.99); err != nil || v != (1188+3564)/2.0 {
		t.Errorf("windowed p99 = %v, %v; want %v", v, err, (1188+3564)/2.0)
	}
	// Rounds left over that could not fill a window join the last one.
	if v, err := windowPercentile(seq(1800), rounds(600, 1200, 1800), 0.99); err != nil || v != 1782 {
		t.Errorf("windowed p99 with a short tail = %v, %v; want 1782, one window", v, err)
	}
	if _, err := windowPercentile(lat, rounds(600, 1200), 0.99); err == nil {
		t.Error("round ends short of the latencies accepted")
	}
}

func TestMediansKeepTheQuieterHalf(t *testing.T) {
	// Rounds the hypervisor stole from are left out of the median.
	if v := quietMedian([]float64{10, 11, 50, 60}, []float64{0, 1, 30, 40}); v != 10.5 {
		t.Errorf("quietMedian = %v, want 10.5", v)
	}
	// Ties at the median rate are kept: with no steal every value counts.
	if v := quietMedian([]float64{10, 11, 50}, []float64{0, 0, 0}); v != 11 {
		t.Errorf("quietMedian without steal = %v, want 11", v)
	}
	// A window's rate is its rounds' stolen ticks over their wall time:
	// the first window (rounds 1-2) lost 40 ticks in 2 s, the second none.
	lat := make([]float64, 2400)
	for i := range lat {
		lat[i] = 1
		if i >= 1200 {
			lat[i] = 2
		}
	}
	rs := []roundStat{{end: 600, wall: 1, steal: 30}, {end: 1200, wall: 1, steal: 10}, {end: 1800, wall: 1}, {end: 2400, wall: 1}}
	if v, err := windowPercentile(lat, rs, 0.5); err != nil || v != 2 {
		t.Errorf("windowed p50 = %v, %v; want 2 (the 0 ticks/s window of two)", v, err)
	}
	rs = append(rs, roundStat{end: 3000, wall: 1, steal: 50}, roundStat{end: 3600, wall: 1, steal: 50})
	lat = append(lat, make([]float64, 1200)...)
	for i := 2400; i < 3600; i++ {
		lat[i] = 9
	}
	if v, err := windowPercentile(lat, rs, 0.5); err != nil || v != 1.5 {
		t.Errorf("windowed p50 = %v, %v; want 1.5 (windows at 20, 0 and 50 ticks/s: the 50 left out)", v, err)
	}
	p := &phase{rounds: []roundStat{
		{wall: 1, steal: 0, jobsPerSec: 100},
		{wall: 1, steal: 2, jobsPerSec: 98},
		{wall: 1, steal: 60, jobsPerSec: 40},
		{wall: 2, steal: 100, jobsPerSec: 50},
	}}
	if v := p.jobsPerSec(); v != 99 {
		t.Errorf("jobsPerSec = %v, want 99 (median of the two quiet rounds)", v)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Job: 7, Name: "fault.run", Start: 0, End: 100},
		// Two concurrent children overlapping on [30, 40]: covered once.
		{ID: 2, Parent: 1, Job: 7, Name: "cluster.execute", Start: 10, End: 40},
		{ID: 3, Parent: 1, Job: 7, Name: "cluster.execute", Start: 30, End: 60},
		// A child running past its parent is clipped to [90, 100].
		{ID: 4, Parent: 1, Job: 7, Name: "cluster.execute", Start: 90, End: 120},
		// A grandchild inside child 2.
		{ID: 5, Parent: 2, Job: 7, Name: "http.roundtrip", Start: 15, End: 35},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 100 - 60, 2: 30 - 20, 3: 30, 4: 30, 5: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(span %d) = %d, want %d", id, self[id], w)
		}
	}
	layers := layerBreakdown(spans)
	if layers["fault"] != 40 || layers["cluster"] != 70 || layers["http"] != 20 {
		t.Errorf("layer self times = %v", layers)
	}
}

func TestJobSelfTimesSumToJobTime(t *testing.T) {
	spans := []span{
		{ID: 1, Job: 3, Name: "fault.execute", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Job: 3, Name: "cluster.execute", Start: 5, End: 990},
		{ID: 3, Parent: 2, Job: 3, Name: "http.roundtrip", Start: 100, End: 900},
		{ID: 4, Parent: 3, Job: 3, Name: "server.handler", Start: 200, End: 800},
	}
	jobs, gap, err := jobAccounting(spans, "fault.execute")
	if err != nil || jobs != 1 || gap != 0 {
		t.Errorf("jobAccounting = %d jobs, gap %v%%, %v; want 1, 0", jobs, gap, err)
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	render := func(seed int64) string {
		jobs, err := genCorpus(seed, corpusShapes["tiny"])
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, j := range jobs {
			b.WriteString(j.name + "\n" + j.netlist)
			for _, port := range []string{"i", "en", "x0", "x1", "x2", "x3"} {
				if s, ok := j.inputs[port]; ok {
					b.WriteString(port + "=" + s.String() + "\n")
				}
			}
		}
		for idx := -2; idx < 3; idx++ {
			c, err := sweepCampaign(seed, idx)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(c.label + "\n" + c.doc.String() + c.camp.Inputs["i"].String() + "\n")
		}
		return b.String()
	}
	a, b := render(1), render(1)
	if a != b {
		t.Fatal("same seed generated different inputs")
	}
	if a == render(2) {
		t.Fatal("different seeds generated the same inputs")
	}
	jobs, err := genCorpus(1, corpusShapes["tiny"])
	if err != nil {
		t.Fatal(err)
	}
	families := map[string]bool{}
	for _, j := range jobs {
		families[j.family] = true
		doc, err := netlist.ParseDocument(strings.NewReader(j.netlist))
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		if _, err := doc.Build(); err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
	}
	if len(families) != 4 {
		t.Errorf("corpus families = %v, want chain, spf, ring and dag", families)
	}
}

func tinyConfig(t *testing.T, workload string, digests map[string]map[int64]string) config {
	return config{workload: workload, seed: 1, seconds: 1, size: "tiny",
		out: t.TempDir(), log: io.Discard, digests: digests}
}

func TestTamperedDigestFailsTheRun(t *testing.T) {
	tampered := map[string]map[int64]string{}
	for k, seeds := range storedDigests {
		tampered[k] = map[int64]string{}
		for s, d := range seeds {
			tampered[k][s] = strings.Repeat("0", len(d))
		}
	}
	for _, w := range []string{"kernel-glitch", "sweep-cold"} {
		for _, tc := range []struct {
			digests map[string]map[int64]string
			correct bool
		}{{storedDigests, true}, {tampered, false}} {
			cfg := tinyConfig(t, w, tc.digests)
			var res *result
			var err error
			if w == "kernel-glitch" {
				res, err = runKernel(cfg)
			} else {
				res, err = runSweep(cfg)
			}
			if err != nil {
				t.Fatalf("%s: %v", w, err)
			}
			if res.Correct != tc.correct {
				t.Errorf("%s: correct = %v with %s digests", w, res.Correct, map[bool]string{true: "stored", false: "tampered"}[tc.correct])
			}
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the metric lists must match.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), benchmark has %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestSmokeAllWorkloads runs every workload at tiny size, untraced and
// traced, through the command-line entry point, and checks the last line
// of output against BENCHMARK.json.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkJSON(t)
	for _, w := range b.Workloads {
		for _, traceMode := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w.Name, "--seed", "2", "--seconds", "1", "--trace", traceMode,
				"--size", "tiny", "--out", t.TempDir()}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s --trace %s: exit %d\n%s", w.Name, traceMode, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line: %v", w.Name, err)
			}
			want := endToEnd
			if traceMode == "1" {
				want = perLayer
			}
			if !res.Correct || res.Attempted < minJobs || res.Failed != 0 || len(res.Metrics) != len(want) {
				t.Errorf("%s --trace %s: correct=%v attempted=%d failed=%d metrics=%d",
					w.Name, traceMode, res.Correct, res.Attempted, res.Failed, len(res.Metrics))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s: metric %s missing or in the wrong unit (%+v)", w.Name, d.name, m)
				}
			}
			if traceMode == "0" {
				if res.Metrics["jobs_per_s"].Value <= 0 {
					t.Errorf("%s: jobs_per_s = %v", w.Name, res.Metrics["jobs_per_s"].Value)
				}
				continue
			}
			// Every layer the workload passes through has self time, and a
			// job's self times add up to its end-to-end time.
			layers := []string{"fault", "cluster", "http", "server"}
			if w.Name == "kernel-glitch" {
				layers = []string{"bench", "netlist", "sim"}
			}
			for _, l := range layers {
				if v := res.Metrics[l+".self_ms_per_job"].Value; v <= 0 {
					t.Errorf("%s: %s.self_ms_per_job = %v", w.Name, l, v)
				}
			}
			if gap := res.Metrics["trace.unattributed_pct"].Value; gap > 1e-6 {
				t.Errorf("%s: a job's self times miss %v%% of its time", w.Name, gap)
			}
		}
	}
}
