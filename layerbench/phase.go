package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"involution/internal/sim"
)

// minJobs is the least number of jobs a timed phase completes, so that
// latency_p99_ms has at least ten samples beyond it.
const minJobs = 1000

// roundStat is one round's throughput and cost.
type roundStat struct {
	end         int     // len(rec.latencies) at the end of the round
	wall        float64 // seconds
	steal       float64 // host CPU time stolen while the round ran, in clock ticks
	jobsPerSec  float64
	cpuMSPerJob float64
	heapPeakMB  float64
}

// jobRecorder collects per-job latencies, failures and kernel counters;
// safe for concurrent use by the engine's workers.
type jobRecorder struct {
	mu        sync.Mutex
	latencies []float64 // ms
	calls     int64
	errs      int64
	stats     sim.RunStats
}

func (r *jobRecorder) observe(d time.Duration, st sim.RunStats, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.latencies = append(r.latencies, ms(d))
	r.calls++
	if err != nil {
		r.errs++
	}
	r.stats.Merge(st)
}

func (r *jobRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.latencies)
}

// phase is one timed region of a run: rounds of jobs, each made of one or
// more metered segments. Work between segments (generating inputs,
// restarting a node) and the benchmark's own checks inside them stay out
// of the phase.
type phase struct {
	m      meter
	rec    jobRecorder // every job's latency, in completion order
	rounds []roundStat
	jobs   int64

	// The open round's segments so far.
	wall   time.Duration
	cpu    time.Duration
	peak   uint64
	steal  float64
	steal0 float64 // hostSteal at the start of the open segment
}

func (p *phase) start() {
	p.steal0 = hostSteal()
	p.m.begin()
}

func (p *phase) stop() {
	d, u, peak := p.m.end()
	p.steal += hostSteal() - p.steal0
	p.wall += d
	p.cpu += u.cpu
	p.peak = max(p.peak, peak)
}

// untimed runs fn inside an open segment without charging its time or
// resources to the phase.
func (p *phase) untimed(fn func()) {
	p.m.pause()
	fn()
	p.m.resume()
}

// endRound closes the open round after it completed n jobs.
func (p *phase) endRound(n int64) {
	p.jobs += n
	p.rounds = append(p.rounds, roundStat{
		end:         p.rec.count(),
		wall:        p.wall.Seconds(),
		steal:       p.steal,
		jobsPerSec:  float64(n) / p.wall.Seconds(),
		cpuMSPerJob: ms(p.cpu) / float64(max(n, 1)),
		heapPeakMB:  float64(p.peak) / (1 << 20),
	})
	p.wall, p.cpu, p.peak, p.steal = 0, 0, 0, 0
}

// round times one round run by fn as a single segment.
func (p *phase) round(fn func() (jobs int64, err error)) error {
	p.start()
	n, err := fn()
	p.stop()
	if err != nil {
		return err
	}
	p.endRound(n)
	return nil
}

// done reports whether the phase has measured long enough.
func (p *phase) done(seconds int) bool {
	return p.m.wall >= time.Duration(seconds)*time.Second && p.jobs >= minJobs
}

// hostSteal returns the CPU time, in clock ticks, that the hypervisor has
// taken from this machine's CPUs for other guests since boot: the steal
// column of /proc/stat. It returns 0 where there is no such column, which
// makes every round equally quiet.
func hostSteal() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return v
}

// quietMedian is the median of xs over the entries whose host steal rate
// is at most the median rate: the quieter half of the rounds or windows.
// On a shared host the rate at which the hypervisor steals CPU time sets
// a round's speed more than anything else does, and it comes in bursts of
// seconds; a median over the quieter half keeps the figure to the time
// the program had its CPUs.
func quietMedian(xs, rates []float64) float64 {
	cut := median(rates)
	var keep []float64
	for i, x := range xs {
		if rates[i] <= cut {
			keep = append(keep, x)
		}
	}
	return median(keep)
}

// stealRate is steal ticks per second of wall time.
func stealRate(steal, wall float64) float64 {
	if wall <= 0 {
		return 0
	}
	return steal / wall
}

// roundMedian is the median of one per-round statistic over the quieter
// half of the rounds. Medians over rounds also keep a burst of load from
// another process on the host from moving the figure the way it would
// move a mean.
func (p *phase) roundMedian(f func(roundStat) float64) float64 {
	xs := make([]float64, len(p.rounds))
	rates := make([]float64, len(p.rounds))
	for i, r := range p.rounds {
		xs[i] = f(r)
		rates[i] = stealRate(r.steal, r.wall)
	}
	return quietMedian(xs, rates)
}

func (p *phase) jobsPerSec() float64 {
	return p.roundMedian(func(r roundStat) float64 { return r.jobsPerSec })
}

// windowPercentile cuts the latencies, in completion order, into windows
// of whole rounds, each of at least minJobs jobs, the last one taking any
// rounds left over; it returns the median of each window's q-quantile over
// the quieter half of the windows (see quietMedian). Whole rounds give
// every window the same mix of jobs: the same corpus passes, the same
// share of flush-stalled shards, the same lake/RAM split.
func windowPercentile(lat []float64, rounds []roundStat, q float64) (float64, error) {
	if len(rounds) == 0 || rounds[len(rounds)-1].end != len(lat) {
		return 0, fmt.Errorf("%d rounds do not cover %d latencies", len(rounds), len(lat))
	}
	var per, rates []float64
	start := 0
	var steal, wall float64
	for _, r := range rounds {
		steal += r.steal
		wall += r.wall
		// Close the window once it holds minJobs jobs, unless the rest
		// could not fill another.
		if r.end != len(lat) && (r.end-start < minJobs || len(lat)-r.end < minJobs) {
			continue
		}
		v, err := percentile(lat[start:r.end], q) // refuses too few samples
		if err != nil {
			return 0, err
		}
		per = append(per, v)
		rates = append(rates, stealRate(steal, wall))
		start, steal, wall = r.end, 0, 0
	}
	return quietMedian(per, rates), nil
}

// endToEnd computes the end-to-end metrics of an untraced phase.
func (p *phase) endToEnd(setups []float64) (map[string]float64, error) {
	if p.jobs == 0 {
		return nil, fmt.Errorf("phase completed no jobs")
	}
	p50, err := windowPercentile(p.rec.latencies, p.rounds, 0.50)
	if err != nil {
		return nil, err
	}
	p99, err := windowPercentile(p.rec.latencies, p.rounds, 0.99)
	if err != nil {
		return nil, err
	}
	jobs := float64(p.jobs)
	u := p.m.total
	return map[string]float64{
		"setup_s":          median(setups),
		"jobs_per_s":       p.jobsPerSec(),
		"latency_p50_ms":   p50,
		"latency_p99_ms":   p99,
		"cpu_ms_per_job":   p.roundMedian(func(r roundStat) float64 { return r.cpuMSPerJob }),
		"alloc_kb_per_job": float64(u.allocBytes) / 1024 / jobs,
		"allocs_per_job":   float64(u.allocs) / jobs,
		"heap_peak_mb":     p.roundMedian(func(r roundStat) float64 { return r.heapPeakMB }),
	}, nil
}

// runtimeLayers computes the Go-runtime per-layer metrics of an untraced
// phase.
func (p *phase) runtimeLayers(out map[string]float64) {
	jobs := float64(max(p.jobs, 1))
	out["gc.cpu_ms_per_job"] = p.m.total.gcCPU * 1000 / jobs
	out["gc.cycles_per_job"] = float64(p.m.total.gcCycles) / jobs
}

// traceLayers computes the span-derived metrics common to every workload:
// self time per job of each layer, spans per job, the largest gap between
// a job's summed self times and its end-to-end time, and the tracing
// overhead against the untraced phase.
func traceLayers(out map[string]float64, spans []span, root string, jobs int64, untraced, traced *phase) error {
	n := float64(max(jobs, 1))
	for layer, ns := range layerBreakdown(spans) {
		out[layer+".self_ms_per_job"] = float64(ns) / 1e6 / n
	}
	out["trace.spans_per_job"] = float64(len(spans)) / n
	rooted, gap, err := jobAccounting(spans, root)
	if err != nil {
		return err
	}
	if rooted == 0 {
		return fmt.Errorf("trace: no %s spans recorded", root)
	}
	out["trace.unattributed_pct"] = gap
	if u := untraced.jobsPerSec(); u > 0 {
		out["trace.overhead_pct"] = (u - traced.jobsPerSec()) / u * 100
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
