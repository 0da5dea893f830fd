package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Whole-process runtime/metrics the benchmark reads.
const (
	mAllocObjects = "/gc/heap/allocs:objects"
	mAllocBytes   = "/gc/heap/allocs:bytes"
	mGCCycles     = "/gc/cycles/total:gc-cycles"
	mGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	mHeapObjects  = "/memory/classes/heap/objects:bytes"
)

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	cpu        time.Duration // user + system CPU time
	allocs     uint64
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds
}

// allocReader reads the two allocation counters without allocating, so
// it can bracket individual calls on the kernel workload.
type allocReader struct{ s [2]metrics.Sample }

func newAllocReader() *allocReader {
	r := &allocReader{}
	r.s[0].Name, r.s[1].Name = mAllocObjects, mAllocBytes
	return r
}

func (r *allocReader) read() (objects, bytes uint64) {
	metrics.Read(r.s[:])
	return r.s[0].Value.Uint64(), r.s[1].Value.Uint64()
}

func readUsage() usage {
	s := []metrics.Sample{{Name: mAllocObjects}, {Name: mAllocBytes}, {Name: mGCCycles}, {Name: mGCCPU}}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{
		cpu:        cpu,
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
	}
}

func (u usage) sub(o usage) usage {
	return usage{
		cpu:        u.cpu - o.cpu,
		allocs:     u.allocs - o.allocs,
		allocBytes: u.allocBytes - o.allocBytes,
		gcCycles:   u.gcCycles - o.gcCycles,
		gcCPU:      u.gcCPU - o.gcCPU,
	}
}

func (u usage) add(o usage) usage {
	return usage{
		cpu:        u.cpu + o.cpu,
		allocs:     u.allocs + o.allocs,
		allocBytes: u.allocBytes + o.allocBytes,
		gcCycles:   u.gcCycles + o.gcCycles,
		gcCPU:      u.gcCPU + o.gcCPU,
	}
}

// meter measures timed segments: wall time, resource usage and the
// live-heap peak of each, and their totals.
type meter struct {
	wall  time.Duration
	total usage

	segStart time.Time
	segUsage usage

	// What pause and resume left out of the open segment.
	pausedAt    time.Time
	pausedUsage usage
	skipped     time.Duration
	skippedUse  usage

	heapPeak uint64 // of the last segment; written by sampleHeap before done closes
	stop     chan struct{}
	done     chan struct{}
}

// heapSampleEvery is the live-heap sampling period during timed segments.
const heapSampleEvery = 5 * time.Millisecond

func (m *meter) begin() {
	m.stop, m.done = make(chan struct{}), make(chan struct{})
	go m.sampleHeap()
	m.skipped, m.skippedUse = 0, usage{}
	m.segUsage = readUsage()
	m.segStart = time.Now()
}

// pause stops charging wall time and resource usage to the open segment
// until resume.
func (m *meter) pause() {
	m.pausedUsage = readUsage()
	m.pausedAt = time.Now()
}

func (m *meter) resume() {
	m.skipped += time.Since(m.pausedAt)
	m.skippedUse = m.skippedUse.add(readUsage().sub(m.pausedUsage))
}

// end closes the segment and returns its wall time, usage and heap peak,
// less what was paused.
func (m *meter) end() (time.Duration, usage, uint64) {
	d := time.Since(m.segStart) - m.skipped
	u := readUsage().sub(m.segUsage).sub(m.skippedUse)
	close(m.stop)
	<-m.done
	m.wall += d
	m.total = m.total.add(u)
	return d, u, m.heapPeak
}

func (m *meter) sampleHeap() {
	s := []metrics.Sample{{Name: mHeapObjects}}
	t := time.NewTicker(heapSampleEvery)
	defer t.Stop()
	var peak uint64
	for {
		metrics.Read(s)
		peak = max(peak, s[0].Value.Uint64())
		select {
		case <-m.stop:
			m.heapPeak = peak
			close(m.done)
			return
		case <-t.C:
		}
	}
}

// hostInfo is the fingerprint printed with every result.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Size       string `json:"size"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func fingerprint(workload string, seed int64, size string, seconds int, trace bool) hostInfo {
	return hostInfo{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      nproc(),
		CPUModel:   cpuModel(),
		Workload:   workload,
		Seed:       seed,
		Size:       size,
		Seconds:    seconds,
		Trace:      trace,
	}
}

// nproc is the CPU count available to the process, as nproc(1) prints it;
// runtime.NumCPU when nproc is missing.
func nproc() int {
	if out, err := exec.Command("nproc").Output(); err == nil {
		if n, err := strconv.Atoi(strings.TrimSpace(string(out))); err == nil && n > 0 {
			return n
		}
	}
	return runtime.NumCPU()
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
