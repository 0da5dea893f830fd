package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one job share Job; Parent is the
// span that made the call (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Job    int64  `json:"job,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Tier is the cache tier a node handler answered from
	// (fresh|lake|mem); empty for other spans.
	Tier string `json:"tier,omitempty"`
	// Allocs and AllocBytes are the heap allocations made during the span
	// (recorded only on the single-goroutine kernel workload, where they
	// can be attributed).
	Allocs     uint64 `json:"allocs,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the part of the span name before the first dot
// ("netlist.build" → "netlist").
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing; every method is safe for concurrent use.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	jobs  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the trace clock: nanoseconds since the tracer was created.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) newJob() int64 { return t.jobs.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes one span per line, in start order.
func writeJSONL(path string, spans []span) error {
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range sorted {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children are clipped to the
// parent's interval, and overlapping children (concurrent calls) count
// their overlap once.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerBreakdown sums self time by layer over all spans.
func layerBreakdown(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.layer()] += self[s.ID]
	}
	return out
}

// jobAccounting checks, for every job rooted at a span named root, that
// the self times of the job's spans add up to the root's duration. It
// returns the number of such jobs and the largest relative gap seen (in
// percent of the job's end-to-end time).
func jobAccounting(spans []span, root string) (jobs int, worstGapPct float64, err error) {
	self := selfTimes(spans)
	sum := make(map[int64]int64)
	roots := make(map[int64]span)
	for _, s := range spans {
		if s.Job == 0 {
			continue
		}
		sum[s.Job] += self[s.ID]
		if s.Name == root {
			if _, dup := roots[s.Job]; dup {
				return 0, 0, fmt.Errorf("trace: job %d has two %s spans", s.Job, root)
			}
			roots[s.Job] = s
		}
	}
	for job, r := range roots {
		if r.dur() <= 0 {
			continue
		}
		gap := float64(sum[job]-r.dur()) / float64(r.dur()) * 100
		if gap < 0 {
			gap = -gap
		}
		worstGapPct = max(worstGapPct, gap)
	}
	return len(roots), worstGapPct, nil
}
