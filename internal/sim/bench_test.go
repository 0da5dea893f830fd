package sim

import (
	"testing"

	"involution/internal/channel"
	"involution/internal/signal"
)

// deepPendingWorkload drives a single long-latency channel with a fast
// pulse train so that hundreds of output events are in flight on one edge
// at steady state, with the given online monitors.
func deepPendingWorkload(tb testing.TB, watch map[string]Monitor) func() *Result {
	pure, err := channel.NewPure(500)
	if err != nil {
		tb.Fatal(err)
	}
	c := bufCircuit(tb, pure)
	in, err := signal.Train(0, 0.4, 1, 1000)
	if err != nil {
		tb.Fatal(err)
	}
	inputs := map[string]signal.Signal{"i": in}
	return func() *Result {
		res, err := Run(c, inputs, Options{Horizon: 3000, MaxEvents: 1 << 22, Watch: watch})
		if err != nil {
			tb.Fatal(err)
		}
		return res
	}
}

// cancellationHeavyWorkload pushes sub-threshold glitches through an
// inertial channel so nearly every scheduled output is canceled before it
// fires — the cancellation-churn regime of long adversarial executions.
func cancellationHeavyWorkload(tb testing.TB) func() *Result {
	inert, err := channel.NewInertial(2, 1)
	if err != nil {
		tb.Fatal(err)
	}
	c := bufCircuit(tb, inert)
	in, err := signal.Train(0, 0.5, 1.2, 2000)
	if err != nil {
		tb.Fatal(err)
	}
	inputs := map[string]signal.Signal{"i": in}
	return func() *Result {
		res, err := Run(c, inputs, Options{Horizon: 5000, MaxEvents: 1 << 22})
		if err != nil {
			tb.Fatal(err)
		}
		return res
	}
}

// BenchmarkDeepPendingRetirement runs deepPendingWorkload. Retiring a
// fired event used to splice it out of the edge's pending list with an
// O(n) tail copy per delivery — quadratic on this workload; the
// head-indexed FIFO makes it O(1). This benchmark is the regression guard
// for that fix.
func BenchmarkDeepPendingRetirement(b *testing.B) {
	run := deepPendingWorkload(b, nil)
	var events int
	var hwm int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := run()
		events = res.Events
		hwm = res.Stats.QueueHighWater
	}
	b.ReportMetric(float64(events), "events")
	b.ReportMetric(float64(hwm), "queue_hwm")
}

// BenchmarkCancellationHeavyChain runs cancellationHeavyWorkload.
func BenchmarkCancellationHeavyChain(b *testing.B) {
	run := cancellationHeavyWorkload(b)
	var canceled int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		canceled = run().Stats.Canceled
	}
	b.ReportMetric(float64(canceled), "canceled")
}

// TestAllocationGates holds the kernel's allocation counts on the two
// kernel benchmarks' workloads under fixed ceilings. Allocations, unlike
// ns/op, do not vary between runs, so the gate is exact: a change that
// brings back per-event allocation fails here rather than as benchmark
// drift. A watched run may allocate only a handful more than an unwatched
// one: the watch pass must not allocate per delta cycle.
func TestAllocationGates(t *testing.T) {
	allocs := func(run func() *Result) float64 { return testing.AllocsPerRun(3, func() { run() }) }
	for _, g := range []struct {
		name    string
		run     func() *Result
		ceiling float64
	}{
		{"DeepPendingRetirement", deepPendingWorkload(t, nil), 2112},
		{"CancellationHeavyChain", cancellationHeavyWorkload(t), 1807},
	} {
		if got := allocs(g.run); got > g.ceiling {
			t.Errorf("%s: %.0f allocs/run, ceiling %.0f", g.name, got, g.ceiling)
		}
	}
	noop := func(float64, signal.Value) error { return nil }
	plain := allocs(deepPendingWorkload(t, nil))
	watched := allocs(deepPendingWorkload(t, map[string]Monitor{"b": noop, "o": noop}))
	if watched > plain+16 {
		t.Errorf("watched run: %.0f allocs/run against %.0f unwatched", watched, plain)
	}
}

// noopObserver measures pure hook-dispatch cost.
type noopObserver struct{}

func (noopObserver) EventScheduled(Event)         {}
func (noopObserver) EventDelivered(Event)         {}
func (noopObserver) EventCanceled(Event)          {}
func (noopObserver) DeltaCycleDone(float64, int)  {}
func (noopObserver) Annihilation(string, float64) {}

// BenchmarkEventTimeValidation compares scheduling with the NaN/±Inf/
// time-travel guard (the shipped default) against the unexported escape
// hatch that skips it, so the ≤2 % validation budget can be verified from
// BENCH_sim.json.
func BenchmarkEventTimeValidation(b *testing.B) {
	pure, err := channel.NewPure(50)
	if err != nil {
		b.Fatal(err)
	}
	c := bufCircuit(b, pure)
	in, err := signal.Train(0, 0.4, 1, 1000)
	if err != nil {
		b.Fatal(err)
	}
	inputs := map[string]signal.Signal{"i": in}
	for _, bc := range []struct {
		name string
		skip bool
	}{{"on", false}, {"off", true}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(c, inputs, Options{Horizon: 2000, MaxEvents: 1 << 22, noTimeCheck: bc.skip}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObserverOverhead compares the no-observer fast path against a
// no-op observer on a pipe with heavy event traffic, so the ≤2 % fast-path
// budget can be verified from BENCH_sim.json.
func BenchmarkObserverOverhead(b *testing.B) {
	pure, err := channel.NewPure(50)
	if err != nil {
		b.Fatal(err)
	}
	c := bufCircuit(b, pure)
	in, err := signal.Train(0, 0.4, 1, 1000)
	if err != nil {
		b.Fatal(err)
	}
	inputs := map[string]signal.Signal{"i": in}
	for _, bc := range []struct {
		name string
		obs  Observer
	}{{"none", nil}, {"noop", noopObserver{}}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(c, inputs, Options{Horizon: 2000, MaxEvents: 1 << 22, Observer: bc.obs}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
