package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"involution/internal/experiments"
	"involution/internal/signal"
)

// kernelJob is one kernel-glitch job: a netlist as text, its stimuli and
// the simulated-time horizon.
type kernelJob struct {
	name    string
	family  string
	netlist string
	inputs  map[string]signal.Signal
	horizon float64
}

// corpusShape sets how many jobs of each family a corpus has and how
// large they get.
type corpusShape struct {
	chains, spfs, rings, dags int
	// scale multiplies every job's stimulus length (1 for the full corpus).
	scale float64
}

var corpusShapes = map[string]corpusShape{
	"full": {chains: 110, spfs: 80, rings: 40, dags: 110, scale: 1},
	"tiny": {chains: 6, spfs: 6, rings: 3, dags: 5, scale: 0.05},
}

// layout returns n size quantiles, one from the middle of each of n equal
// strata, and n shape quantiles paired with them in a fixed shuffled
// order. Neither depends on the seed: seeds change the jobs, not how much
// work the corpus holds.
func layout(n int) (size, form []float64) {
	size, form = make([]float64, n), make([]float64, n)
	for i := range size {
		size[i] = (float64(i) + 0.5) / float64(n)
		form[i] = size[i]
	}
	rand.New(rand.NewSource(int64(n))).Shuffle(n, func(a, b int) { form[a], form[b] = form[b], form[a] })
	return size, form
}

// sized maps a stratified draw onto three size classes: 70 % of the jobs
// small, 25 % medium and 5 % large, each class spanning its range; the
// result is scaled by the corpus shape (at least 1).
func sized(u float64, ranges [3][2]float64, scale float64) int {
	var r [2]float64
	var v float64
	switch {
	case u < 0.70:
		r, v = ranges[0], u/0.70
	case u < 0.95:
		r, v = ranges[1], (u-0.70)/0.25
	default:
		r, v = ranges[2], (u-0.95)/0.05
	}
	return max(1, int(math.Round((r[0]+(r[1]-r[0])*v)*scale)))
}

// between draws uniformly from [lo, hi).
func between(rng *rand.Rand, lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }

func num(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// edges builds a signal toggling at the given strictly increasing times.
func edges(initial signal.Value, times []float64) signal.Signal {
	s, err := signal.FromEdges(initial, times...)
	if err != nil {
		panic(fmt.Sprintf("corpus: bad stimulus: %v", err)) // times are generated increasing
	}
	return s
}

// genCorpus builds the kernel-glitch corpus for a seed: the same seed and
// shape always give the same jobs, in the same order.
func genCorpus(seed int64, shape corpusShape) ([]kernelJob, error) {
	rng := rand.New(rand.NewSource(seed))
	var jobs []kernelJob
	size, form := layout(shape.chains)
	for i := 0; i < shape.chains; i++ {
		jobs = append(jobs, genChain(rng, i, size[i], form[i], shape.scale))
	}
	size, _ = layout(shape.spfs)
	for i := 0; i < shape.spfs; i++ {
		j, err := genSPF(rng, i, size[i], shape.scale)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	size, form = layout(shape.rings)
	for i := 0; i < shape.rings; i++ {
		jobs = append(jobs, genRing(rng, i, size[i], form[i], shape.scale))
	}
	size, form = layout(shape.dags)
	for i := 0; i < shape.dags; i++ {
		jobs = append(jobs, genDAG(rng, i, size[i], form[i], shape.scale))
	}
	// Interleave the families so every stretch of a pass mixes them.
	rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	return jobs, nil
}

// genChain is an η-involution BUF/INV chain: exp channels near the
// reference parametrization, each edge with its own seeded uniform or
// walk adversary, fed a glitch train whose pulse widths straddle the
// channels' cancellation threshold (about tp), so some glitches die in the
// first stages and others travel the whole chain.
func genChain(rng *rand.Rand, idx int, size, form, scale float64) kernelJob {
	stages := 4 + int(form*7)
	if size >= 0.95 {
		// The largest jobs set latency_p99_ms: give them one chain length so
		// their cost varies little from seed to seed.
		stages = 8
	}
	var b strings.Builder
	fmt.Fprintf(&b, "circuit chain%d\ninput i\noutput o\n", idx)
	level := 0 // each gate starts at the value its input settles to
	for s := 1; s <= stages; s++ {
		kind := "BUF"
		if rng.Intn(2) == 0 {
			kind = "INV"
			level ^= 1
		}
		fmt.Fprintf(&b, "gate g%d %s init=%d\n", s, kind, level)
	}
	prev := "i"
	for s := 1; s <= stages; s++ {
		adv := "uniform"
		if rng.Intn(2) == 0 {
			adv = "walk"
		}
		fmt.Fprintf(&b, "channel %s g%d 0 exp tau=%s tp=%s vth=%s eta+=0.04 eta-=0.03 adversary=%s seed=%d\n",
			prev, s, num(between(rng, 0.9, 1.1)), num(between(rng, 0.45, 0.55)), num(between(rng, 0.55, 0.65)),
			adv, 1+rng.Intn(1<<30))
		prev = fmt.Sprintf("g%d", s)
	}
	fmt.Fprintf(&b, "channel %s o 0 zero\n", prev)

	// Events grow with pulses × stages; longer chains get shorter trains.
	pulses := sized(size, [3][2]float64{{20, 250}, {800, 2500}, {8000, 9000}}, scale*7/float64(stages))
	times := make([]float64, 0, 2*pulses)
	t := 1.0
	for p := 0; p < pulses; p++ {
		w := between(rng, 0.2, 1.2)
		times = append(times, t, t+w)
		t += w + between(rng, 0.3, 2.0)
	}
	return kernelJob{
		name:    fmt.Sprintf("chain%d", idx),
		family:  "chain",
		netlist: b.String(),
		inputs:  map[string]signal.Signal{"i": edges(signal.Low, times)},
		horizon: t + 4*float64(stages),
	}
}

// genSPF is the Fig. 5 SPF loop under a random adversary, fed a train of
// input pulses drawn from Theorem 9's Δ₀ bands: cancel (below the cancel
// bound) and metastable (just below Δ̃₀, where the loop oscillates for a
// while before it cancels), spaced so the loop settles in between. A third
// of the jobs end with a pulse in the lock band, above the lock bound.
func genSPF(rng *rand.Rand, idx int, size, scale float64) (kernelJob, error) {
	advs := []string{"zero", "worst", "maxup", "uniform", "walk"}
	adv := advs[rng.Intn(len(advs))]
	doc, sys, err := experiments.SPFNetlist(adv, int64(1+rng.Intn(1<<30)))
	if err != nil {
		return kernelJob{}, err
	}
	a := sys.Analysis
	settle := a.LockBound + a.Period
	pulses := sized(size, [3][2]float64{{20, 150}, {400, 1200}, {2500, 4000}}, scale)
	times := make([]float64, 0, 2*pulses+2)
	t := 1.0
	for p := 0; p < pulses; p++ {
		var w float64
		if rng.Intn(2) == 0 {
			w = between(rng, 0.2, 0.95) * a.CancelBound
		} else {
			// Log-uniform distance below the threshold: the closer, the
			// longer the metastable oscillation.
			w = a.Delta0Tilde * (1 - math.Pow(10, between(rng, -9, -2)))
		}
		times = append(times, t, t+w)
		t += between(rng, 2, 4) * settle
	}
	if rng.Intn(3) == 0 {
		times = append(times, t, t+between(rng, 1.05, 3)*a.LockBound)
		t += 4 * settle
	}
	return kernelJob{
		name:    fmt.Sprintf("spf%d", idx),
		family:  "spf",
		netlist: doc.String(),
		inputs:  map[string]signal.Signal{"i": edges(signal.Low, times)},
		horizon: t + settle,
	}, nil
}

// genRing is a free-running pure-delay ring oscillator: a NAND2 enabled
// by input en and an even number of inverters, enabled at t=1 and run to
// a horizon that sets the job size.
func genRing(rng *rand.Rand, idx int, size, form, scale float64) kernelJob {
	invs := 2 * (1 + int(form*3))
	var b strings.Builder
	fmt.Fprintf(&b, "circuit ring%d\ninput en\noutput o\ngate n0 NAND2 init=1\n", idx)
	for k := 1; k <= invs; k++ {
		fmt.Fprintf(&b, "gate n%d NOT init=%d\n", k, (k+1)%2)
	}
	b.WriteString("channel en n0 0 zero\n")
	loop := 0.0
	for k := 1; k <= invs+1; k++ {
		d := between(rng, 0.5, 2)
		loop += d
		fmt.Fprintf(&b, "channel n%d n%d %d pure d=%s\n", k-1, k%(invs+1), k/(invs+1), num(d))
	}
	b.WriteString("channel n0 o 0 zero\n")
	// Every node toggles twice per period of twice the loop delay: events
	// grow as nodes × horizon / loop delay.
	events := sized(size, [3][2]float64{{150, 1500}, {3000, 9000}, {25000, 40000}}, scale)
	horizon := 1 + float64(events)*loop/float64(invs+1)
	return kernelJob{
		name:    fmt.Sprintf("ring%d", idx),
		family:  "ring",
		netlist: b.String(),
		inputs:  map[string]signal.Signal{"en": edges(signal.Low, []float64{1})},
		horizon: horizon,
	}
}

// genDAG is a random DAG of 2-input gates with fanout. About half the
// edges are zero-delay, and the inputs toggle on a coarse time grid so
// several change at once: zero-delay fan-in then needs several delta
// rounds per timestamp.
func genDAG(rng *rand.Rand, idx int, size, form, scale float64) kernelJob {
	nIn := 2 + rng.Intn(3)
	nGates := 12 + int(form*37)
	const nOut = 3
	kinds := []string{"AND2", "OR2", "NAND2", "NOR2", "XOR2", "XNOR2"}
	eval := func(kind string, a, b int) int {
		switch kind {
		case "AND2":
			return a & b
		case "OR2":
			return a | b
		case "NAND2":
			return 1 - (a & b)
		case "NOR2":
			return 1 - (a | b)
		case "XOR2":
			return a ^ b
		default:
			return 1 - (a ^ b)
		}
	}
	var b, chans strings.Builder
	fmt.Fprintf(&b, "circuit dag%d\n", idx)
	type gate struct {
		kind string
		pins [2]int // node indices
	}
	names := make([]string, 0, nIn+nGates)
	levels := make([]int, 0, nIn+nGates) // value before the first input transition
	for k := 0; k < nIn; k++ {
		fmt.Fprintf(&b, "input x%d\n", k)
		names = append(names, fmt.Sprintf("x%d", k))
		levels = append(levels, 0)
	}
	for k := 0; k < nOut; k++ {
		fmt.Fprintf(&b, "output y%d\n", k)
	}
	gates := make([]gate, 0, nGates)
	for g := 0; g < nGates; g++ {
		name := fmt.Sprintf("g%d", g)
		gt := gate{kind: kinds[rng.Intn(len(kinds))]}
		for pin := range gt.pins {
			// Any earlier node: paths stay a few gates deep, so reconvergent
			// glitches cannot multiply without bound.
			from := rng.Intn(len(names))
			gt.pins[pin] = from
			switch r := rng.Float64(); {
			case r < 0.5:
				fmt.Fprintf(&chans, "channel %s %s %d zero\n", names[from], name, pin)
			case r < 0.85:
				fmt.Fprintf(&chans, "channel %s %s %d pure d=%s\n", names[from], name, pin, num(between(rng, 0.1, 1)))
			default:
				d := between(rng, 0.2, 1)
				fmt.Fprintf(&chans, "channel %s %s %d inertial d=%s w=%s\n", names[from], name, pin, num(d), num(between(rng, 0.05, d)))
			}
		}
		level := eval(gt.kind, levels[gt.pins[0]], levels[gt.pins[1]])
		fmt.Fprintf(&b, "gate %s %s init=%d\n", name, gt.kind, level)
		gates = append(gates, gt)
		names = append(names, name)
		levels = append(levels, level)
	}
	for k := 0; k < nOut; k++ {
		fmt.Fprintf(&chans, "channel g%d y%d 0 zero\n", nGates-1-k, k)
	}
	b.WriteString(chans.String())

	// How many gate outputs one input toggle flips, on average, by plain
	// logic evaluation: the stimulus length is set from it, so a DAG whose
	// wiring masks most toggles gets a longer stimulus than one that
	// propagates them all, and every DAG of a size class does similar work.
	probe := rand.New(rand.NewSource(rng.Int63()))
	vals := append([]int(nil), levels...)
	flips := 0
	const probeToggles = 256
	for t := 0; t < probeToggles; t++ {
		vals[probe.Intn(nIn)] ^= 1
		for g, gt := range gates {
			v := eval(gt.kind, vals[gt.pins[0]], vals[gt.pins[1]])
			if v != vals[nIn+g] {
				vals[nIn+g] = v
				flips++
			}
		}
	}
	perToggle := 1 + float64(flips)/probeToggles
	events := sized(size, [3][2]float64{{150, 1200}, {2000, 4000}, {4000, 6000}}, scale)
	steps := max(1, int(float64(events)/perToggle/float64(nIn)))
	inputs := make(map[string]signal.Signal, nIn)
	var last float64
	for k := 0; k < nIn; k++ {
		times := make([]float64, 0, steps)
		t := 0.0
		for s := 0; s < steps; s++ {
			t += 0.5 * float64(1+rng.Intn(4))
			times = append(times, t)
		}
		last = max(last, t)
		inputs[fmt.Sprintf("x%d", k)] = edges(signal.Low, times)
	}
	return kernelJob{
		name:    fmt.Sprintf("dag%d", idx),
		family:  "dag",
		netlist: b.String(),
		inputs:  inputs,
		horizon: last + 10,
	}
}
