package sim_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"involution/internal/adversary"
	"involution/internal/channel"
	"involution/internal/circuit"
	"involution/internal/core"
	"involution/internal/delay"
	"involution/internal/experiments"
	"involution/internal/fault"
	"involution/internal/gate"
	"involution/internal/netlist"
	"involution/internal/signal"
	"involution/internal/sim"
)

// The golden corpus pins the kernel's exact output: for every case, a
// SHA-256 digest over each node's recorded signal and the exact RunStats
// counters (or, for a run that aborts, the error and its partial stats).
// Any change to event order, cancellation, delta cycles or transition
// recording changes a digest. A failure prints each differing or missing
// case as a "name digest" line of testdata/golden.txt; replace lines only
// for a deliberate change of kernel behaviour.
const goldenFile = "testdata/golden.txt"

// goldenCase is one pinned simulation.
type goldenCase struct {
	name   string
	c      *circuit.Circuit
	inputs map[string]signal.Signal
	opts   sim.Options
}

// digest hashes a run's outcome: every node's signal in circuit order and
// the exact counters, or the abort error with its partial counters.
func digest(c *circuit.Circuit, res *sim.Result, err error) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	var st sim.RunStats
	if err != nil {
		str("error")
		str(err.Error())
		var ae *sim.AbortError
		if errors.As(err, &ae) {
			st = ae.Stats
		}
	} else {
		str("ok")
		u64(uint64(res.Events))
		for _, n := range c.Nodes() {
			sig, ok := res.Signals[n.Name]
			if !ok {
				str("missing " + n.Name)
				continue
			}
			str(n.Name)
			u64(uint64(sig.Initial()))
			u64(uint64(sig.Len()))
			for _, tr := range sig.Transitions() {
				u64(math.Float64bits(tr.At))
				u64(uint64(tr.To))
			}
		}
		st = res.Stats
	}
	for _, v := range []int64{st.Scheduled, st.Delivered, st.Canceled, st.Annihilated,
		int64(st.QueueHighWater), st.DeltaCycles, int64(st.MaxDeltaRounds)} {
		u64(uint64(v))
	}
	for _, v := range st.DeltaRounds {
		u64(uint64(v))
	}
	chans := make([]string, 0, len(st.CancelsByChannel))
	for ch := range st.CancelsByChannel {
		chans = append(chans, ch)
	}
	sort.Strings(chans)
	for _, ch := range chans {
		str(ch)
		u64(uint64(st.CancelsByChannel[ch]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenCorpus(t *testing.T) {
	cases := goldenCases(t)
	got := make(map[string]string, len(cases))
	for _, gc := range cases {
		if _, dup := got[gc.name]; dup {
			t.Fatalf("duplicate golden case %q", gc.name)
		}
		res, err := sim.Run(gc.c, gc.inputs, gc.opts)
		got[gc.name] = digest(gc.c, res, err)
	}
	want := readGolden(t)
	for _, gc := range cases {
		w, ok := want[gc.name]
		switch {
		case !ok:
			t.Errorf("no golden digest; line: %s %s", gc.name, got[gc.name])
		case w != got[gc.name]:
			t.Errorf("digest changed (golden %s); line: %s %s", w, gc.name, got[gc.name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("golden digest %q has no case", name)
		}
	}
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, d, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[name] = d
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// goldenCases builds the seeded corpus. Every channel instance carries its
// own adversary state, so the outcome does not depend on the order in
// which simultaneous gates are evaluated.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	var cases []goldenCase
	add := func(name string, c *circuit.Circuit, inputs map[string]signal.Signal, opts sim.Options) {
		cases = append(cases, goldenCase{name: name, c: c, inputs: inputs, opts: opts})
	}
	parse := func(text string) *circuit.Circuit {
		c, err := netlist.Parse(strings.NewReader(text))
		if err != nil {
			t.Fatalf("golden netlist: %v\n%s", err, text)
		}
		return c
	}

	// Every shipped channel model on a BUF/INV chain fed a glitch train
	// straddling the cancellation threshold; the involution kinds under
	// every adversary class.
	involutionKinds := map[string]string{
		"exp":   "exp tau=1 tp=0.5 vth=0.6 eta+=0.04 eta-=0.03",
		"blend": "blend tau=1 tp=0.5 vth=0.6 tau2=0.6 vth2=0.4 w=0.5 eta+=0.04 eta-=0.03",
	}
	adversaries := []struct{ name, opts string }{
		{"zero", ""},
		{"worst", "adversary=worst"},
		{"maxup", "adversary=maxup"},
		{"uniform", "adversary=uniform seed=11"},
		{"gauss", "adversary=gauss seed=12 sigma=0.7"},
		{"walk", "adversary=walk seed=13"},
		{"sine", "adversary=sine amp=0.05 period=7 phase=0.3"},
	}
	for _, kind := range []string{"exp", "blend"} {
		for _, adv := range adversaries {
			spec := involutionKinds[kind] + " " + adv.opts
			c, in, h := chainCase(parse, 5, spec, 101)
			add("chain/"+kind+"/"+adv.name, c, in, sim.Options{Horizon: h})
		}
	}
	for _, m := range []struct{ name, spec string }{
		{"pure", "pure d=0.7"},
		{"inertial", "inertial d=0.8 w=0.45"},
		{"ddm", "ddm tp0=0.8 tau=0.3 t0=0.1"},
	} {
		c, in, h := chainCase(parse, 5, m.spec, 102)
		add("chain/"+m.name, c, in, sim.Options{Horizon: h})
	}
	{
		// The generic single-history channel has no netlist kind.
		sh := channel.SingleHistory{Name: "sh", Delay: func(T float64, rising bool) float64 {
			d := 0.6
			if !rising {
				d = 0.5
			}
			return d * (1 - math.Exp(-(T+0.4)/0.5))
		}}
		c := circuit.New("sh")
		must(t, c.AddInput("i"))
		must(t, c.AddOutput("o"))
		prev := "i"
		for k := 1; k <= 4; k++ {
			g := fmt.Sprintf("g%d", k)
			must(t, c.AddGate(g, gate.Buf(), signal.Low))
			must(t, c.Connect(prev, g, 0, sh))
			prev = g
		}
		must(t, c.Connect(prev, "o", 0, nil))
		in, h := glitchTrain(rand.New(rand.NewSource(103)), 150)
		add("chain/single-history", c, map[string]signal.Signal{"i": in}, sim.Options{Horizon: h})
	}

	// Fault-injection wrappers: duplicated edges (Extra outputs that
	// interleave with later primaries), swallowed deliveries and delay
	// pushouts that reorder the pending list.
	for _, f := range []struct {
		name string
		m    fault.Model
	}{
		{"dup", fault.Dup{Gap: 0.9, Width: 0.3}},
		{"dup-wide", fault.Dup{Gap: 4, Width: 0.5}},
		{"drop", fault.Drop{From: 20, Count: 7}},
		{"pushout", fault.DelayPushout{DUp: 0.6, DDown: 0}},
	} {
		base, in, h := chainCase(parse, 3, "pure d=0.7", 104)
		fc, fin, err := f.m.Instrument(base, fault.Site{From: "g1", To: "g2", Pin: 0, Channel: true}, in, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		add("fault/"+f.name, fc, fin, sim.Options{Horizon: h})
	}

	// The Fig. 5 SPF loop under each adversary, one input pulse in each of
	// Theorem 9's bands: certain cancel, certain lock, and just below and
	// just above the metastable threshold Δ̃₀.
	for _, adv := range []string{"zero", "worst", "maxup", "uniform", "walk"} {
		doc, sys, err := experiments.SPFNetlist(adv, 21)
		if err != nil {
			t.Fatal(err)
		}
		c, err := doc.Build()
		if err != nil {
			t.Fatal(err)
		}
		a := sys.Analysis
		horizon := 60 * (a.LockBound + a.Period)
		for _, band := range []struct {
			name  string
			width float64
		}{
			{"cancel", 0.5 * a.CancelBound},
			{"lock", 1.5 * a.LockBound},
			{"meta-below", a.Delta0Tilde * (1 - 1e-7)},
			{"meta-above", a.Delta0Tilde * (1 + 1e-7)},
		} {
			in := signal.MustPulse(1, band.width)
			add("spf/"+adv+"/"+band.name, c, map[string]signal.Signal{"i": in}, sim.Options{Horizon: horizon})
		}
		// A train mixing the bands, spaced so the loop settles in between.
		rng := rand.New(rand.NewSource(22))
		settle := a.LockBound + a.Period
		var times []float64
		at := 1.0
		for p := 0; p < 40; p++ {
			var w float64
			switch rng.Intn(3) {
			case 0:
				w = (0.2 + 0.75*rng.Float64()) * a.CancelBound
			case 1:
				w = a.Delta0Tilde * (1 - math.Pow(10, -2-7*rng.Float64()))
			default:
				w = a.Delta0Tilde * (1 + math.Pow(10, -2-7*rng.Float64()))
			}
			times = append(times, at, at+w)
			at += (2 + 2*rng.Float64()) * settle
		}
		in, err := signal.FromEdges(signal.Low, times...)
		if err != nil {
			t.Fatal(err)
		}
		add("spf/"+adv+"/train", c, map[string]signal.Signal{"i": in}, sim.Options{Horizon: at + settle})
	}

	// η just inside and just outside constraint (C): the SPF loop with the
	// reference exp channel and η⁻ on either side of the largest value (C)
	// allows, driven near the reference Δ̃₀.
	{
		_, sys, err := experiments.SPFNetlist("zero", 1)
		if err != nil {
			t.Fatal(err)
		}
		pair, err := delay.Exp(experiments.ReferenceExp)
		if err != nil {
			t.Fatal(err)
		}
		etaPlus := experiments.ReferenceEta.Plus
		maxMinus, err := core.MaxEtaMinus(pair, etaPlus)
		if err != nil {
			t.Fatal(err)
		}
		a := sys.Analysis
		buf := sys.Buffer
		for _, side := range []struct {
			name  string
			minus float64
		}{{"inside", maxMinus - 1e-3}, {"outside", maxMinus + 1e-3}} {
			ch, err := core.New(pair, adversary.Eta{Plus: etaPlus, Minus: side.minus})
			if err != nil {
				t.Fatal(err)
			}
			ok, _, err := ch.ConstraintC()
			if err != nil || ok != (side.name == "inside") {
				t.Fatalf("η⁻=%g: constraint (C) holds=%v, err=%v", side.minus, ok, err)
			}
			for _, adv := range []string{"worst", "uniform seed=31"} {
				text := fmt.Sprintf(`circuit spfc
input i
output o
gate or OR2 init=0
gate ht BUF init=0
channel i or 0 zero
channel or or 1 exp tau=%s tp=%s vth=%s eta+=%s eta-=%s adversary=%s
channel or ht 0 exp tau=%s tp=%s vth=%s
channel ht o 0 zero
`, num(experiments.ReferenceExp.Tau), num(experiments.ReferenceExp.TP), num(experiments.ReferenceExp.Vth),
					num(etaPlus), num(side.minus), adv, num(buf.Tau), num(buf.TP), num(buf.Vth))
				c := parse(text)
				for _, w := range []float64{0.99 * a.Delta0Tilde, 1.01 * a.Delta0Tilde} {
					in := signal.MustPulse(1, w)
					name := fmt.Sprintf("eta-c/%s/%s/%g", side.name, strings.Fields(adv)[0], w/a.Delta0Tilde)
					add(name, c, map[string]signal.Signal{"i": in}, sim.Options{Horizon: 200})
				}
			}
		}
	}

	// Ring feedback: a pure-delay NAND ring oscillator, an involution ring
	// under a seeded adversary, and a ring stopped by the event budget
	// (pinning the abort error and its partial statistics).
	ring := func(model string, invs int) *circuit.Circuit {
		var b strings.Builder
		fmt.Fprintf(&b, "circuit ring\ninput en\noutput o\ngate n0 NAND2 init=1\n")
		for k := 1; k <= invs; k++ {
			fmt.Fprintf(&b, "gate n%d NOT init=%d\n", k, (k+1)%2)
		}
		b.WriteString("channel en n0 0 zero\n")
		for k := 1; k <= invs+1; k++ {
			fmt.Fprintf(&b, "channel n%d n%d %d %s\n", k-1, k%(invs+1), k/(invs+1), model)
		}
		b.WriteString("channel n0 o 0 zero\n")
		return parse(b.String())
	}
	enable := map[string]signal.Signal{"en": signal.MustNew(signal.Low, signal.Transition{At: 1, To: signal.High})}
	add("ring/pure", ring("pure d=0.9", 4), enable, sim.Options{Horizon: 400})
	add("ring/exp-uniform", ring("exp tau=1 tp=0.5 vth=0.6 eta+=0.04 eta-=0.03 adversary=uniform seed=41", 2), enable, sim.Options{Horizon: 400})
	add("ring/budget", ring("pure d=0.5", 2), enable, sim.Options{Horizon: 1e6, MaxEvents: 3000})

	// A zero-delay BUF chain deeper than the delta-round budget.
	{
		var b strings.Builder
		b.WriteString("circuit deep\ninput i\noutput o\n")
		prev := "i"
		for k := 1; k <= 6; k++ {
			fmt.Fprintf(&b, "gate z%d BUF init=0\nchannel %s z%d 0 zero\n", k, prev, k)
			prev = fmt.Sprintf("z%d", k)
		}
		fmt.Fprintf(&b, "channel %s o 0 zero\n", prev)
		add("delta-budget", parse(b.String()), map[string]signal.Signal{"i": signal.MustPulse(1, 1)}, sim.Options{Horizon: 10, MaxDeltas: 3})
	}

	// Latch feedback: a cross-coupled NOR SR latch with pure and with
	// involution channels, set, reset, and released from S=R=1 at once
	// (both gates switch in the same delta round).
	for _, m := range []struct{ name, spec string }{
		{"pure", "pure d=1"},
		{"exp-walk", "exp tau=1 tp=0.5 vth=0.6 eta+=0.04 eta-=0.03 adversary=walk seed=51"},
		{"inertial", "inertial d=1 w=0.6"},
	} {
		text := fmt.Sprintf(`circuit sr
input s
input r
output q
output qn
gate a NOR2 init=0
gate b NOR2 init=1
channel r a 0 zero
channel s b 0 zero
channel b a 1 %[1]s
channel a b 1 %[1]s
channel a q 0 zero
channel b qn 0 zero
`, m.spec)
		c := parse(text)
		s, _ := signal.FromEdges(signal.Low, 2, 3, 10, 14, 30, 30.2, 40, 45)
		r, _ := signal.FromEdges(signal.Low, 6, 7, 10, 14, 20, 20.3, 50, 50.1)
		add("latch/"+m.name, c, map[string]signal.Signal{"s": s, "r": r}, sim.Options{Horizon: 120})
	}

	// Random DAGs of 2-input gates with zero-delay fan-in: inputs toggle on
	// a coarse grid, so zero-delay reconvergence needs several delta rounds
	// per timestamp.
	for seed := int64(1); seed <= 6; seed++ {
		c, in, h := dagCase(parse, seed)
		add(fmt.Sprintf("dag/%d", seed), c, in, sim.Options{Horizon: h})
	}

	// Zero-input constant gates mixed into logic.
	add("const-gates", parse(`circuit konst
input i
output o
output k
gate one CONST1 init=0
gate zero CONST0 init=1
gate a AND2 init=0
gate x XOR2 init=0
channel i a 0 zero
channel one a 1 pure d=0.5
channel a x 0 pure d=0.3
channel zero x 1 zero
channel x o 0 zero
channel one k 0 zero
`), map[string]signal.Signal{"i": signal.MustPulse(1, 2)}, sim.Options{Horizon: 10})

	// A watch monitor aborting on the first short pulse.
	{
		c, in, h := chainCase(parse, 3, "pure d=0.7", 105)
		add("watch/min-pulse", c, in, sim.Options{Horizon: h, Watch: map[string]sim.Monitor{"o": sim.MinPulseMonitor(0.35)}})
	}
	return cases
}

// chainCase is a BUF/INV chain of the given channel spec fed a seeded
// glitch train.
func chainCase(parse func(string) *circuit.Circuit, stages int, spec string, seed int64) (*circuit.Circuit, map[string]signal.Signal, float64) {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	fmt.Fprintf(&b, "circuit chain\ninput i\noutput o\n")
	level := 0
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
		fmt.Fprintf(&b, "channel %s g%d 0 %s\n", prev, s, spec)
		prev = fmt.Sprintf("g%d", s)
	}
	fmt.Fprintf(&b, "channel %s o 0 zero\n", prev)
	in, h := glitchTrain(rng, 200)
	return parse(b.String()), map[string]signal.Signal{"i": in}, h + 4*float64(stages)
}

// glitchTrain draws pulses of width 0.2–1.2 separated by gaps of 0.3–2.
func glitchTrain(rng *rand.Rand, pulses int) (signal.Signal, float64) {
	times := make([]float64, 0, 2*pulses)
	at := 1.0
	for p := 0; p < pulses; p++ {
		w := 0.2 + rng.Float64()
		times = append(times, at, at+w)
		at += w + 0.3 + 1.7*rng.Float64()
	}
	in, err := signal.FromEdges(signal.Low, times...)
	if err != nil {
		panic(err)
	}
	return in, at
}

// dagCase is a random DAG of 2-input gates: half the edges zero-delay, the
// rest pure or inertial.
func dagCase(parse func(string) *circuit.Circuit, seed int64) (*circuit.Circuit, map[string]signal.Signal, float64) {
	rng := rand.New(rand.NewSource(seed))
	kinds := []string{"AND2", "OR2", "NAND2", "NOR2", "XOR2", "XNOR2"}
	nIn, nGates := 3, 24
	var b, chans strings.Builder
	b.WriteString("circuit dag\n")
	var names []string
	for k := 0; k < nIn; k++ {
		fmt.Fprintf(&b, "input x%d\n", k)
		names = append(names, fmt.Sprintf("x%d", k))
	}
	for k := 0; k < 3; k++ {
		fmt.Fprintf(&b, "output y%d\n", k)
	}
	for g := 0; g < nGates; g++ {
		name := fmt.Sprintf("g%d", g)
		fmt.Fprintf(&b, "gate %s %s init=0\n", name, kinds[rng.Intn(len(kinds))])
		for pin := 0; pin < 2; pin++ {
			from := names[rng.Intn(len(names))]
			switch r := rng.Float64(); {
			case r < 0.5:
				fmt.Fprintf(&chans, "channel %s %s %d zero\n", from, name, pin)
			case r < 0.85:
				fmt.Fprintf(&chans, "channel %s %s %d pure d=%s\n", from, name, pin, num(0.1+0.9*rng.Float64()))
			default:
				d := 0.2 + 0.8*rng.Float64()
				fmt.Fprintf(&chans, "channel %s %s %d inertial d=%s w=%s\n", from, name, pin, num(d), num(0.05+(d-0.05)*rng.Float64()))
			}
		}
		names = append(names, name)
	}
	for k := 0; k < 3; k++ {
		fmt.Fprintf(&chans, "channel g%d y%d 0 zero\n", nGates-1-k, k)
	}
	b.WriteString(chans.String())
	inputs := make(map[string]signal.Signal, nIn)
	var last float64
	for k := 0; k < nIn; k++ {
		var times []float64
		at := 0.0
		for s := 0; s < 120; s++ {
			at += 0.5 * float64(1+rng.Intn(4))
			times = append(times, at)
		}
		last = math.Max(last, at)
		sig, err := signal.FromEdges(signal.Low, times...)
		if err != nil {
			panic(err)
		}
		inputs[fmt.Sprintf("x%d", k)] = sig
	}
	return parse(b.String()), inputs, last + 10
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
