package channel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"involution/internal/adversary"
	"involution/internal/core"
	"involution/internal/delay"
	"involution/internal/signal"
)

func TestNewPureValidation(t *testing.T) {
	if _, err := NewPure(0); err == nil {
		t.Error("want error for zero delay")
	}
	if _, err := NewPure(-1); err == nil {
		t.Error("want error for negative delay")
	}
	if _, err := NewPure(math.Inf(1)); err == nil {
		t.Error("want error for infinite delay")
	}
	if _, err := NewPure(1); err != nil {
		t.Error("valid delay rejected")
	}
}

func TestPureShifts(t *testing.T) {
	p, _ := NewPure(2.5)
	in := signal.MustPulse(1, 3)
	out, err := p.Apply(in)
	if err != nil {
		t.Fatal(err)
	}
	want := signal.MustPulse(3.5, 3)
	if !out.Equal(want, 1e-12) {
		t.Fatalf("got %v want %v", out, want)
	}
	if p.String() == "" {
		t.Error("empty String")
	}
}

func TestPureNeverCancels(t *testing.T) {
	p, _ := NewPure(5)
	in, err := signal.Train(0, 0.001, 0.002, 50)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Apply(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != in.Len() {
		t.Fatalf("pure delay dropped transitions: %d -> %d", in.Len(), out.Len())
	}
}

func TestNewInertialValidation(t *testing.T) {
	for _, c := range []struct{ d, w float64 }{{0, 0.5}, {-1, 0.5}, {1, 0}, {1, -0.1}, {1, 1.5}} {
		if _, err := NewInertial(c.d, c.w); err == nil {
			t.Errorf("NewInertial(%g, %g): want error", c.d, c.w)
		}
	}
	if _, err := NewInertial(1, 1); err != nil {
		t.Error("W = D must be allowed")
	}
}

func TestInertialFiltersShortPulses(t *testing.T) {
	c, _ := NewInertial(2, 1)
	// Short pulse absorbed.
	out, err := c.Apply(signal.MustPulse(5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if !out.IsZero() {
		t.Fatalf("short pulse must be absorbed, got %v", out)
	}
	// Long pulse passes, shifted.
	out, err = c.Apply(signal.MustPulse(5, 1.5))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(signal.MustPulse(7, 1.5), 1e-12) {
		t.Fatalf("long pulse wrong: %v", out)
	}
	// Pulse exactly W passes (strict < in the absorption test).
	out, err = c.Apply(signal.MustPulse(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if out.IsZero() {
		t.Fatal("pulse of exactly W must pass")
	}
}

func TestInertialAbsorbsShortGap(t *testing.T) {
	// Two pulses separated by a short low gap merge into one.
	c, _ := NewInertial(2, 1)
	in, err := signal.FromEdges(signal.Low, 0, 3, 3.2, 6)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Apply(in)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(signal.MustPulse(2, 6), 1e-12) {
		t.Fatalf("gap not absorbed: %v", out)
	}
}

func TestInertialSharpThreshold(t *testing.T) {
	// The inertial channel has the discontinuous all-or-nothing behavior
	// that makes bounded single-history models unfaithful: pulse length
	// W−ε vanishes, W+ε passes at full length.
	c, _ := NewInertial(2, 1)
	eps := 1e-9
	below, _ := c.Apply(signal.MustPulse(0, 1-eps))
	above, _ := c.Apply(signal.MustPulse(0, 1+eps))
	if !below.IsZero() {
		t.Fatal("below threshold must vanish")
	}
	if above.Len() != 2 || math.Abs((above.Transition(1).At-above.Transition(0).At)-(1+eps)) > 1e-12 {
		t.Fatalf("above threshold must pass unattenuated: %v", above)
	}
}

func TestDDMValidation(t *testing.T) {
	good := DDMBranch{TP0: 1, Tau: 0.5, T0: 0.1}
	if _, err := NewSymmetricDDM(good); err != nil {
		t.Fatal(err)
	}
	for _, b := range []DDMBranch{
		{TP0: 0, Tau: 1, T0: 0},
		{TP0: 1, Tau: 0, T0: 0},
		{TP0: 1, Tau: 1, T0: -1},
	} {
		if _, err := NewSymmetricDDM(b); err == nil {
			t.Errorf("NewSymmetricDDM(%+v): want error", b)
		}
	}
}

func TestDDMDegradation(t *testing.T) {
	b := DDMBranch{TP0: 1, Tau: 0.5, T0: 0.1}
	d, _ := NewSymmetricDDM(b)
	// Widely spaced transitions see the full nominal delay.
	in := signal.MustPulse(0, 50)
	out, err := d.Apply(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("long pulse must pass: %v", out)
	}
	if math.Abs(out.Transition(0).At-b.TP0) > 1e-9 {
		t.Errorf("nominal delay: rise at %g want %g", out.Transition(0).At, b.TP0)
	}
	// A closely following transition sees a degraded (smaller) delay.
	in2 := signal.MustPulse(0, 1.3)
	out2, err := d.Apply(in2)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Len() != 2 {
		t.Fatalf("medium pulse must pass: %v", out2)
	}
	upOut := out2.Transition(1).At - out2.Transition(0).At
	if upOut >= 1.3 {
		t.Errorf("DDM must attenuate the pulse: in 1.3 out %g", upOut)
	}
	// Very short pulses cancel.
	out3, err := d.Apply(signal.MustPulse(0, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	if !out3.IsZero() {
		t.Fatalf("short pulse must cancel: %v", out3)
	}
}

func TestDDMBranchDelayFormula(t *testing.T) {
	b := DDMBranch{TP0: 2, Tau: 1, T0: 0.5}
	if got := b.Delay(b.T0); math.Abs(got) > 1e-12 {
		t.Errorf("Delay(T0) = %g want 0", got)
	}
	if got := b.Delay(1e9); math.Abs(got-b.TP0) > 1e-9 {
		t.Errorf("Delay(∞) = %g want %g", got, b.TP0)
	}
	if b.Delay(b.T0-0.2) >= 0 {
		t.Error("delay below T0 must be negative (suppression)")
	}
}

func TestSingleHistoryGeneric(t *testing.T) {
	sh := SingleHistory{
		Name: "const-ish",
		Delay: func(T float64, rising bool) float64 {
			if rising {
				return 1
			}
			return 2
		},
	}
	out, err := sh.Apply(signal.MustPulse(0, 5))
	if err != nil {
		t.Fatal(err)
	}
	want := signal.MustNew(signal.Low, signal.Transition{At: 1, To: signal.High}, signal.Transition{At: 7, To: signal.Low})
	if !out.Equal(want, 1e-12) {
		t.Fatalf("got %v want %v", out, want)
	}
	if sh.String() != "const-ish" {
		t.Errorf("String = %q", sh.String())
	}
	if (SingleHistory{}).String() != "single-history" {
		t.Error("default name wrong")
	}
}

func involutionModel(t *testing.T, eta adversary.Eta, strat func() adversary.Strategy) Involution {
	t.Helper()
	pair := delay.MustExp(delay.ExpParams{Tau: 1, TP: 0.5, Vth: 0.6})
	ch := core.MustNew(pair, eta)
	m, err := NewInvolution(ch, strat)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestInvolutionAdapterMatchesCore(t *testing.T) {
	m := involutionModel(t, adversary.Eta{}, nil)
	in, err := signal.Train(0, 2, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Apply(in)
	if err != nil {
		t.Fatal(err)
	}
	want := m.Ch.MustApply(in, adversary.Zero{})
	if !got.Equal(want, 0) {
		t.Fatalf("adapter mismatch:\n%v\n%v", got, want)
	}
	if m.String() != "involution" {
		t.Errorf("String = %q", m.String())
	}
	mEta := involutionModel(t, adversary.Eta{Plus: 0.01, Minus: 0.01}, nil)
	if mEta.String() == "involution" {
		t.Error("η model must include bounds in String")
	}
}

func TestNewInvolutionValidation(t *testing.T) {
	if _, err := NewInvolution(nil, nil); err == nil {
		t.Error("want error for nil channel")
	}
	pair := delay.MustExp(delay.ExpParams{Tau: 1, TP: 0.5, Vth: 0.6})
	// η⁻ beyond the causality margin is rejected.
	big := core.MustNew(pair, adversary.Eta{Minus: 10})
	if _, err := NewInvolution(big, nil); err == nil {
		t.Error("want error for huge η⁻")
	}
}

func TestRunMatchesApplyAllModels(t *testing.T) {
	// Strictly causal models (δ(T) > 0 for T ≥ 0) agree exactly between
	// their offline channel function and the online instance. DDM is not
	// strictly causal (delay ≤ 0 near T0) and is checked separately.
	pure, _ := NewPure(1.5)
	inert, _ := NewInertial(2, 0.8)
	inv := involutionModel(t, adversary.Eta{}, nil)
	models := []Model{pure, inert, inv}

	cfg := &quick.Config{MaxCount: 150}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(16)
		times := make([]float64, n)
		tt := r.Float64()
		for i := range times {
			times[i] = tt
			tt += 0.05 + 4*r.Float64()
		}
		in, err := signal.FromEdges(signal.Low, times...)
		if err != nil {
			return false
		}
		for _, m := range models {
			off, err1 := m.Apply(in)
			on, err2 := Run(m, in)
			if err1 != nil || err2 != nil {
				return false
			}
			if !off.Equal(on, 1e-9) {
				t.Logf("model %v: offline %v online %v (input %v)", m, off, on, in)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunDDMWellSpaced(t *testing.T) {
	// For inputs spaced widely enough that the DDM delay stays positive and
	// no cancellation occurs, online and offline agree exactly.
	ddm, _ := NewSymmetricDDM(DDMBranch{TP0: 1, Tau: 0.5, T0: 0.1})
	in, err := signal.Train(0, 4, 9, 5)
	if err != nil {
		t.Fatal(err)
	}
	off, err := ddm.Apply(in)
	if err != nil {
		t.Fatal(err)
	}
	on, err := Run(ddm, in)
	if err != nil {
		t.Fatal(err)
	}
	if !off.Equal(on, 1e-12) {
		t.Fatalf("offline %v online %v", off, on)
	}
}

func TestRunDDMAcausalDivergenceIsBounded(t *testing.T) {
	// DDM is not strictly causal: its offline channel function may cancel
	// transitions that an executing simulation has already delivered. The
	// online form must still produce a valid signal with the input's final
	// value for arbitrary inputs.
	ddm, _ := NewSymmetricDDM(DDMBranch{TP0: 1, Tau: 0.5, T0: 0.1})
	r := rand.New(rand.NewSource(5424815065746332533))
	for trial := 0; trial < 100; trial++ {
		n := r.Intn(16)
		times := make([]float64, n)
		tt := r.Float64()
		for i := range times {
			times[i] = tt
			tt += 0.05 + 4*r.Float64()
		}
		in, err := signal.FromEdges(signal.Low, times...)
		if err != nil {
			t.Fatal(err)
		}
		on, err := Run(ddm, in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if on.Final() != in.Final() && (in.Len()-on.Len())%2 != 0 {
			t.Fatalf("trial %d: inconsistent online output %v for %v", trial, on, in)
		}
	}
}

func TestRunMatchesApplyEtaInvolution(t *testing.T) {
	// With a deterministic per-index adversary, the online and offline
	// forms of the η-channel agree (fresh strategy per instance).
	etas := []float64{0.05, -0.05, 0.02, -0.02, 0.05, 0, 0.01, -0.03}
	mk := func() adversary.Strategy { return adversary.Sequence{Etas: etas} }
	m := involutionModel(t, adversary.Eta{Plus: 0.05, Minus: 0.05}, mk)
	in, err := signal.Train(0, 2, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	off, err := m.Apply(in)
	if err != nil {
		t.Fatal(err)
	}
	on, err := Run(m, in)
	if err != nil {
		t.Fatal(err)
	}
	if !off.Equal(on, 1e-12) {
		t.Fatalf("offline %v online %v", off, on)
	}
}

func TestHistoryInstancePastDueClamp(t *testing.T) {
	// A step function that schedules into the past with nothing pending is
	// clamped to just after "now".
	calls := 0
	inst := newHistoryInstance(func(t float64, _ bool) float64 {
		calls++
		if calls == 1 {
			return t + 1 // fires long before the next input
		}
		return t - 5 // past-due
	})
	a1 := inst.Input(0, signal.High)
	if !a1.Schedule || a1.At != 1 {
		t.Fatalf("first action %+v", a1)
	}
	a2 := inst.Input(10, signal.Low)
	if !a2.Schedule || a2.At <= 10 || a2.At > 10.0001 {
		t.Fatalf("past-due not clamped to now: %+v", a2)
	}
}

func TestHistoryInstanceInputAllocationFree(t *testing.T) {
	// Steady-state Input must not allocate, whether the pending list stays
	// deep (a long delay behind a fast train, as on the simulator's
	// DeepPendingRetirement workload) or drains between inputs.
	for _, tc := range []struct {
		name     string
		delay    float64
		interval float64
	}{{"deep", 500, 0.5}, {"shallow", 0.3, 1}} {
		p, err := NewPure(tc.delay)
		if err != nil {
			t.Fatal(err)
		}
		inst := p.NewInstance()
		now, v := 0.0, signal.Low
		input := func() {
			now += tc.interval
			v = v.Not()
			if act := inst.Input(now, v); !act.Schedule || act.At != now+tc.delay {
				t.Fatalf("%s: action %+v at t=%g", tc.name, act, now)
			}
		}
		for i := 0; i < 5000; i++ {
			input()
		}
		if got := testing.AllocsPerRun(5000, input); got != 0 {
			t.Errorf("%s: %v allocs per steady-state Input, want 0", tc.name, got)
		}
	}
}
