package sim_test

import (
	"math/rand"
	"testing"

	"involution/internal/adversary"
	"involution/internal/channel"
	"involution/internal/circuit"
	"involution/internal/core"
	"involution/internal/delay"
	"involution/internal/experiments"
	"involution/internal/gate"
	"involution/internal/signal"
	"involution/internal/sim"
)

// TestSharedAdversaryDeterministic fans input i through zero-delay edges
// into four BUF gates that switch in the same delta round. Each gate drives
// its own output port through an involution channel, and all four channels
// draw from one shared uniform adversary, so the η values each channel
// receives depend on the order in which the gates are evaluated. Run's
// evaluation-order guarantee makes every run of the same stimulus
// identical.
func TestSharedAdversaryDeterministic(t *testing.T) {
	pair, err := delay.Exp(experiments.ReferenceExp)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := core.New(pair, experiments.ReferenceEta)
	if err != nil {
		t.Fatal(err)
	}
	in := signal.MustNew(signal.Low,
		signal.Transition{At: 1, To: signal.High}, signal.Transition{At: 2.5, To: signal.Low},
		signal.Transition{At: 4, To: signal.High}, signal.Transition{At: 4.7, To: signal.Low},
		signal.Transition{At: 6, To: signal.High}, signal.Transition{At: 9, To: signal.Low})
	outs := []string{"o0", "o1", "o2", "o3"}

	run := func() map[string]signal.Signal {
		shared := adversary.Uniform{Rng: rand.New(rand.NewSource(7))}
		model, err := channel.NewInvolution(ch, func() adversary.Strategy { return shared })
		if err != nil {
			t.Fatal(err)
		}
		c := circuit.New("fan")
		must(t, c.AddInput("i"))
		for _, o := range outs {
			g := "g" + o[1:]
			must(t, c.AddGate(g, gate.Buf(), signal.Low))
			must(t, c.AddOutput(o))
			must(t, c.Connect("i", g, 0, nil))
			must(t, c.Connect(g, o, 0, model))
		}
		res, err := sim.Run(c, map[string]signal.Signal{"i": in}, sim.Options{Horizon: 20})
		if err != nil {
			t.Fatal(err)
		}
		return res.Signals
	}

	ref := run()
	for _, o := range outs {
		if ref[o].Len() == 0 {
			t.Fatalf("%s recorded no transitions: %v", o, ref[o])
		}
	}
	for r := 1; r < 50; r++ {
		got := run()
		for _, o := range outs {
			if !got[o].Equal(ref[o], 0) {
				t.Fatalf("run %d: %s = %v, first run gave %v", r, o, got[o], ref[o])
			}
		}
	}
}
