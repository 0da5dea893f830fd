// Package channel provides the classical delay-channel models that the
// involution model is compared against — pure delay, inertial delay
// (Unger), the Degradation Delay Model (Bellido-Díaz et al.) and generic
// bounded single-history channels — plus the adapter that exposes the
// η-involution channel of package core under the same interface.
//
// Every model offers two forms:
//
//   - Apply: the offline mathematical channel function mapping a complete
//     input signal to the output signal, and
//   - NewInstance: a stateful online form consumed by the event-driven
//     simulator, which processes input transitions one at a time and emits
//     schedule/cancel actions.
//
// The online form matches Apply except in one documented corner: a
// transition whose tentative output time lies in the past relative to the
// current simulation time (possible for single-history channels after a
// cancellation) is clamped to the current time, since an executing
// simulation cannot rewrite history.
package channel

import (
	"fmt"
	"math"

	"involution/internal/signal"
)

// Action is the command an Instance returns to the simulator for one input
// transition.
type Action struct {
	// Cancel requests cancellation of the channel's most recently
	// scheduled output transition that is still pending.
	Cancel bool
	// Schedule requests scheduling of a new output transition at time At
	// with value To.
	Schedule bool
	At       float64
	To       signal.Value
	// Extra holds additional output transitions to schedule after the
	// primary one, with strictly increasing times greater than At. No
	// classical channel model emits extras; fault-injection wrappers
	// (package fault) use them to append duplicate/echo transitions.
	Extra []signal.Transition
}

// Instance is the stateful online form of a channel, consumed by the
// event-driven simulator. Input must be called with strictly increasing
// transition times of alternating values.
type Instance interface {
	Input(t float64, to signal.Value) Action
}

// Model is a delay-channel model.
type Model interface {
	// Apply is the channel function: it maps a complete input signal to
	// the channel output signal.
	Apply(s signal.Signal) (signal.Signal, error)
	// NewInstance returns fresh online state for one channel edge.
	NewInstance() Instance
	// String names the model with its parameters.
	String() string
}

// Run drives a model's online instance over a complete input signal and
// collects the resulting output signal. It is the reference harness the
// event simulator replicates, and is used to cross-check Apply against the
// online form.
func Run(m Model, s signal.Signal) (signal.Signal, error) {
	inst := m.NewInstance()
	var sched []signal.Transition // all scheduled, in order; pending suffix
	for i := 0; i < s.Len(); i++ {
		tr := s.Transition(i)
		act := inst.Input(tr.At, tr.To)
		if act.Cancel {
			if len(sched) == 0 || sched[len(sched)-1].At <= tr.At {
				return signal.Signal{}, fmt.Errorf("channel: cancel with no pending output at t=%g", tr.At)
			}
			sched = sched[:len(sched)-1]
		}
		if act.Schedule {
			if len(sched) > 0 && act.At <= sched[len(sched)-1].At {
				return signal.Signal{}, fmt.Errorf("channel: non-FIFO schedule at %g after %g", act.At, sched[len(sched)-1].At)
			}
			sched = append(sched, signal.Transition{At: act.At, To: act.To})
		}
		for _, ex := range act.Extra {
			if len(sched) > 0 && ex.At <= sched[len(sched)-1].At {
				return signal.Signal{}, fmt.Errorf("channel: non-FIFO extra schedule at %g after %g", ex.At, sched[len(sched)-1].At)
			}
			sched = append(sched, ex)
		}
	}
	out, err := signal.New(s.Initial(), sched...)
	if err != nil {
		return signal.Signal{}, fmt.Errorf("channel: online run produced invalid signal: %w", err)
	}
	return out, nil
}

// historyInstance implements the online form shared by all single-history
// channels (pure, DDM, involution, …): a step function yields the tentative
// output time of each input transition; non-FIFO tentative outputs cancel
// pairwise against the latest pending output; past-due outputs with nothing
// pending are clamped to the current time.
type historyInstance struct {
	step func(t float64, rising bool) float64
	// pending[head:] holds the scheduled output times still pending. Fired
	// entries advance head; the dead prefix is copied away only when the
	// backing array is full and at least half dead, so Input is amortized
	// O(1) and allocation-free in steady state.
	pending   []float64
	head      int
	lastFired float64 // latest output time known delivered
}

func newHistoryInstance(step func(t float64, rising bool) float64) *historyInstance {
	return &historyInstance{step: step, lastFired: math.Inf(-1)}
}

func (h *historyInstance) Input(t float64, to signal.Value) Action {
	// Retire entries that have fired by now.
	for h.head < len(h.pending) && h.pending[h.head] <= t {
		h.lastFired = h.pending[h.head]
		h.head++
	}
	if h.head == len(h.pending) {
		h.pending, h.head = h.pending[:0], 0
	}
	out := h.step(t, to == signal.High)
	if n := len(h.pending); n > h.head && h.pending[n-1] >= out {
		h.pending = h.pending[:n-1]
		return Action{Cancel: true}
	}
	if out <= t || out <= h.lastFired {
		// Past-due output with nothing to cancel against: clamp to "now"
		// (the online divergence documented on the package).
		out = math.Nextafter(math.Max(t, h.lastFired), math.Inf(1))
	}
	if len(h.pending) == cap(h.pending) && 2*h.head >= len(h.pending) {
		h.pending = h.pending[:copy(h.pending, h.pending[h.head:])]
		h.head = 0
	}
	h.pending = append(h.pending, out)
	return Action{Schedule: true, At: out, To: to}
}

// applySingleHistory is the offline output-generation algorithm shared by
// all single-history channels: tentative output times from the step
// function, pairwise cancellation of non-FIFO transitions.
func applySingleHistory(s signal.Signal, step func(t float64, rising bool) float64) (signal.Signal, error) {
	stack := make([]signal.Transition, 0, s.Len())
	for i := 0; i < s.Len(); i++ {
		tr := s.Transition(i)
		out := step(tr.At, tr.Rising())
		if len(stack) > 0 && stack[len(stack)-1].At >= out {
			stack = stack[:len(stack)-1]
			continue
		}
		stack = append(stack, signal.Transition{At: out, To: tr.To})
	}
	res, err := signal.New(s.Initial(), stack...)
	if err != nil {
		return signal.Signal{}, fmt.Errorf("channel: output not a valid signal: %w", err)
	}
	return res, nil
}
