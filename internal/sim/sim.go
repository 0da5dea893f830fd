// Package sim is a deterministic event-driven simulator for circuits whose
// edges are delay channels (package channel) and whose vertices are
// zero-time gates (package gate) — the execution semantics of the circuit
// model of Függer et al. It supports feedback loops, per-edge channel
// state, transition cancellation (as performed by commercial simulators
// that drop non-FIFO transitions), and records the full signal at every
// node.
//
// The kernel is index-based: nodes and edges are addressed by index,
// events are values in a slab ordered by a 4-ary heap of slot ids,
// canceled events stay queued as tombstones until popped, delta cycles run
// on reusable epoch-stamped worklists, and per-edge pending lists are
// head-indexed FIFOs. None of these allocate per event. Runs are
// deterministic by construction; Run documents the evaluation order.
package sim

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"involution/internal/channel"
	"involution/internal/circuit"
	"involution/internal/signal"
)

// Options configures a simulation run.
type Options struct {
	// Horizon is the time up to which events are processed (inclusive).
	// Executions of circuits with feedback may be infinite; the horizon
	// bounds the run.
	Horizon float64
	// MaxEvents caps the number of processed events (default 1 << 20);
	// exceeding it aborts the run with an error.
	MaxEvents int
	// MaxDeltas caps zero-delay propagation rounds within one timestamp
	// (default 10000).
	MaxDeltas int
	// Deadline bounds the wall-clock time of the run. When positive and
	// exceeded, the run aborts with ErrDeadline wrapped in an AbortError
	// carrying the partial statistics — graceful degradation instead of a
	// runaway simulation. Zero disables the deadline.
	Deadline time.Duration
	// Context, when non-nil, cancels the run cooperatively: cancellation
	// is checked once per delivered event batch, so an in-flight run stops
	// at the next event instead of running to the horizon. A canceled run
	// aborts with ErrCanceled wrapped in an AbortError carrying the
	// partial statistics, exactly like the budget and deadline guards.
	Context context.Context
	// Watch holds online monitors: for each named node, the monitor is
	// invoked on every recorded transition of that node; a non-nil return
	// aborts the run immediately with a WatchError. Monitors enable
	// early-abort verification of long executions (e.g. runt detection)
	// without recording and post-processing full traces.
	Watch map[string]Monitor
	// Observer, when non-nil, receives scheduler callbacks for every
	// scheduled, delivered and canceled event, every finished delta cycle
	// and every annihilated zero-width pulse. Leave nil for the fast path:
	// no hook dispatch is performed, only the RunStats counters.
	Observer Observer

	// noTimeCheck disables the scheduling-time validation (NaN/±Inf and
	// time-travel rejection). Only the validation-cost benchmark sets it;
	// it is deliberately not exported.
	noTimeCheck bool
}

// Monitor observes one node's transitions during simulation.
type Monitor func(t float64, v signal.Value) error

// WatchError reports a monitor abort.
type WatchError struct {
	Node string
	At   float64
	Err  error
}

// Error describes the violated monitor.
func (e *WatchError) Error() string {
	return fmt.Sprintf("sim: watch on %q violated at t=%g: %v", e.Node, e.At, e.Err)
}

// Unwrap returns the monitor's error.
func (e *WatchError) Unwrap() error { return e.Err }

// MinPulseMonitor returns a Monitor that fails when two consecutive
// transitions of the node are closer than eps — an online version of
// condition F4 ("no output pulse shorter than ε").
func MinPulseMonitor(eps float64) Monitor {
	last := math.Inf(-1)
	return func(t float64, _ signal.Value) error {
		defer func() { last = t }()
		if t-last < eps {
			return fmt.Errorf("pulse of length %g < ε = %g", t-last, eps)
		}
		return nil
	}
}

// DefaultMaxEvents is the event budget applied when Options.MaxEvents is
// zero. Exported so budget-escalating retry policies can escalate from the
// effective default rather than from zero.
const DefaultMaxEvents = 1 << 20

func (o *Options) setDefaults() error {
	if !(o.Horizon > 0) || math.IsInf(o.Horizon, 0) || math.IsNaN(o.Horizon) {
		return fmt.Errorf("sim: horizon %g must be positive and finite", o.Horizon)
	}
	if o.MaxEvents == 0 {
		o.MaxEvents = DefaultMaxEvents
	}
	if o.MaxDeltas == 0 {
		o.MaxDeltas = 10000
	}
	return nil
}

// Result holds the outcome of a run.
type Result struct {
	// Signals maps every node name (ports and gates) to its recorded
	// signal, truncated at the horizon.
	Signals map[string]signal.Signal
	// Events is the number of delivered (non-canceled) events.
	Events int
	// Horizon echoes the configured horizon.
	Horizon float64
	// Stats is the execution profile of the run; it is populated on every
	// run (aborted runs surface theirs through *AbortError).
	Stats RunStats
}

// event is a scheduled transition delivery. Events live by value in the
// simulation's slab and are referred to by their slot id.
type event struct {
	at       float64
	seq      int64
	edge     int32 // index into edges; -1 for input-port stimuli
	node     int32 // destination node index
	pin      int32
	to       signal.Value
	canceled bool // tombstone: stays queued until popped
}

type nodeState struct {
	node   *circuit.Node
	eval   func([]signal.Value) signal.Value // gates only
	val    signal.Value
	trs    []signal.Transition
	pins   []signal.Value
	fanout []int32 // indices into the simulation's edge list
	watch  Monitor // nil unless Options.Watch names the node
	mark   uint64  // epoch of the node's last worklist insertion
	stim   int32   // input ports: index into the simulation's stimuli
}

// stimulus is one input port's transition list. Its transitions take
// consecutive sequence numbers at setup, but only the next one sits in the
// heap: the port's later transitions cannot be due before it.
type stimulus struct {
	sig  signal.Signal
	node int32
	seq  int64 // sequence number of sig's first transition
	next int   // index of the transition in the heap
}

type edgeState struct {
	inst     channel.Instance
	from, to int32 // node indices
	pin      int32
	pending  pendingList // slot ids of scheduled, undelivered outputs
}

// Run simulates the circuit with the given input-port signals up to the
// horizon and returns the recorded signals of every node.
//
// Runs are deterministic by construction. Events at one timestamp are
// applied in scheduling order. Within a delta cycle, nodes are evaluated in
// the order they joined the worklist, and changed nodes propagate, in the
// order they changed, through their fanout edges in circuit edge order;
// the time-0 evaluation visits nodes in circuit order. Channel instances
// are therefore called in the same order on every run, so adversaries that
// share state across edges (one RNG for several channels) reproduce
// exactly.
//
// A panic raised while simulating (by a gate function, channel model or
// adversary strategy) is recovered and returned as a *PanicError wrapped in
// an *AbortError with the partial statistics, so one bad scenario cannot
// kill a many-run campaign.
func Run(c *circuit.Circuit, inputs map[string]signal.Signal, opts Options) (res *Result, err error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	var s *simulation
	defer func() {
		if r := recover(); r != nil {
			pe := &PanicError{Value: r, Stack: string(debug.Stack())}
			res = nil
			if s != nil {
				err = s.abort(pe)
			} else {
				err = &AbortError{Err: pe}
			}
		}
	}()
	s, err = newSimulation(c, inputs, opts)
	if err != nil {
		return nil, err
	}
	return s.run()
}

type simulation struct {
	opts  Options
	obs   Observer
	nodes []nodeState
	edges []edgeState
	slab  []event // event storage; free holds the reusable slot ids
	free  []int32
	heap  []int32 // 4-ary min-heap of slot ids ordered by (at, seq)
	stims []stimulus
	// deferred counts scheduled stimuli not yet in the heap; the event
	// queue's length is len(heap) + deferred.
	deferred int
	seq      int64
	now      float64
	count    int
	epoch    uint64 // worklist stamp; bumped per delta round and watch pass

	// Buffers reused across timestamps.
	batch, touched, changed, next []int32
	dirty                         []int32 // watched nodes recorded this delta cycle

	stats       RunStats
	start       time.Time
	edgeCancels []int64  // per-edge cancellation counts
	edgeLabels  []string // lazily built "from→to/pin" labels
}

func newSimulation(c *circuit.Circuit, inputs map[string]signal.Signal, opts Options) (*simulation, error) {
	s := &simulation{opts: opts, obs: opts.Observer, start: time.Now()}

	// Per-node state with initial values: input ports take the stimulus
	// initial value, gates their declared initial output. The name index
	// is needed only while wiring the circuit up.
	nodes := c.Nodes()
	edges := c.Edges()
	s.nodes = make([]nodeState, len(nodes))
	index := make(map[string]int32, len(nodes))
	npins := 0
	for _, n := range nodes {
		switch n.Kind {
		case circuit.KindGate:
			npins += n.Fn.Arity
		case circuit.KindOutput:
			npins++
		}
	}
	pins := make([]signal.Value, npins)
	for i, n := range nodes {
		ns := &s.nodes[i]
		ns.node = n
		index[n.Name] = int32(i)
		switch n.Kind {
		case circuit.KindInput:
			in, ok := inputs[n.Name]
			if !ok {
				return nil, fmt.Errorf("sim: no stimulus for input port %q", n.Name)
			}
			ns.val = in.Initial()
		case circuit.KindGate:
			ns.val = n.Initial
			ns.eval = n.Fn.Eval
			ns.pins, pins = pins[:n.Fn.Arity:n.Fn.Arity], pins[n.Fn.Arity:]
		case circuit.KindOutput:
			ns.pins, pins = pins[:1:1], pins[1:]
		}
	}
	for name := range inputs {
		i, ok := index[name]
		if !ok {
			return nil, fmt.Errorf("sim: stimulus for unknown input port %q", name)
		}
		if s.nodes[i].node.Kind != circuit.KindInput {
			return nil, fmt.Errorf("sim: stimulus target %q is not an input port", name)
		}
	}
	for name, mon := range opts.Watch {
		i, ok := index[name]
		if !ok {
			return nil, fmt.Errorf("sim: watch on unknown node %q", name)
		}
		s.nodes[i].watch = mon
	}

	// Edge channel instances; pin initial values copy the initial value of
	// their source.
	s.edges = make([]edgeState, len(edges))
	nfan := make([]int32, len(nodes))
	for i, e := range edges {
		es := &s.edges[i]
		es.from, es.to, es.pin = index[e.From], index[e.To], int32(e.Pin)
		if e.Model != nil {
			es.inst = e.Model.NewInstance()
		}
		s.nodes[es.to].pins[es.pin] = s.nodes[es.from].val
		nfan[es.from]++
	}
	// Per-node fanout indices, carved out of one backing array.
	fan := make([]int32, 0, len(edges))
	for i := range s.nodes {
		s.nodes[i].fanout = fan[len(fan) : len(fan) : len(fan)+int(nfan[i])]
		fan = fan[:len(fan)+int(nfan[i])]
	}
	for i := range s.edges {
		ns := &s.nodes[s.edges[i].from]
		ns.fanout = append(ns.fanout, int32(i))
	}
	// Output port initial values follow their driver.
	for i := range s.nodes {
		if ns := &s.nodes[i]; ns.node.Kind == circuit.KindOutput {
			ns.val = ns.pins[0]
		}
	}

	s.edgeCancels = make([]int64, len(s.edges))

	// Schedule the input stimuli: every transition is validated, counted
	// and numbered now; each port's first one enters the heap.
	for _, name := range c.Inputs() {
		in, i := inputs[name], index[name]
		s.nodes[i].stim = int32(len(s.stims))
		s.stims = append(s.stims, stimulus{sig: in, node: i, seq: s.seq})
		for j := 0; j < in.Len(); j++ {
			tr := in.Transition(j)
			if err := s.checkTime(tr.At, i, -1); err != nil {
				return nil, s.abort(err)
			}
			s.seq++
			s.deferred++
			s.scheduled()
			if s.obs != nil {
				s.obs.EventScheduled(Event{Now: 0, At: tr.At, To: tr.To, Node: name})
			}
		}
	}
	for k := range s.stims {
		s.nextStimulus(int32(k))
	}
	return s, nil
}

// checkTime rejects non-finite and time-traveling delivery times before
// they can corrupt the heap order (a NaN compares false against
// everything, so it would silently break the queue invariant).
func (s *simulation) checkTime(at float64, node, edge int32) error {
	if s.opts.noTimeCheck || !(math.IsNaN(at) || math.IsInf(at, 0) || at < s.now) {
		return nil
	}
	te := &EventTimeError{At: at, Now: s.now, Node: s.name(node)}
	if edge >= 0 {
		te.Channel = s.edgeLabel(int(edge))
	}
	return te
}

// scheduled counts one newly scheduled event and tracks the queue's high
// water mark.
func (s *simulation) scheduled() {
	s.stats.Scheduled++
	if n := len(s.heap) + s.deferred; n > s.stats.QueueHighWater {
		s.stats.QueueHighWater = n
	}
}

// push validates a channel output event, numbers it and queues it,
// returning its slot id.
func (s *simulation) push(e event) (int32, error) {
	if err := s.checkTime(e.at, e.node, e.edge); err != nil {
		return 0, err
	}
	e.seq = s.seq
	s.seq++
	id := s.insert(e)
	s.scheduled()
	return id, nil
}

// insert stores e in a free slab slot and adds it to the heap.
func (s *simulation) insert(e event) int32 {
	var id int32
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
		s.slab[id] = e
	} else {
		id = int32(len(s.slab))
		s.slab = append(s.slab, e)
	}
	s.heapPush(id)
	return id
}

// nextStimulus moves stimulus k's next transition, if any, into the heap
// under the sequence number it was given at setup.
func (s *simulation) nextStimulus(k int32) {
	st := &s.stims[k]
	if st.next == st.sig.Len() {
		return
	}
	tr := st.sig.Transition(st.next)
	s.insert(event{at: tr.At, seq: st.seq + int64(st.next), to: tr.To, edge: -1, node: st.node})
	st.next++
	s.deferred--
}

// edgeLabel returns the "from→to/pin" channel label for edge i, cached
// after first use.
func (s *simulation) edgeLabel(i int) string {
	if s.edgeLabels == nil {
		s.edgeLabels = make([]string, len(s.edges))
	}
	if s.edgeLabels[i] == "" {
		e := &s.edges[i]
		s.edgeLabels[i] = fmt.Sprintf("%s→%s/%d", s.name(e.from), s.name(e.to), e.pin)
	}
	return s.edgeLabels[i]
}

// name returns the name of node i.
func (s *simulation) name(i int32) string { return s.nodes[i].node.Name }

// finalizeStats stamps the wall clock and materializes the per-channel
// cancellation map (only channels that actually canceled).
func (s *simulation) finalizeStats() {
	s.stats.Duration = time.Since(s.start)
	for i, n := range s.edgeCancels {
		if n == 0 {
			continue
		}
		if s.stats.CancelsByChannel == nil {
			s.stats.CancelsByChannel = make(map[string]int64)
		}
		s.stats.CancelsByChannel[s.edgeLabel(i)] += n
	}
}

// abort wraps a mid-run error with the partial statistics.
func (s *simulation) abort(err error) error {
	s.finalizeStats()
	return &AbortError{Stats: s.stats, Err: err}
}

func (s *simulation) run() (*Result, error) {
	// Time-0 evaluation: gate outputs switch from their declared initial
	// value to the Boolean function of their (initial) inputs.
	if err := s.deltaCycle(0, nil); err != nil {
		return nil, s.abort(err)
	}
	if err := s.runWatches(0); err != nil {
		return nil, s.abort(err)
	}

	for len(s.heap) > 0 {
		t := s.slab[s.heap[0]].at
		if t > s.opts.Horizon {
			break
		}
		// Collect every event at exactly this timestamp; tombstones of
		// canceled events free their slot here.
		batch := s.batch[:0]
		for len(s.heap) > 0 && s.slab[s.heap[0]].at == t {
			id := s.heapPop()
			e := &s.slab[id]
			if e.canceled {
				s.free = append(s.free, id)
				continue
			}
			if e.edge < 0 {
				s.nextStimulus(s.nodes[e.node].stim)
			}
			batch = append(batch, id)
		}
		s.batch = batch
		if len(batch) == 0 {
			continue
		}
		s.now = t
		s.count += len(batch)
		s.stats.Delivered += int64(len(batch))
		if s.obs != nil {
			for _, id := range batch {
				e := &s.slab[id]
				ev := Event{Now: t, At: e.at, To: e.to, Node: s.name(e.node)}
				if e.edge >= 0 {
					ev.Channel = s.edgeLabel(int(e.edge))
				}
				s.obs.EventDelivered(ev)
			}
		}
		if s.count > s.opts.MaxEvents {
			return nil, s.abort(fmt.Errorf("%w: budget %d at t=%g", ErrEventBudget, s.opts.MaxEvents, t))
		}
		if s.opts.Deadline > 0 && time.Since(s.start) > s.opts.Deadline {
			return nil, s.abort(fmt.Errorf("%w: %v elapsed at t=%g after %d events", ErrDeadline, s.opts.Deadline, t, s.count))
		}
		if s.opts.Context != nil {
			if cerr := s.opts.Context.Err(); cerr != nil {
				return nil, s.abort(fmt.Errorf("%w at t=%g after %d events: %v", ErrCanceled, t, s.count, cerr))
			}
		}
		if err := s.deltaCycle(t, batch); err != nil {
			return nil, s.abort(err)
		}
		if err := s.runWatches(t); err != nil {
			return nil, s.abort(err)
		}
	}

	s.finalizeStats()
	res := &Result{Signals: make(map[string]signal.Signal, len(s.nodes)), Events: s.count, Horizon: s.opts.Horizon, Stats: s.stats}
	for i := range s.nodes {
		ns := &s.nodes[i]
		var initial signal.Value
		switch ns.node.Kind {
		case circuit.KindGate:
			initial = ns.node.Initial
		default:
			if len(ns.trs) > 0 {
				// Reconstruct the initial value from the first transition.
				initial = ns.trs[0].To.Not()
			} else {
				initial = ns.val
			}
		}
		sig, err := signal.New(initial, ns.trs...)
		if err != nil {
			return nil, &AbortError{Stats: s.stats, Err: fmt.Errorf("sim: node %q recorded invalid signal: %w", ns.node.Name, err)}
		}
		res.Signals[ns.node.Name] = sig
	}
	return res, nil
}

// deltaCycle applies a batch of simultaneous events at time t and iterates
// zero-delay propagation until the circuit is stable at this timestamp,
// recording the round count in the stats histogram.
func (s *simulation) deltaCycle(t float64, batch []int32) error {
	rounds, err := s.deltaRun(t, batch)
	if err != nil {
		return err
	}
	s.stats.observeDeltaRounds(rounds)
	if s.obs != nil {
		s.obs.DeltaCycleDone(t, rounds)
	}
	return nil
}

// touch adds node i to the worklist unless it is already on it in the
// current epoch.
func (s *simulation) touch(i int32) {
	if ns := &s.nodes[i]; ns.mark != s.epoch {
		ns.mark = s.epoch
		s.touched = append(s.touched, i)
	}
}

// deltaRun is the delta-cycle body; it returns the number of evaluation
// rounds the timestamp needed to stabilize. Each round evaluates the
// worklist of gates and output ports whose pins changed (touched), then
// propagates the nodes whose value changed (changed) through their fanout;
// both lists keep insertion order.
func (s *simulation) deltaRun(t float64, batch []int32) (int, error) {
	s.epoch++
	s.touched, s.changed = s.touched[:0], s.changed[:0]

	for _, id := range batch {
		e := s.slab[id]
		s.free = append(s.free, id)
		if e.edge < 0 {
			// Input-port stimuli propagate like gate outputs.
			if ns := &s.nodes[e.node]; ns.val != e.to {
				ns.val = e.to
				s.record(e.node, t, e.to)
				s.changed = append(s.changed, e.node)
			}
			continue
		}
		// Retire this event from the edge's pending list: per-channel
		// output times are strictly increasing and canceled events leave
		// the list when canceled, so the fired event sits at the front.
		s.edges[e.edge].pending.remove(id)
		s.nodes[e.node].pins[e.pin] = e.to
		s.touch(e.node)
	}

	if batch == nil {
		// Initial evaluation touches every gate and output port.
		for i := range s.nodes {
			if s.nodes[i].node.Kind != circuit.KindInput {
				s.touch(int32(i))
			}
		}
	}

	for round := 0; ; round++ {
		if round > s.opts.MaxDeltas {
			return round, fmt.Errorf("%w at t=%g", errOscillation, t)
		}
		// Evaluate touched gates and output ports.
		for _, i := range s.touched {
			ns := &s.nodes[i]
			var newV signal.Value
			if ns.eval != nil {
				newV = ns.eval(ns.pins)
			} else {
				newV = ns.pins[0] // output port
			}
			if newV != ns.val {
				ns.val = newV
				s.record(i, t, newV)
				s.changed = append(s.changed, i)
			}
		}
		s.touched = s.touched[:0]
		s.epoch++
		if len(s.changed) == 0 {
			return round + 1, nil
		}
		// Propagate changes through outgoing edges.
		s.next, s.changed = s.changed, s.next[:0]
		for _, i := range s.next {
			v := s.nodes[i].val
			for _, idx := range s.nodes[i].fanout {
				es := &s.edges[idx]
				if es.inst == nil {
					// Zero-delay edge: deliver within this timestamp.
					s.nodes[es.to].pins[es.pin] = v
					s.touch(es.to)
					continue
				}
				if err := s.input(idx, es, t, v); err != nil {
					return round + 1, err
				}
			}
		}
		if len(s.touched) == 0 {
			return round + 1, nil
		}
	}
}

// input feeds a transition of edge idx's source into its channel instance
// and applies the resulting cancel/schedule action.
func (s *simulation) input(idx int32, es *edgeState, t float64, v signal.Value) error {
	act := es.inst.Input(t, v)
	if act.Cancel {
		last, ok := es.pending.last()
		if !ok {
			return fmt.Errorf("sim: channel %s→%s canceled with no pending output at t=%g", s.name(es.from), s.name(es.to), t)
		}
		le := &s.slab[last]
		if le.at <= t {
			return fmt.Errorf("sim: channel %s→%s canceled an already-fired output at t=%g", s.name(es.from), s.name(es.to), t)
		}
		le.canceled = true
		es.pending.dropLast()
		s.stats.Canceled++
		s.edgeCancels[idx]++
		if s.obs != nil {
			s.obs.EventCanceled(Event{Now: t, At: le.at, To: le.to, Node: s.name(es.to), Channel: s.edgeLabel(int(idx))})
		}
	}
	if act.Schedule {
		// No defensive clamp here: well-behaved instances clamp past-due
		// outputs themselves (the documented online divergence), so a
		// past/non-finite time is a bug in the producing model and push
		// rejects it as ErrBadEventTime.
		if err := s.schedule(idx, es, t, act.At, act.To); err != nil {
			return err
		}
	}
	for _, ex := range act.Extra {
		if err := s.schedule(idx, es, t, ex.At, ex.To); err != nil {
			return err
		}
	}
	return nil
}

// schedule queues an output transition of edge idx and appends it to the
// edge's pending list.
func (s *simulation) schedule(idx int32, es *edgeState, now, at float64, to signal.Value) error {
	id, err := s.push(event{at: at, to: to, edge: idx, node: es.to, pin: es.pin})
	if err != nil {
		return err
	}
	es.pending.push(id)
	if s.obs != nil {
		s.obs.EventScheduled(Event{Now: now, At: at, To: to, Node: s.name(es.to), Channel: s.edgeLabel(int(idx))})
	}
	return nil
}

// record appends a transition to node i, annihilating a same-time
// opposite pair, and queues watched nodes for the post-delta watch pass.
func (s *simulation) record(i int32, t float64, v signal.Value) {
	ns := &s.nodes[i]
	if ns.watch != nil {
		s.dirty = append(s.dirty, i)
	}
	if n := len(ns.trs); n > 0 && ns.trs[n-1].At == t && ns.trs[n-1].To == v.Not() {
		ns.trs = ns.trs[:n-1]
		s.stats.Annihilated++
		if s.obs != nil {
			s.obs.Annihilation(ns.node.Name, t)
		}
		return
	}
	ns.trs = append(ns.trs, signal.Transition{At: t, To: v})
}

// runWatches invokes monitors, in first-recorded order, for watched nodes
// whose recorded signal gained a transition at time t during the
// just-finished delta cycle (annihilated zero-width artifacts are not
// reported).
func (s *simulation) runWatches(t float64) error {
	if len(s.dirty) == 0 {
		return nil
	}
	s.epoch++
	for _, i := range s.dirty {
		ns := &s.nodes[i]
		if ns.mark == s.epoch {
			continue
		}
		ns.mark = s.epoch
		if n := len(ns.trs); n > 0 && ns.trs[n-1].At == t {
			if err := ns.watch(t, ns.trs[n-1].To); err != nil {
				return &WatchError{Node: ns.node.Name, At: t, Err: err}
			}
		}
	}
	s.dirty = s.dirty[:0]
	return nil
}
