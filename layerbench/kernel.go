package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"involution/internal/circuit"
	"involution/internal/netlist"
	"involution/internal/sim"
)

// kernelBench holds a kernel-glitch corpus and the reference digest of
// every job's output, taken on the set-up pass.
type kernelBench struct {
	corpus []kernelJob
	ref    [][32]byte
	digest string // over every job's digest, in corpus order
}

// setupKernel generates and parses the corpus, then runs one untimed pass
// that records each job's reference digest.
func setupKernel(seed int64, shape corpusShape) (*kernelBench, error) {
	corpus, err := genCorpus(seed, shape)
	if err != nil {
		return nil, err
	}
	for _, j := range corpus {
		doc, err := netlist.ParseDocument(strings.NewReader(j.netlist))
		if err != nil {
			return nil, fmt.Errorf("corpus job %s: %w", j.name, err)
		}
		if _, err := doc.Build(); err != nil {
			return nil, fmt.Errorf("corpus job %s: %w", j.name, err)
		}
	}
	k := &kernelBench{corpus: corpus, ref: make([][32]byte, len(corpus))}
	all := sha256.New()
	for i := range corpus {
		c, res, err := k.run(i, nil, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("corpus job %s: %w", corpus[i].name, err)
		}
		k.ref[i] = jobDigest(corpus[i].name, c, res)
		all.Write(k.ref[i][:])
	}
	k.digest = hex.EncodeToString(all.Sum(nil))
	return k, nil
}

// run is one job: ParseDocument, Build and sim.Run. While tracing it
// records the job's netlist.parse, netlist.build and sim.run spans under
// parent, with the heap allocations each made.
func (k *kernelBench) run(i int, tr *tracer, ar *allocReader, parent *span) (*circuit.Circuit, *sim.Result, error) {
	j := &k.corpus[i]
	if tr == nil {
		doc, err := netlist.ParseDocument(strings.NewReader(j.netlist))
		if err != nil {
			return nil, nil, err
		}
		c, err := doc.Build()
		if err != nil {
			return nil, nil, err
		}
		res, err := sim.Run(c, j.inputs, sim.Options{Horizon: j.horizon})
		return c, res, err
	}
	call := func(name string, fn func() error) error {
		s := span{ID: tr.newID(), Parent: parent.ID, Job: parent.Job, Name: name}
		a0, b0 := ar.read()
		s.Start = tr.now()
		err := fn()
		s.End = tr.now()
		a1, b1 := ar.read()
		s.Allocs, s.AllocBytes = a1-a0, b1-b0
		tr.add(s)
		return err
	}
	var doc *netlist.Document
	var c *circuit.Circuit
	var res *sim.Result
	err := call("netlist.parse", func() (err error) {
		doc, err = netlist.ParseDocument(strings.NewReader(j.netlist))
		return err
	})
	if err == nil {
		err = call("netlist.build", func() (err error) { c, err = doc.Build(); return err })
	}
	if err == nil {
		err = call("sim.run", func() (err error) {
			res, err = sim.Run(c, j.inputs, sim.Options{Horizon: j.horizon})
			return err
		})
	}
	return c, res, err
}

// jobDigest hashes a job's output signals and its exact kernel counters.
func jobDigest(name string, c *circuit.Circuit, res *sim.Result) [32]byte {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(name))
	for _, o := range c.Outputs() {
		sig := res.Signals[o]
		h.Write([]byte(o))
		u64(uint64(sig.Initial()))
		for _, t := range sig.Transitions() {
			u64(math.Float64bits(t.At))
			u64(uint64(t.To))
		}
	}
	st := res.Stats
	for _, v := range []int64{st.Scheduled, st.Delivered, st.Canceled, st.Annihilated,
		int64(st.QueueHighWater), st.DeltaCycles, int64(st.MaxDeltaRounds)} {
		u64(uint64(v))
	}
	for _, v := range st.DeltaRounds {
		u64(uint64(v))
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// errDigest marks a job whose output differs from the set-up pass's.
var errDigest = errors.New("output digest differs from the set-up pass's")

// pass runs the whole corpus once as one round of ph, checking every
// job's digest against the set-up pass outside the timed segment.
func (k *kernelBench) pass(ph *phase, tr *tracer, ar *allocReader) error {
	return ph.round(func() (int64, error) {
		for i := range k.corpus {
			var root span
			if tr != nil {
				root = span{ID: tr.newID(), Job: tr.newJob(), Name: "bench.job", Start: tr.now()}
			}
			t0 := time.Now()
			c, res, err := k.run(i, tr, ar, &root)
			lat := time.Since(t0)
			if tr != nil {
				root.End = tr.now()
				tr.add(root)
			}
			ph.untimed(func() {
				var st sim.RunStats
				if err == nil {
					st = res.Stats
					if jobDigest(k.corpus[i].name, c, res) != k.ref[i] {
						err = errDigest
					}
				}
				ph.rec.observe(lat, st, err)
			})
		}
		return int64(len(k.corpus)), nil
	})
}

// runKernel is the kernel-glitch workload.
func runKernel(cfg config) (*result, error) {
	shape, ok := corpusShapes[cfg.size]
	if !ok {
		return nil, fmt.Errorf("unknown size %q", cfg.size)
	}
	var k *kernelBench
	var setups []float64
	digestsAgree := true
	for s := 0; s < setupRepeats; s++ {
		t0 := time.Now()
		kb, err := setupKernel(cfg.seed, shape)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k != nil && kb.digest != k.digest {
			digestsAgree = false
		}
		k = kb
	}
	res := &result{Correct: digestsAgree && cfg.digestOK("kernel-glitch", k.digest)}

	if !digestsAgree {
		fmt.Fprintln(cfg.log, "kernel-glitch: corpus digest differs between set-ups")
	}
	fmt.Fprintf(cfg.log, "kernel-glitch: %d jobs, corpus digest %s\n", len(k.corpus), k.digest)

	untraced := &phase{}
	for !untraced.done(cfg.seconds) {
		if err := k.pass(untraced, nil, nil); err != nil {
			return nil, err
		}
	}
	// A job whose output differs from the set-up pass's has failed.
	res.Attempted, res.Failed = untraced.jobs, untraced.rec.errs
	res.Correct = res.Correct && res.Failed == 0
	if !cfg.trace {
		e2e, err := untraced.endToEnd(setups)
		if err != nil {
			return nil, err
		}
		res.Metrics = render(endToEnd, e2e)
		return res, nil
	}

	tr, ar := newTracer(), newAllocReader()
	traced := &phase{}
	for !traced.done(cfg.seconds) {
		if err := k.pass(traced, tr, ar); err != nil {
			return nil, err
		}
	}
	res.Attempted += traced.jobs
	res.Failed += traced.rec.errs
	res.Correct = res.Correct && res.Failed == 0
	spans := tr.snapshot()
	out := map[string]float64{}
	untraced.runtimeLayers(out)
	if err := traceLayers(out, spans, "bench.job", traced.jobs, untraced, traced); err != nil {
		return nil, err
	}
	var simNS, parseNS, buildNS int64
	var simAllocs, simBytes uint64
	for _, s := range spans {
		switch s.Name {
		case "sim.run":
			simNS += s.dur()
			simAllocs += s.Allocs
			simBytes += s.AllocBytes
		case "netlist.parse":
			parseNS += s.dur()
		case "netlist.build":
			buildNS += s.dur()
		}
	}
	jobs := float64(traced.jobs)
	stats := &traced.rec.stats
	ev := float64(max(stats.Delivered, 1))
	out["sim.events_per_s"] = float64(untraced.rec.stats.Delivered) / untraced.m.wall.Seconds()
	out["sim.ns_per_event"] = float64(simNS) / ev
	out["sim.allocs_per_event"] = float64(simAllocs) / ev
	out["sim.alloc_bytes_per_event"] = float64(simBytes) / ev
	out["sim.events_per_job"] = float64(stats.Delivered) / jobs
	out["sim.scheduled_per_job"] = float64(stats.Scheduled) / jobs
	out["sim.canceled_per_job"] = float64(stats.Canceled) / jobs
	out["sim.delta_cycles_per_job"] = float64(stats.DeltaCycles) / jobs
	out["sim.queue_hwm_max"] = float64(stats.QueueHighWater)
	out["netlist.parse_ms_per_job"] = float64(parseNS) / 1e6 / jobs
	out["netlist.build_ms_per_job"] = float64(buildNS) / 1e6 / jobs
	if err := cfg.writeSpans(spans); err != nil {
		return nil, err
	}
	res.Metrics = render(perLayer, out)
	return res, nil
}
