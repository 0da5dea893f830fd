package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"involution/internal/lake"
	"involution/internal/obs"
	"involution/internal/server/api"
)

// sweepBench is the state of a sweep run: the node, the client fleet and
// the temporary directory holding lakes and journals.
type sweepBench struct {
	cfg      config
	shape    sweepShape
	warm     bool
	dir      string
	n        *node
	f        *fleet
	journals int
	// next is the index of the next sweep-cold campaign.
	next int
	// report is sweep-cold's merged report of the check-set campaigns.
	report *merged
	// fixture is sweep-warm's reference report of the check set, taken
	// while populating the lake.
	fixture *merged
	tally   sweepTally
	openMS  []float64
}

// journal names a fresh coordinator checkpoint journal.
func (b *sweepBench) journal() string {
	b.journals++
	return filepath.Join(b.dir, fmt.Sprintf("journal-%d.jsonl", b.journals))
}

// checkpoint is the journal a timed coordinator writes: sweep-cold
// journals every shard, as `simctl sweep -checkpoint` does; sweep-warm
// runs without one, so its figures are the read path's alone and carry no
// fsync.
func (b *sweepBench) checkpoint() string {
	if b.warm {
		return ""
	}
	return b.journal()
}

// buildFixture populates a lake the way a sweep-cold pass would: warm-up
// campaigns plus the check set, through a fresh node and coordinator.
func (b *sweepBench) buildFixture(lakeDir string, warmups, check []*campaign) error {
	f := newFleet()
	defer f.close()
	n, _, err := startNode(lakeDir, f.p)
	if err != nil {
		return err
	}
	if err := f.connect(n.addr, b.journal()); err != nil {
		n.close()
		return err
	}
	b.fixture = newMerged()
	rec := &jobRecorder{}
	for i, c := range append(warmups, check...) {
		rep, err := f.runCampaign(c, rec, nil)
		if err != nil {
			n.close()
			return err
		}
		if i >= len(warmups) {
			b.fixture.add(c.label, rep)
		}
	}
	f.closeCoord()
	return n.close()
}

// setup starts a node (over a fresh lake for sweep-cold, over the fixture
// lake for sweep-warm) and a coordinator, then runs the warm-up batch.
func (b *sweepBench) setup(lakeDir string, warmups []*campaign) (time.Duration, error) {
	t0 := time.Now()
	f := newFleet()
	n, openTime, err := startNode(lakeDir, f.p)
	if err != nil {
		return 0, err
	}
	b.n, b.f = n, f
	b.openMS = append(b.openMS, ms(openTime))
	if err := f.connect(n.addr, b.checkpoint()); err != nil {
		return 0, err
	}
	rec := &jobRecorder{}
	for _, c := range warmups {
		if _, err := f.runCampaign(c, rec, nil); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

func (b *sweepBench) teardown() error {
	if b.f != nil {
		b.f.close()
	}
	var err error
	if b.n != nil {
		err = b.n.close()
	}
	b.n, b.f = nil, nil
	return err
}

// coldRound runs the next round of fresh campaigns as one sweep: a fresh
// coordinator journal against a node restarted over a fresh, empty lake.
// The restart keeps the node's job table (simd retains every job record)
// and the lake's index from growing the heap with the length of the run.
func (b *sweepBench) coldRound(ph *phase, tr *tracer) error {
	cs, err := campaigns(b.cfg.seed, b.next, b.shape.round)
	if err != nil {
		return err
	}
	if err := b.n.remount(filepath.Join(b.dir, fmt.Sprintf("round-lake-%d", b.next))); err != nil {
		return err
	}
	if err := b.f.connect(b.n.addr, b.checkpoint()); err != nil {
		return err
	}
	first := b.next
	b.next += len(cs)
	return ph.round(func() (int64, error) {
		var rows int64
		for i, c := range cs {
			rep, err := b.f.runCampaign(c, &ph.rec, tr)
			if err != nil {
				return rows, err
			}
			ph.untimed(func() {
				b.tally.add(rep)
				if first+i < b.shape.checkSet {
					b.report.add(c.label, rep)
				}
			})
			rows += int64(len(rep.Rows))
		}
		return rows, nil
	})
}

// warmRound restarts the node over its lake and replays the check set
// twice, each pass through a fresh coordinator: pass 1 is answered from
// the lake, pass 2 from RAM. Both passes must reproduce the fixture's
// report.
func (b *sweepBench) warmRound(ph *phase, tr *tracer, cs []*campaign) error {
	b.n.restart()
	var rows int64
	for pass := 0; pass < 2; pass++ {
		if err := b.f.connect(b.n.addr, b.checkpoint()); err != nil {
			return err
		}
		report := newMerged()
		ph.start()
		for _, c := range cs {
			rep, err := b.f.runCampaign(c, &ph.rec, tr)
			if err != nil {
				ph.stop()
				return err
			}
			ph.untimed(func() {
				b.tally.add(rep)
				report.add(c.label, rep)
			})
			rows += int64(len(rep.Rows))
		}
		ph.stop()
		if report.csv.String() != b.fixture.csv.String() {
			return fmt.Errorf("sweep-warm: pass %d report differs from the fixture's", pass+1)
		}
	}
	ph.endRound(rows)
	return nil
}

// runSweep is the sweep-cold or sweep-warm workload.
func runSweep(cfg config) (*result, error) {
	shape, ok := sweepShapes[cfg.size]
	if !ok {
		return nil, fmt.Errorf("unknown size %q", cfg.size)
	}
	name := cfg.workload
	warm := name == "sweep-warm"
	dir, err := workDir(cfg.out, name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &sweepBench{cfg: cfg, shape: shape, warm: warm, dir: dir}
	defer b.teardown()
	b.report = newMerged()

	warmups, err := warmupCampaigns(cfg.seed, shape.warmup)
	if err != nil {
		return nil, err
	}
	check, err := campaigns(cfg.seed, 0, shape.checkSet)
	if err != nil {
		return nil, err
	}
	fixtureLake := filepath.Join(dir, "fixture-lake")
	if warm {
		if err := b.buildFixture(fixtureLake, warmups, check); err != nil {
			return nil, fmt.Errorf("sweep-warm fixture: %w", err)
		}
	}
	var setups []float64
	for s := 0; s < setupRepeats; s++ {
		if s > 0 {
			if err := b.teardown(); err != nil {
				return nil, err
			}
		}
		lakeDir := fixtureLake
		if !warm {
			lakeDir = filepath.Join(dir, fmt.Sprintf("lake-%d", s))
		}
		d, err := b.setup(lakeDir, warmups)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, d.Seconds())
	}

	// runPhase runs rounds until the phase has measured long enough and, on
	// sweep-cold, has covered the check set.
	runPhase := func(ph *phase, tr *tracer) error {
		for !ph.done(cfg.seconds) || (!warm && b.next < shape.checkSet) {
			var err error
			if warm {
				err = b.warmRound(ph, tr, check)
			} else {
				err = b.coldRound(ph, tr)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}

	res := &result{Correct: true}
	snap := b.snapshot()
	untraced := &phase{}
	if err := runPhase(untraced, nil); err != nil {
		return nil, err
	}
	ok, failed := b.checkPhase(name, snap, b.snapshot(), &untraced.rec)
	res.Correct = res.Correct && ok
	checked := b.report
	if warm {
		checked = b.fixture
	}
	res.Correct = res.Correct && b.checkReport(name, checked.csv.String())
	res.Attempted, res.Failed = b.tally.rows, failed
	local, err := b.localCheck(check)
	if err != nil {
		return nil, err
	}
	res.Correct = res.Correct && local

	if !cfg.trace {
		e2e, err := untraced.endToEnd(setups)
		if err != nil {
			return nil, err
		}
		res.Metrics = render(endToEnd, e2e)
		return res, nil
	}

	tr := newTracer()
	b.f.p.tr.Store(tr)
	snap = b.snapshot()
	rowsBefore := b.tally.rows
	traced := &phase{}
	if err := runPhase(traced, tr); err != nil {
		return nil, err
	}
	b.f.p.tr.Store(nil)
	after := b.snapshot()
	ok, failed = b.checkPhase(name, snap, after, &traced.rec)
	res.Correct = res.Correct && ok
	res.Attempted += b.tally.rows - rowsBefore
	res.Failed += failed
	jpath := b.f.jpath
	b.f.closeCoord()
	rows := 0
	if jpath != "" {
		if rows, err = journalRows(jpath); err != nil {
			return nil, err
		}
	}

	spans := tr.snapshot()
	out := map[string]float64{}
	untraced.runtimeLayers(out)
	if err := traceLayers(out, spans, "fault.execute", traced.jobs, untraced, traced); err != nil {
		return nil, err
	}
	b.layerMetrics(out, spans, snap, after, traced, untraced)
	// The durable rows of the phase's last coordinator journal: one round
	// of sweep-cold.
	out["cluster.journal_rows"] = float64(rows)
	if err := cfg.writeSpans(spans); err != nil {
		return nil, err
	}
	res.Metrics = render(perLayer, out)
	return res, nil
}

// sweepSnap is a reading of every counter a sweep phase is judged by.
type sweepSnap struct {
	node, cluster, engine map[string]obs.Sample
	lake                  lake.Stats
	submits, req, resp    int64
}

func (b *sweepBench) snapshot() sweepSnap {
	return sweepSnap{
		node:    sampleIndex(b.n.reg.Snapshot()),
		cluster: sampleIndex(b.f.creg.Snapshot()),
		engine:  sampleIndex(b.f.freg.Snapshot()),
		lake:    b.n.lakeStats(),
		submits: b.f.p.submits.Load(),
		req:     b.f.p.reqBytes.Load(),
		resp:    b.f.p.respBytes.Load(),
	}
}

// checkPhase applies the validity checks to a phase and counts its failed
// jobs: aborted rows, failed executor calls, sheds, integrity failures and
// lake corruption. sweep-cold must see no cache hit and one miss per
// remote call; sweep-warm must simulate nothing fresh.
func (b *sweepBench) checkPhase(name string, s0, s1 sweepSnap, rec *jobRecorder) (bool, int64) {
	nd := func(m string) int64 { return int64(counterDelta(s0.node, s1.node, m)) }
	cd := func(m string) int64 { return int64(counterDelta(s0.cluster, s1.cluster, m)) }
	failed := b.tally.aborted + rec.errs + nd("simd_shed_total") + cd("cluster_integrity_failures_total") +
		(s1.lake.Corrupt - s0.lake.Corrupt)
	b.tally.aborted = 0
	ok := true
	fail := func(format string, args ...any) {
		fmt.Fprintf(b.cfg.log, name+": "+format+"\n", args...)
		ok = false
	}
	hits, misses := nd("simd_cache_hits_total"), nd("simd_cache_misses_total")
	if b.warm {
		if misses != 0 || nd("simd_jobs_completed_total") != 0 {
			fail("%d fresh simulations (want 0)", misses)
		}
		if lakeHits, memHits := nd("simd_cache_hits_lake_total"), nd("simd_cache_hits_mem_total"); lakeHits != memHits || lakeHits+memHits != rec.calls {
			fail("%d lake hits and %d RAM hits for %d shards (want half each)", lakeHits, memHits, rec.calls)
		}
	} else {
		if hits != 0 {
			fail("%d cache hits (want 0)", hits)
		}
		if misses != rec.calls {
			fail("%d cache misses for %d shards", misses, rec.calls)
		}
	}
	if failed > 0 {
		fail("%d failed jobs", failed)
	}
	return ok, failed
}

// checkReport compares the check-set report with the stored digest.
func (b *sweepBench) checkReport(name, report string) bool {
	d := digestString(report)
	fmt.Fprintf(b.cfg.log, "%s: check-set report digest %s\n", name, d)
	return b.cfg.digestOK("sweep", d)
}

// localCheck re-runs the check set in-process and requires the same
// outcome for every scenario as the fleet reported.
func (b *sweepBench) localCheck(check []*campaign) (bool, error) {
	local, err := localOutcomes(check)
	if err != nil {
		return false, err
	}
	remote := b.report
	if b.warm {
		remote = b.fixture
	}
	if remote.outcomes.String() != local {
		fmt.Fprintln(b.cfg.log, "sweep: fleet outcomes differ from the in-process engine's")
		return false, nil
	}
	return true, nil
}

// layerMetrics fills the sweep per-layer metrics of a traced phase.
func (b *sweepBench) layerMetrics(out map[string]float64, spans []span, s0, s1 sweepSnap, traced, untraced *phase) {
	rec := &traced.rec
	calls := float64(max(rec.calls, 1))
	nd := func(m string) float64 { return counterDelta(s0.node, s1.node, m) }
	cd := func(m string) float64 { return counterDelta(s0.cluster, s1.cluster, m) }
	q := func(h histDelta, p float64) float64 {
		v, _ := h.quantile(p) // too few samples: reported as 0
		return v
	}

	if !b.warm {
		// Every sweep-cold shard is a fresh simulation on the node.
		ev := float64(max(rec.stats.Delivered, 1))
		simRun := histogramDelta(s0.node, s1.node, "simd_sim_run_seconds")
		out["sim.events_per_s"] = float64(untraced.rec.stats.Delivered) / untraced.m.wall.Seconds()
		out["sim.ns_per_event"] = simRun.sum * 1e9 / ev
		out["sim.events_per_job"] = float64(rec.stats.Delivered) / calls
		out["sim.scheduled_per_job"] = float64(rec.stats.Scheduled) / calls
		out["sim.canceled_per_job"] = float64(rec.stats.Canceled) / calls
		out["sim.delta_cycles_per_job"] = float64(rec.stats.DeltaCycles) / calls
		out["sim.queue_hwm_max"] = float64(rec.stats.QueueHighWater)
	}

	attempts := histogramDelta(s0.engine, s1.engine, "fault_engine_attempts")
	if attempts.total > 0 {
		out["fault.attempts_per_job"] = attempts.sum / float64(attempts.total)
	}

	var execMS, rtMS []float64
	handler := map[string][]float64{}
	for _, s := range spans {
		switch s.Name {
		case "cluster.execute":
			execMS = append(execMS, float64(s.dur())/1e6)
		case "http.roundtrip":
			rtMS = append(rtMS, float64(s.dur())/1e6)
		case "server.handler":
			handler[s.Tier] = append(handler[s.Tier], float64(s.dur())/1e6)
		}
	}
	pct := func(xs []float64, p float64) float64 {
		v, _ := percentile(xs, p) // too few samples: reported as 0
		return v
	}
	out["cluster.execute_ms_p50"] = pct(execMS, 0.5)
	out["cluster.execute_ms_p99"] = pct(execMS, 0.99)
	dispatched := max(cd("cluster_dispatch_total"), 1)
	out["cluster.requests_per_job"] = float64(s1.submits-s0.submits) / calls
	out["cluster.remote_cache_hit_ratio"] = cd("cluster_remote_cache_hit_total") / dispatched
	out["cluster.lake_dedup_ratio"] = cd("cluster_lake_dedup_total") / dispatched
	out["http.roundtrip_ms_p50"] = pct(rtMS, 0.5)
	out["http.roundtrip_ms_p99"] = pct(rtMS, 0.99)
	out["http.req_bytes_per_job"] = float64(s1.req-s0.req) / calls
	out["http.resp_bytes_per_job"] = float64(s1.resp-s0.resp) / calls
	for _, tier := range []string{"fresh", api.TierLake, api.TierMem} {
		out["server.handler_ms_p50."+tier] = pct(handler[tier], 0.5)
	}
	qw := histogramDelta(s0.node, s1.node, "simd_queue_wait_seconds")
	out["server.queue_wait_ms_p50"] = q(qw, 0.5) * 1000
	out["server.queue_wait_ms_p99"] = q(qw, 0.99) * 1000
	out["server.sim_run_ms_p50"] = q(histogramDelta(s0.node, s1.node, "simd_sim_run_seconds"), 0.5) * 1000
	out["server.cache_hits_mem"] = nd("simd_cache_hits_mem_total")
	out["server.cache_hits_lake"] = nd("simd_cache_hits_lake_total")
	out["server.cache_misses"] = nd("simd_cache_misses_total")
	out["server.sheds"] = nd("simd_shed_total")
	out["lake.open_ms"] = median(b.openMS)
	out["lake.puts"] = float64(s1.lake.Puts - s0.lake.Puts)
	out["lake.hits"] = float64(s1.lake.Hits - s0.lake.Hits)
	out["lake.corrupt"] = float64(s1.lake.Corrupt - s0.lake.Corrupt)
	if s1.lake.Entries > 0 {
		out["lake.bytes_per_entry"] = float64(s1.lake.Bytes) / float64(s1.lake.Entries)
	}
}
