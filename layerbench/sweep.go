package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"involution/internal/cluster"
	"involution/internal/experiments"
	"involution/internal/fault"
	"involution/internal/netlist"
	"involution/internal/obs"
	"involution/internal/signal"
	"involution/internal/spf"
)

// sweepShape sizes the sweep workloads.
type sweepShape struct {
	// warmup is the number of campaigns in each set-up's warm-up batch
	// (keys disjoint from the timed ones).
	warmup int
	// round is the number of campaigns in one timed sweep-cold round.
	round int
	// checkSet is the number of campaigns whose merged report is digested;
	// it is also the request set sweep-warm replays.
	checkSet int
}

var sweepShapes = map[string]sweepShape{
	"full": {warmup: 40, round: 16, checkSet: 48},
	"tiny": {warmup: 2, round: 2, checkSet: 3},
}

// sweepHorizon is the simulated-time horizon of every sweep scenario.
const sweepHorizon = 600

// splitmix64 derives independent seeds from (seed, index).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// campaign is one simctl-sweep-shaped fault campaign on the SPF netlist.
type campaign struct {
	label     string // adversary@seed, the report's adversary column
	doc       *netlist.Document
	camp      *fault.Campaign
	scenarios []fault.Scenario
}

// sweepCampaign builds campaign idx of a seed. Every campaign has its own
// uniform or walk adversary seed, so no two campaigns share a shard key;
// warm-up campaigns use negative indices.
func sweepCampaign(seed int64, idx int) (*campaign, error) {
	h := splitmix64(uint64(seed)*0x100000001b3 ^ uint64(int64(idx)))
	adv := "uniform"
	if h&1 == 1 {
		adv = "walk"
	}
	advSeed := int64(h>>24) + 1
	doc, sys, err := experiments.SPFNetlist(adv, advSeed)
	if err != nil {
		return nil, err
	}
	c, err := doc.Build()
	if err != nil {
		return nil, err
	}
	a := sys.Analysis
	// A short input train of sub-cancel-bound glitches, then a SET on the
	// input edge whose width spans Theorem 9's regimes.
	var times []float64
	for k := 0; k < 8; k++ {
		w := (0.4 + 0.5*float64((h>>(4*k+1))&0xf)/15) * a.CancelBound
		times = append(times, 1+float64(k), 1+float64(k)+w)
	}
	widths := []float64{
		0.3 * a.CancelBound,
		0.9 * a.CancelBound,
		0.5 * (a.CancelBound + a.Delta0Tilde),
		0.9 * a.Delta0Tilde,
		1.2 * a.LockBound,
		2.0 * a.LockBound,
	}
	var models []fault.Model
	for _, at := range []float64{10, 40} {
		for _, w := range widths {
			models = append(models, fault.SET{At: at, Width: w})
		}
	}
	site := fault.Site{From: spf.NodeIn, To: spf.NodeOr, Pin: 0}
	return &campaign{
		label: fmt.Sprintf("%s@%d", adv, advSeed),
		doc:   doc,
		camp: &fault.Campaign{
			Circuit: c,
			Inputs:  map[string]signal.Signal{spf.NodeIn: edges(signal.Low, times)},
			Horizon: sweepHorizon,
			Seed:    seed,
			Probes:  []string{spf.NodeOr, spf.NodeHT},
		},
		scenarios: fault.Grid([]fault.Site{site}, models),
	}, nil
}

func campaigns(seed int64, from, n int) ([]*campaign, error) {
	out := make([]*campaign, 0, n)
	for i := from; i < from+n; i++ {
		c, err := sweepCampaign(seed, i)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

func warmupCampaigns(seed int64, n int) ([]*campaign, error) { return campaigns(seed, -n, n) }

// merged is a sweep's merged report, campaign after campaign: the
// `simctl sweep -csv` columns, and separately each row's outcome.
type merged struct {
	csv, outcomes strings.Builder
}

func newMerged() *merged {
	m := &merged{}
	m.csv.WriteString("adversary,id,site,model,outcome,abort,attempts,scheduled,delivered,canceled\n")
	return m
}

func (m *merged) add(label string, rep *fault.Report) {
	for _, row := range rep.Rows {
		fmt.Fprintf(&m.csv, "%s,%d,%s,%s,%s,%s,%d,%d,%d,%d\n",
			label, row.ID, row.Site, row.Model, row.Outcome, row.Abort,
			row.Attempts, row.Scheduled, row.Delivered, row.Canceled)
		fmt.Fprintf(&m.outcomes, "%s,%d,%s,%s\n", label, row.ID, row.Outcome, row.Abort)
	}
}

func digestString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// fleet is the client half of a sweep: the coordinator and the engine
// registry, plus the shared wire probe.
type fleet struct {
	p     *probe
	inner *http.Transport
	rt    *clientTransport
	creg  *obs.Registry // cluster_* metrics, shared by every coordinator
	freg  *obs.Registry // fault_engine_* metrics
	coord *cluster.Coordinator
	jpath string
}

func newFleet() *fleet {
	p := &probe{}
	inner := cluster.DefaultTransport(2 * nodeInFlight)
	return &fleet{p: p, inner: inner, rt: &clientTransport{next: inner, p: p}, creg: obs.NewRegistry(), freg: obs.NewRegistry()}
}

// connect replaces the coordinator with a fresh one journaling to path.
func (f *fleet) connect(addr, path string) error {
	f.closeCoord()
	c, err := newCoordinator(addr, f.rt, f.creg, path)
	if err != nil {
		return err
	}
	f.coord, f.jpath = c, path
	return nil
}

func (f *fleet) closeCoord() {
	if f.coord != nil {
		f.coord.Close()
		f.coord = nil
	}
}

func (f *fleet) close() {
	f.closeCoord()
	f.inner.CloseIdleConnections()
}

// runCampaign runs one campaign through the engine and the fleet. While
// tracing it records the campaign's bench.campaign and fault.run spans.
func (f *fleet) runCampaign(c *campaign, rec *jobRecorder, tr *tracer) (*fault.Report, error) {
	exec := &timedExecutor{
		inner: &cluster.CampaignExecutor{Coord: f.coord, Doc: c.doc, Inputs: c.camp.Inputs},
		rec:   rec,
		tr:    tr,
	}
	eng := &fault.Engine{Campaign: c.camp, Opts: fault.Options{
		Workers:    engineWorkers,
		MaxRetries: 2,
		Registry:   f.freg,
		Executor:   exec,
	}}
	ctx := context.Background()
	var root, run span
	if tr != nil {
		root = span{ID: tr.newID(), Name: "bench.campaign", Start: tr.now()}
		run = span{ID: tr.newID(), Parent: root.ID, Name: "fault.run"}
		ctx = withLink(ctx, spanLink{parent: run.ID})
		run.Start = tr.now()
	}
	rep, err := eng.Run(ctx, c.scenarios)
	if tr != nil {
		run.End = tr.now()
		tr.add(run)
	}
	if err != nil {
		return nil, fmt.Errorf("campaign %s: %w", c.label, err)
	}
	if tr != nil {
		root.End = tr.now()
		tr.add(root)
	}
	return rep, nil
}

// sweepTally counts a phase's scenario rows.
type sweepTally struct {
	rows, aborted int64
}

func (t *sweepTally) add(rep *fault.Report) {
	t.rows += int64(len(rep.Rows))
	for _, r := range rep.Rows {
		if r.Outcome == fault.Aborted.String() {
			t.aborted++
		}
	}
}

// localOutcomes re-runs campaigns in-process (no executor) and renders
// each row's outcome: the remote path must classify every scenario
// exactly as the local one, because the fleet returns bit-identical
// signals.
func localOutcomes(cs []*campaign) (string, error) {
	m := newMerged()
	for _, c := range cs {
		eng := &fault.Engine{Campaign: c.camp, Opts: fault.Options{Workers: engineWorkers, MaxRetries: 2}}
		rep, err := eng.Run(context.Background(), c.scenarios)
		if err != nil {
			return "", fmt.Errorf("local campaign %s: %w", c.label, err)
		}
		m.add(c.label, rep)
	}
	return m.outcomes.String(), nil
}

// workDir makes a temporary directory for one run's lakes and journals.
func workDir(out, workload string) (string, error) {
	dir := filepath.Join(out, "run", fmt.Sprintf("%s-%d", workload, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
