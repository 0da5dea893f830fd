package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"involution/internal/cluster"
	"involution/internal/fault"
	"involution/internal/lake"
	"involution/internal/obs"
	"involution/internal/server"
	"involution/internal/server/api"
	"involution/internal/signal"
	"involution/internal/sim"
)

// Load on the sweeps stays within a 2-CPU host: two engine workers, two
// in-flight requests per node at the coordinator, two node workers.
const (
	engineWorkers = 2
	nodeInFlight  = 2
	nodeWorkers   = 2
)

// spanLink rides the request context from the executor wrapper down to the
// HTTP transport: the job the call belongs to and the span that made it.
type spanLink struct {
	job    int64
	parent uint64
}

type linkKey struct{}

func withLink(ctx context.Context, l spanLink) context.Context {
	return context.WithValue(ctx, linkKey{}, l)
}

func linkFrom(ctx context.Context) spanLink {
	l, _ := ctx.Value(linkKey{}).(spanLink)
	return l
}

// probe is the benchmark's view of the wire between coordinator and node.
// The client half counts submits and request bytes; while a tracer is set
// it also records http.roundtrip spans and response bytes, and hands each
// submit's span to the node half by content key.
type probe struct {
	tr        atomic.Pointer[tracer]
	links     sync.Map // content key → spanLink of the http.roundtrip span
	submits   atomic.Int64
	reqBytes  atomic.Int64
	respBytes atomic.Int64
}

// clientTransport is the timing http.RoundTripper handed to the
// coordinator through cluster.Options.Transport.
type clientTransport struct {
	next *http.Transport
	p    *probe
}

func (t *clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost {
		return t.next.RoundTrip(req) // health probes
	}
	t.p.submits.Add(1)
	t.p.reqBytes.Add(req.ContentLength)
	tr := t.p.tr.Load()
	if tr == nil {
		return t.next.RoundTrip(req)
	}
	l := linkFrom(req.Context())
	id := tr.newID()
	t.p.links.Store(req.Header.Get(api.ContentKeyHeader), spanLink{job: l.job, parent: id})
	s := span{ID: id, Parent: l.parent, Job: l.job, Name: "http.roundtrip", Start: tr.now()}
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		s.End = tr.now()
		tr.add(s)
		return nil, err
	}
	// The exchange ends when the client has read and closed the body.
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func(n int64) {
		t.p.respBytes.Add(n)
		s.End = tr.now()
		tr.add(s)
	}}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// nodeHandler is the benchmark middleware around server.Handler(). It
// serves whichever node instance is current (a restart swaps it) and,
// while tracing, records one server.handler span per submit, tagged with
// the cache tier the node answered from.
type nodeHandler struct {
	cur atomic.Pointer[http.Handler]
	p   *probe
}

func (m *nodeHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h := *m.cur.Load()
	tr := m.p.tr.Load()
	if tr == nil || r.Method != http.MethodPost {
		h.ServeHTTP(w, r)
		return
	}
	v, _ := m.p.links.LoadAndDelete(r.Header.Get(api.ContentKeyHeader))
	l, _ := v.(spanLink)
	cw := &captureWriter{ResponseWriter: w}
	s := span{ID: tr.newID(), Parent: l.parent, Job: l.job, Name: "server.handler", Start: tr.now()}
	h.ServeHTTP(cw, r)
	s.End = tr.now()
	s.Tier = tierOf(cw.body.Bytes())
	tr.add(s)
}

// captureWriter keeps a copy of the response body for tier classification.
type captureWriter struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.body.Write(p)
	return c.ResponseWriter.Write(p)
}

// tierOf reads the cache tier from a job record as simd writes it.
func tierOf(rec []byte) string {
	switch {
	case bytes.Contains(rec, []byte(`"cache_tier": "`+api.TierMem+`"`)):
		return api.TierMem
	case bytes.Contains(rec, []byte(`"cache_tier": "`+api.TierLake+`"`)):
		return api.TierLake
	default:
		return "fresh"
	}
}

// node is one simd node served in-process on a loopback listener: the
// lake, the server over it, and the HTTP server in front.
type node struct {
	lk     *lake.Lake
	dir    string
	srv    *server.Server
	reg    *obs.Registry // shared by every server instance of this node
	mw     *nodeHandler
	hs     *http.Server
	served chan error
	addr   string
	// retired sums the counters of the lakes remount closed, so that
	// counter deltas span remounts.
	retired lake.Stats
}

// startNode opens (or creates) the lake in dir and serves a node with
// simd's defaults over it. It also returns how long lake.Open took.
func startNode(dir string, p *probe) (*node, time.Duration, error) {
	t0 := time.Now()
	lk, err := lake.Open(lake.Options{Dir: dir, MaxBytes: 1 << 30})
	if err != nil {
		return nil, 0, err
	}
	openTime := time.Since(t0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		lk.Close()
		return nil, 0, err
	}
	n := &node{lk: lk, dir: dir, reg: obs.NewRegistry(), mw: &nodeHandler{p: p}, served: make(chan error, 1), addr: ln.Addr().String()}
	n.newServer()
	n.hs = &http.Server{Handler: n.mw}
	go func() { n.served <- n.hs.Serve(ln) }()
	return n, openTime, nil
}

// newServer puts a fresh server instance (empty RAM cache and memo) over
// the node's lake.
func (n *node) newServer() {
	n.srv = server.New(server.Config{Workers: nodeWorkers, Lake: n.lk, Registry: n.reg, Advertise: n.addr})
	h := n.srv.Handler()
	n.mw.cur.Store(&h)
}

// restart replaces the server instance, as a restarted simd over the same
// lake directory would: the RAM tier starts empty, the lake is kept.
func (n *node) restart() {
	old := n.srv
	n.newServer()
	old.Drain(0)
}

// remount restarts the node over a fresh, empty lake in dir and deletes
// the old one, so every sweep-cold round writes into a lake in the same
// state: a lake kept for the whole run would grow its in-memory index, and
// with it the heap, with the run's length and throughput.
func (n *node) remount(dir string) error {
	lk, err := lake.Open(lake.Options{Dir: dir, MaxBytes: 1 << 30})
	if err != nil {
		return err
	}
	old, oldLake, oldDir := n.srv, n.lk, n.dir
	n.lk, n.dir = lk, dir
	n.newServer()
	old.Drain(0)
	st := oldLake.Stats()
	n.retired.Hits += st.Hits
	n.retired.Misses += st.Misses
	n.retired.Corrupt += st.Corrupt
	n.retired.Puts += st.Puts
	n.retired.GCSegs += st.GCSegs
	if err := oldLake.Close(); err != nil {
		return err
	}
	return os.RemoveAll(oldDir)
}

// lakeStats is the node's lake counters, those of retired lakes included;
// Entries, Bytes and Segments are the current lake's.
func (n *node) lakeStats() lake.Stats {
	s := n.lk.Stats()
	s.Hits += n.retired.Hits
	s.Misses += n.retired.Misses
	s.Corrupt += n.retired.Corrupt
	s.Puts += n.retired.Puts
	s.GCSegs += n.retired.GCSegs
	return s
}

// close stops the HTTP server, drains the node and closes the lake.
func (n *node) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	if serr := <-n.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	n.srv.Drain(0)
	if lerr := n.lk.Close(); err == nil {
		err = lerr
	}
	return err
}

// timedExecutor wraps the engine's fault.Executor seam: every remote
// scenario attempt is one job, timed from the engine's side.
type timedExecutor struct {
	inner fault.Executor
	rec   *jobRecorder
	tr    *tracer
}

func (e *timedExecutor) Execute(ctx context.Context, sc fault.Scenario, seed int64, opts sim.Options, probes []string) (map[string]signal.Signal, sim.RunStats, error) {
	if e.tr == nil {
		start := time.Now()
		sigs, st, err := e.inner.Execute(ctx, sc, seed, opts, probes)
		e.rec.observe(time.Since(start), st, err)
		return sigs, st, err
	}
	tr := e.tr
	job := tr.newJob()
	exec := span{ID: tr.newID(), Parent: linkFrom(ctx).parent, Job: job, Name: "fault.execute", Start: tr.now()}
	cl := span{ID: tr.newID(), Parent: exec.ID, Job: job, Name: "cluster.execute"}
	ctx = withLink(ctx, spanLink{job: job, parent: cl.ID})
	cl.Start = tr.now()
	sigs, st, err := e.inner.Execute(ctx, sc, seed, opts, probes)
	cl.End = tr.now()
	exec.End = tr.now()
	tr.add(cl)
	tr.add(exec)
	e.rec.observe(time.Duration(exec.dur()), st, err)
	return sigs, st, err
}

// newCoordinator builds a coordinator for the node, as `simctl sweep
// -checkpoint` does, with the timing transport in cluster.Options.
func newCoordinator(addr string, rt http.RoundTripper, reg *obs.Registry, journal string) (*cluster.Coordinator, error) {
	return cluster.NewCoordinator(cluster.Options{
		Peers:        []string{addr},
		NodeInFlight: nodeInFlight,
		Registry:     reg,
		Transport:    rt,
		Checkpoint:   journal,
	})
}

// journalRows reopens a closed coordinator journal and counts its durable
// rows.
func journalRows(path string) (int, error) {
	j, err := cluster.OpenJournal(path, true)
	if err != nil {
		return 0, fmt.Errorf("reopening journal: %w", err)
	}
	n := j.Len()
	return n, j.Close()
}
