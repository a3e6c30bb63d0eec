package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/serve"
)

// The serve-openloop shape: a k=64, d=16 model in 4 query shards,
// trained in the background at the trainer's default pacing, queried
// by 2 client connections with 64 points per request.
const (
	serveK      = 64
	serveD      = 16
	serveComps  = 16
	serveShards = 4
	servePoints = 64
	serveConns  = 2
	// openLoopRate is the fixed send rate of the latency phase, about a
	// quarter of the closed-loop capacity on a 2-core host.
	openLoopRate = 600 // requests per second
	// bodyPool is how many distinct request bodies are encoded ahead of
	// time; request i sends body i mod bodyPool.
	bodyPool = 256
	// checkEvery is the sampling interval of the brute-force answer
	// check: every checkEvery-th response is re-checked in full.
	checkEvery = 8
)

// rig is one in-process serving deployment: store, trainer, HTTP
// server on a loopback port, and a poller that keeps every published
// snapshot so answers can be checked against the epoch they name.
type rig struct {
	store   *serve.Store
	trainer *serve.Trainer
	source  *countingSource
	httpSrv *http.Server
	served  chan error
	url     string

	mu    sync.Mutex
	snaps map[uint64]*serve.Snapshot

	stopPoll chan struct{}
	polled   chan struct{}
}

// startRig brings a deployment up and returns once the first snapshot
// is published.
func startRig(seed uint64) (*rig, error) {
	src, err := dataset.NewGaussianMixture("stream", 65536, serveD, serveComps, 0.25, 2.0, seed)
	if err != nil {
		return nil, err
	}
	r := &rig{
		store:    &serve.Store{},
		source:   &countingSource{Source: src},
		snaps:    map[uint64]*serve.Snapshot{},
		served:   make(chan error, 1),
		stopPoll: make(chan struct{}),
		polled:   make(chan struct{}),
	}
	m := &serve.Metrics{}
	r.trainer, err = serve.NewTrainer(serve.TrainerConfig{
		Store: r.store, Metrics: m, Source: r.source, K: serveK, Seed: seed, Shards: serveShards,
	})
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.ServerConfig{Store: r.store, Metrics: m, Trainer: r.trainer})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	r.url = "http://" + ln.Addr().String() + "/v1/assign"
	r.httpSrv = &http.Server{Handler: srv.Handler()}
	go func() { r.served <- r.httpSrv.Serve(ln) }()
	r.trainer.Start()
	go r.poll()
	for r.store.Current() == nil {
		time.Sleep(100 * time.Microsecond)
	}
	return r, nil
}

// poll records every snapshot the store publishes. The trainer paces
// its rounds 50ms apart, so a 500µs poll sees each epoch.
func (r *rig) poll() {
	defer close(r.polled)
	tick := time.NewTicker(500 * time.Microsecond)
	defer tick.Stop()
	for {
		if s := r.store.Current(); s != nil {
			r.mu.Lock()
			r.snaps[s.Epoch] = s
			r.mu.Unlock()
		}
		select {
		case <-r.stopPoll:
			return
		case <-tick.C:
		}
	}
}

func (r *rig) snapshot(epoch uint64) *serve.Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snaps[epoch]
}

// epochs is how many distinct snapshots the poller has seen.
func (r *rig) epochs() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.snaps)
}

// close stops the trainer, the poller and the HTTP server and waits
// for each.
func (r *rig) close() error {
	r.trainer.Stop()
	close(r.stopPoll)
	<-r.polled
	if err := r.httpSrv.Close(); err != nil {
		return err
	}
	if err := <-r.served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// answer is one response kept for the brute-force check.
type answer struct {
	body        int
	epoch       uint64
	assignments []int
	distances   []float64
}

// loadgen is the client side: pre-encoded request bodies, one
// keep-alive connection per client goroutine, and the answers kept for
// checking.
type loadgen struct {
	url    string
	points [][][]float64 // per body, the points it carries
	bodies [][]byte

	mu        sync.Mutex
	attempted int
	failed    int
	kept      []answer
}

func newLoadgen(url string, seed uint64) (*loadgen, error) {
	queries, err := dataset.NewGaussianMixture("queries", 4096, serveD, serveComps, 0.25, 2.0, seed^0x9e3779b97f4a7c15)
	if err != nil {
		return nil, err
	}
	g := &loadgen{url: url}
	for b := 0; b < bodyPool; b++ {
		pts := make([][]float64, servePoints)
		for p := range pts {
			pts[p] = make([]float64, serveD)
			queries.Sample((b*servePoints+p)%queries.N(), pts[p])
		}
		body, err := json.Marshal(map[string]any{"points": pts})
		if err != nil {
			return nil, err
		}
		g.points = append(g.points, pts)
		g.bodies = append(g.bodies, body)
	}
	return g, nil
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}
}

// send posts request i and reports whether it was answered with a
// well-formed 200. Every checkEvery-th answer is kept for checking.
func (g *loadgen) send(c *http.Client, i int) bool {
	body := i % bodyPool
	ok, ans := g.post(c, body)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	if !ok {
		g.failed++
	} else if i%checkEvery == 0 {
		g.kept = append(g.kept, ans)
	}
	return ok
}

func (g *loadgen) post(c *http.Client, body int) (bool, answer) {
	resp, err := c.Post(g.url, "application/json", bytes.NewReader(g.bodies[body]))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: request: %v\n", err)
		return false, answer{}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "perfbench: response %d: %s %v\n", resp.StatusCode, raw, err)
		return false, answer{}
	}
	var out struct {
		Epoch       uint64    `json:"epoch"`
		Assignments []int     `json:"assignments"`
		Distances   []float64 `json:"distances"`
	}
	if err := json.Unmarshal(raw, &out); err != nil || len(out.Assignments) != servePoints || len(out.Distances) != servePoints {
		fmt.Fprintf(os.Stderr, "perfbench: malformed answer: %v\n", err)
		return false, answer{}
	}
	return true, answer{body, out.Epoch, out.Assignments, out.Distances}
}

// openLoop sends requests on a fixed schedule for d: request i is due
// at start + i/openLoopRate and goes out on connection i mod
// serveConns as soon as that connection is free. It returns each
// request's latency from its due time and how late it was sent.
func (g *loadgen) openLoop(d time.Duration) (latency, late []float64) {
	period := time.Second / openLoopRate
	start := time.Now()
	end := start.Add(d)
	lat := make([][]float64, serveConns)
	lte := make([][]float64, serveConns)
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for i := c; ; i += serveConns {
				due := dueTime(start, period, i)
				if !due.Before(end) {
					return
				}
				time.Sleep(time.Until(due))
				sent := time.Now()
				g.send(client, i)
				l, lt := openLoopTiming(due, sent, time.Now())
				lat[c] = append(lat[c], l.Seconds())
				lte[c] = append(lte[c], lt.Seconds())
			}
		}(c)
	}
	wg.Wait()
	for c := range lat {
		latency = append(latency, lat[c]...)
		late = append(late, lte[c]...)
	}
	return latency, late
}

// satWindow is the window the closed-loop throughput is sampled over;
// the reported ceiling is the median window, so one stall (a GC cycle,
// a trainer round) does not move it.
const satWindow = 250 * time.Millisecond

// closedLoop keeps serveConns connections busy for d, each sending its
// next request when the last one is answered, and returns the median
// over satWindow windows of the points assigned per second.
func (g *loadgen) closedLoop(d time.Duration) float64 {
	var (
		points atomic.Int64
		stop   atomic.Bool
		wg     sync.WaitGroup
	)
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for i := c; !stop.Load(); i += serveConns {
				if g.send(client, i) {
					points.Add(servePoints)
				}
			}
		}(c)
	}
	var rates []float64
	last, lastT := points.Load(), time.Now()
	for end := lastT.Add(d); time.Now().Before(end); {
		time.Sleep(satWindow)
		p, now := points.Load(), time.Now()
		rates = append(rates, float64(p-last)/now.Sub(lastT).Seconds())
		last, lastT = p, now
	}
	stop.Store(true)
	wg.Wait()
	return median(rates)
}

// check re-computes every kept answer by brute force against the
// snapshot of the epoch it names, counting mismatches as failures.
func (g *loadgen) check(r *rig) {
	for _, a := range g.kept {
		snap := r.snapshot(a.epoch)
		err := fmt.Errorf("answer names epoch %d, which was never published", a.epoch)
		if snap != nil {
			err = checkAnswer(snap, g.points[a.body], a)
		}
		if err != nil {
			g.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
	}
	g.kept = nil
}

// checkAnswer compares one answer with the brute-force nearest centroid
// of each point under the named snapshot: the index exactly, and the
// squared distance to the bit, since both sum in the same order.
func checkAnswer(snap *serve.Snapshot, points [][]float64, a answer) error {
	for p, x := range points {
		j := bruteArgmin(x, snap.Centroids, snap.D)
		c := snap.Centroids[j*snap.D : (j+1)*snap.D]
		dist := 0.0
		for u := range x {
			diff := x[u] - c[u]
			dist += diff * diff
		}
		if a.assignments[p] != j || a.distances[p] != dist {
			return fmt.Errorf("epoch %d point %d: answered %d (%g), brute force %d (%g)",
				a.epoch, p, a.assignments[p], a.distances[p], j, dist)
		}
	}
	return nil
}

// setupRig times setupRepeats deployments from construction until the
// first snapshot is published, keeps the last one and returns the
// median time.
func setupRig(seed uint64) (float64, *rig, error) {
	var times []float64
	var r *rig
	for range setupRepeats {
		if r != nil {
			if err := r.close(); err != nil {
				return 0, nil, err
			}
		}
		t0 := time.Now()
		var err error
		r, err = startRig(seed)
		if err != nil {
			return 0, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), r, nil
}

// seconds converts a fraction of the budget to a duration.
func seconds(budget, share float64) time.Duration {
	return time.Duration(budget * share * float64(time.Second))
}

func runServeOpenLoop(o options) (*report, error) {
	setupS, r, err := setupRig(o.seed)
	if err != nil {
		return nil, err
	}
	g, err := newLoadgen(r.url, o.seed)
	if err != nil {
		return nil, errors.Join(err, r.close())
	}
	rep := &report{}
	if !o.traced {
		latency, _ := g.openLoop(seconds(o.seconds, 0.6))
		sat := g.closedLoop(seconds(o.seconds, 0.3))
		g.check(r)
		if err := r.close(); err != nil {
			return nil, err
		}
		rep.attempted, rep.failed = g.attempted, g.failed
		rep.add(
			metric{"op_p50_ms", median(latency) * 1e3, "ms"},
			metric{"assigns_per_s", sat, "1/s"},
			metric{"peak_rss_mb", peakRSSMB(), "MB"},
			metric{"setup_s", setupS, "s"},
		)
		return rep, nil
	}

	// Traced invocation: the same traffic untraced, then traced, each
	// on half the budget. CPU and Go runtime figures are per second of
	// traffic.
	before := readGoCounters()
	t0 := time.Now()
	epochs0 := r.epochs()
	latency, late := g.openLoop(seconds(o.seconds, 0.3))
	g.closedLoop(seconds(o.seconds, 0.15))
	plainS := time.Since(t0).Seconds()
	epochs := r.epochs() - epochs0
	rt := readGoCounters().sub(before)

	calls0, nanos0 := r.source.calls.Load(), r.source.nanos.Load()
	var tracedLat []float64
	var tracedS float64
	cpu, err := profileCPU(func() {
		t0 := time.Now()
		tracedLat, _ = g.openLoop(seconds(o.seconds, 0.3))
		g.closedLoop(seconds(o.seconds, 0.15))
		tracedS = time.Since(t0).Seconds()
	})
	calls := float64(r.source.calls.Load() - calls0)
	sampleS := float64(r.source.nanos.Load()-nanos0) / 1e9
	g.check(r)
	if cerr := r.close(); err != nil || cerr != nil {
		return nil, errors.Join(err, cerr)
	}
	rep.attempted, rep.failed = g.attempted, g.failed
	rep.add(cpu.metrics(tracedS)...)
	rep.add(
		metric{"core.lloyd_s", 0, "s"},
		metric{"dataset.sample_calls", calls / tracedS, "count"},
		metric{"dataset.sample_s", sampleS / tracedS, "s"},
		metric{"dataset.calls_per_sample_iter", 0, "ratio"},
	)
	rep.add(schedMetrics(schedCounts(nil))...)
	rep.add(traceCounters(nil)...)
	rep.add(
		metric{"serve.epochs", float64(epochs), "count"},
		metric{"loadgen.late_p99_ms", percentile(late, 99) * 1e3, "ms"},
		metric{"loadgen.assign_p90_ms", percentile(latency, 90) * 1e3, "ms"},
		metric{"loadgen.assign_p99_ms", percentile(latency, 99) * 1e3, "ms"},
	)
	rep.add(rt.metrics(plainS)...)
	rep.add(
		metric{"trace_overhead_x", median(tracedLat) / median(latency), "ratio"},
		rep.errorRate(),
	)
	return rep, nil
}
