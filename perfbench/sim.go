package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/trace"
)

// simShape is one simulated-machine workload: a Gaussian mixture and a
// core.Config, both built from the seed, and how its outputs are
// checked.
type simShape struct {
	mixture       string
	n, d, comps   int
	spread, sep   float64
	nodes         int
	cfg           core.Config // Spec, Seed, Stats and Obs are filled per run
	bruteForceRef bool        // check against argmin over core.InitialCentroids instead of core.Lloyd
	// pinned holds the simulated machine's outputs as recorded at the
	// commit that defined this benchmark. They do not depend on the
	// seed: the simulator charges by shape, never by sample values.
	pinned pinnedSim
}

// pinnedSim is the number of samples a run computes, the paper's
// metric and the modelled machine counts of one run; the benchmark
// fails a run whose figures differ in any bit.
type pinnedSim struct {
	processed                                    int
	simIterBits                                  uint64 // math.Float64bits of Result.MeanIterTime
	netMsgs, netBytes, dmaBytes, regBytes, flops int64
}

var (
	l1Kernel = simShape{
		mixture: "gauss", n: 30000, d: 32, comps: 16, spread: 0.2, sep: 2.0, nodes: 8,
		cfg:    core.Config{Level: core.Level1, K: 240, MaxIters: 8},
		pinned: pinnedSim{30000, 0x3f395a808facc460, 1776, 15713280, 38584320, 3114270720, 5537280000},
	}
	l3Regen = simShape{
		mixture: "gauss", n: 20000, d: 32, comps: 16, spread: 0.2, sep: 2.0, nodes: 8,
		cfg:    core.Config{Level: core.Level3, K: 64, MPrimeGroup: 4, MaxIters: 5},
		pinned: pinnedSim{20000, 0x3f58158ccc694a48, 3914, 5408968, 51527680, 10066329600, 627200000},
	}
	// fig6b4k is the 1,024-node point of the Figure 6b sweep at scale
	// 64: the ImgNet shape (n = 1,265,723/64, d = 1,024, 128
	// components) on 4,096 ranks. It names the DES driver because the
	// goroutine driver does not fit this shape in memory.
	fig6b4k = simShape{
		mixture: "ILSVRC2012", n: dataset.ImgNetN / 64, d: 1024, comps: 128, spread: 0.25, sep: 2.0, nodes: 1024,
		cfg: core.Config{
			Level: core.Level3, K: 2000, MPrimeGroup: 128, MaxIters: 1,
			SampleStride: 2048, Sched: true,
		},
		bruteForceRef: true,
		pinned:        pinnedSim{32, 0x3f49e33a5dc9614d, 89786, 776933224, 10636754944, 77309411328, 127011913728},
	}
)

func runL1Kernel(o options) (*report, error) { return runSim(l1Kernel, o) }
func runL3Regen(o options) (*report, error)  { return runSim(l3Regen, o) }
func runFig6b4k(o options) (*report, error)  { return runSim(fig6b4k, o) }

// setup builds the workload's inputs: the machine spec, the source and
// the validated partition plan.
func (s simShape) setup(seed uint64) (core.Config, dataset.Source, error) {
	spec, err := machine.NewSpec(s.nodes)
	if err != nil {
		return core.Config{}, nil, err
	}
	src, err := dataset.NewGaussianMixture(s.mixture, s.n, s.d, s.comps, s.spread, s.sep, seed)
	if err != nil {
		return core.Config{}, nil, err
	}
	cfg := s.cfg
	cfg.Spec = spec
	cfg.Seed = seed
	if _, err := core.PlanFor(cfg, src.N(), src.D()); err != nil {
		return core.Config{}, nil, err
	}
	return cfg, src, nil
}

// setupRepeats is how many times set-up is timed; setup_s is the
// median. A simulated workload's set-up takes microseconds, so each
// repeat is a batch of set-ups lasting at least setupBatch, timed as a
// whole.
const (
	setupRepeats = 15
	setupBatch   = 20 * time.Millisecond
)

// timeSetup returns the median per-set-up time of setupRepeats batches
// and the inputs of the last set-up.
func (s simShape) timeSetup(seed uint64) (float64, core.Config, dataset.Source, error) {
	var (
		times []float64
		cfg   core.Config
		src   dataset.Source
		err   error
	)
	for range setupRepeats {
		runtime.GC()
		t0 := time.Now()
		n := 0
		for ; n == 0 || time.Since(t0) < setupBatch; n++ {
			if cfg, src, err = s.setup(seed); err != nil {
				return 0, cfg, nil, fmt.Errorf("set-up: %w", err)
			}
		}
		times = append(times, time.Since(t0).Seconds()/float64(n))
	}
	return median(times), cfg, src, nil
}

// reference is what every run's output is checked against: a full
// sequential Lloyd run, or for the strided shape the initial centroids
// and the brute-force assignments found so far (every run processes
// the same samples, so they are computed once).
type reference struct {
	lloyd  *core.Result
	cents  []float64
	src    dataset.Source
	assign map[int]int
}

func (s simShape) reference(cfg core.Config, src dataset.Source) (*reference, error) {
	if !s.bruteForceRef {
		ref, err := core.Lloyd(src, cfg.K, cfg.MaxIters, cfg.Tolerance, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("reference Lloyd run: %w", err)
		}
		return &reference{lloyd: ref}, nil
	}
	cents, err := core.InitialCentroids(src, cfg.K, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("reference centroids: %w", err)
	}
	return &reference{cents: cents, src: src, assign: map[int]int{}}, nil
}

// bruteAssign is the brute-force assignment of sample i.
func (r *reference) bruteAssign(i int) int {
	if j, ok := r.assign[i]; ok {
		return j
	}
	buf := make([]float64, r.src.D())
	r.src.Sample(i, buf)
	j := bruteArgmin(buf, r.cents, len(buf))
	r.assign[i] = j
	return j
}

// bruteArgmin is the nearest row of cents to x under squared Euclidean
// distance, ties to the lowest index.
func bruteArgmin(x, cents []float64, d int) int {
	best, bestDist := -1, 0.0
	for j := 0; j*d < len(cents); j++ {
		s := 0.0
		for u, c := range cents[j*d : (j+1)*d] {
			diff := x[u] - c
			s += diff * diff
		}
		if best < 0 || s < bestDist {
			best, bestDist = j, s
		}
	}
	return best
}

// processed counts the samples a run computed functionally; with a
// sample stride the others hold assignment -1.
func processed(res *core.Result) int {
	n := 0
	for _, a := range res.Assign {
		if a >= 0 {
			n++
		}
	}
	return n
}

// check verifies one run's output; withTraffic also compares the trace
// counters, which only runs with a trace.Stats sink have.
func (s simShape) check(res *core.Result, ref *reference, withTraffic bool) error {
	if ref.lloyd != nil {
		if err := matchesLloyd(res, ref.lloyd); err != nil {
			return err
		}
	} else {
		for i, a := range res.Assign {
			if a < 0 {
				continue
			}
			if want := ref.bruteAssign(i); a != want {
				return fmt.Errorf("sample %d assigned %d, brute force %d", i, a, want)
			}
		}
	}
	if got := processed(res); got != s.pinned.processed {
		return fmt.Errorf("%d samples processed, pinned %d", got, s.pinned.processed)
	}
	if got := math.Float64bits(res.MeanIterTime()); got != s.pinned.simIterBits {
		return fmt.Errorf("simulated s/iter %#x (%g), pinned %#x", got, res.MeanIterTime(), s.pinned.simIterBits)
	}
	if withTraffic {
		t := res.Traffic
		got := pinnedSim{s.pinned.processed, s.pinned.simIterBits, t.NetMessages, t.NetBytes, t.DMABytes, t.RegBytes, t.Flops}
		if got != s.pinned {
			return fmt.Errorf("trace counts %+v, pinned %+v", got, s.pinned)
		}
	}
	return nil
}

// matchesLloyd is the engine's correctness invariant: iteration count,
// convergence and assignments equal sequential Lloyd exactly, and
// centroids agree within 1e-9 relative.
func matchesLloyd(res, ref *core.Result) error {
	if res.Iters != ref.Iters || res.Converged != ref.Converged {
		return fmt.Errorf("iters %d converged %v, Lloyd %d %v", res.Iters, res.Converged, ref.Iters, ref.Converged)
	}
	if len(res.Assign) != len(ref.Assign) || len(res.Centroids) != len(ref.Centroids) {
		return fmt.Errorf("result shape differs from Lloyd")
	}
	for i := range ref.Assign {
		if res.Assign[i] != ref.Assign[i] {
			return fmt.Errorf("sample %d assigned %d, Lloyd %d", i, res.Assign[i], ref.Assign[i])
		}
	}
	for i := range ref.Centroids {
		diff := math.Abs(res.Centroids[i] - ref.Centroids[i])
		if diff/math.Max(1, math.Abs(ref.Centroids[i])) > 1e-9 {
			return fmt.Errorf("centroid element %d = %g, Lloyd %g", i, res.Centroids[i], ref.Centroids[i])
		}
	}
	return nil
}

// countingSource wraps the workload's Source to count Sample calls and
// the time spent inside them (summed over all calling goroutines).
type countingSource struct {
	dataset.Source
	calls atomic.Int64
	nanos atomic.Int64
}

func (c *countingSource) Sample(i int, buf []float64) {
	t0 := time.Now()
	c.Source.Sample(i, buf)
	c.nanos.Add(int64(time.Since(t0)))
	c.calls.Add(1)
}

// minRuns is the fewest core.Run calls a measuring phase makes, however
// long they take.
const minRuns = 3

// phase is one measuring phase: each core.Run call's wall seconds,
// result and error, and the Go runtime counters accumulated over the
// timed calls alone.
type phase struct {
	times   []float64
	results []*core.Result
	errs    []error
	rt      goCounters
}

// timedRuns calls run until budget seconds have passed (and at least
// minRuns times).
func timedRuns(budget float64, run func() (*core.Result, error)) phase {
	var p phase
	start := time.Now()
	for len(p.times) < minRuns || time.Since(start).Seconds() < budget {
		// Each call starts from a collected heap, so none pays for the
		// garbage of the call before it; the collection is not timed.
		runtime.GC()
		before := readGoCounters()
		t0 := time.Now()
		res, err := run()
		dt := time.Since(t0).Seconds()
		p.rt = p.rt.add(readGoCounters().sub(before))
		fmt.Fprintf(os.Stderr, "perfbench: run %d: %.3fs\n", len(p.times)+1, dt)
		p.times = append(p.times, dt)
		p.results = append(p.results, res)
		p.errs = append(p.errs, err)
	}
	return p
}

func runSim(s simShape, o options) (*report, error) {
	setupS, cfg, src, err := s.timeSetup(o.seed)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	ref, err := s.reference(cfg, src)
	if err != nil {
		return nil, err
	}
	lloydS := time.Since(t0).Seconds()
	rep := &report{}
	// tally checks a phase's runs into the report and returns the
	// sample assignments they completed.
	tally := func(p phase, withTraffic bool) (assigns float64) {
		for i, res := range p.results {
			rep.attempted++
			err := p.errs[i]
			if err == nil {
				err = s.check(res, ref, withTraffic)
			}
			if err != nil {
				rep.failed++
				fmt.Fprintf(os.Stderr, "perfbench: run %d failed: %v\n", i+1, err)
				continue
			}
			assigns += float64(processed(res) * res.Iters)
		}
		return assigns
	}
	plain := func() (*core.Result, error) { return core.Run(cfg, src) }

	if !o.traced {
		p := timedRuns(o.seconds, plain)
		assigns := tally(p, false)
		rep.add(
			metric{"op_p50_ms", median(p.times) * 1e3, "ms"},
			metric{"assigns_per_s", assigns / float64(len(p.times)) / median(p.times), "1/s"},
			metric{"peak_rss_mb", peakRSSMB(), "MB"},
			metric{"setup_s", setupS, "s"},
		)
		return rep, nil
	}

	// Traced invocation: half the budget untraced (the base for the
	// tracing overhead and the Go runtime counters), half traced.
	untraced := timedRuns(o.seconds/2, plain)
	tally(untraced, false)

	var (
		counted = &countingSource{Source: src}
		counts  []exactCounts
		traced  phase
	)
	cpu, err := profileCPU(func() {
		traced = timedRuns(o.seconds/2, func() (*core.Result, error) {
			c := cfg
			c.Stats = trace.NewStats()
			c.Obs = obs.NewRollupRecorder()
			calls0 := counted.calls.Load()
			res, err := core.Run(c, counted)
			counts = append(counts, exactCounts{counted.calls.Load() - calls0, schedCounts(c.Obs)})
			return res, err
		})
	})
	if err != nil {
		return nil, err
	}
	for i, c := range counts {
		if c != counts[0] && traced.errs[i] == nil {
			traced.errs[i] = fmt.Errorf("counts %+v differ from the first traced run's %+v", c, counts[0])
		}
	}
	tally(traced, true)

	runs := float64(len(traced.times))
	calls := float64(counts[0].sampleCalls)
	sampleIters := 0
	if r := traced.results[0]; r != nil {
		sampleIters = processed(r) * r.Iters
	}
	rep.add(cpu.metrics(runs)...)
	if s.bruteForceRef {
		lloydS = 0 // the strided shape has no sequential Lloyd counterpart
	}
	rep.add(
		metric{"core.lloyd_s", lloydS, "s"},
		metric{"dataset.sample_calls", calls, "count"},
		metric{"dataset.sample_s", float64(counted.nanos.Load()) / 1e9 / runs, "s"},
		metric{"dataset.calls_per_sample_iter", calls / float64(max(1, sampleIters)), "ratio"},
	)
	rep.add(schedMetrics(counts[0].sched)...)
	rep.add(traceCounters(traced.results[0])...)
	rep.add(serveAbsent()...)
	rep.add(untraced.rt.metrics(float64(len(untraced.times)))...)
	rep.add(
		metric{"trace_overhead_x", median(traced.times) / median(untraced.times), "ratio"},
		rep.errorRate(),
	)
	return rep, nil
}

// exactCounts are the per-run counts that must repeat bit for bit:
// Sample calls and the DES scheduler's counters.
type exactCounts struct {
	sampleCalls int64
	sched       [len(schedCounterNames)]uint64
}

// schedCounterNames are the DES scheduler's counters as the rollup
// recorder names them after "sched:".
var schedCounterNames = [...]string{"dispatches", "parks", "wakes", "max_queue_depth"}

// schedCounts reads the scheduler's counters off one run's recorder;
// runs on the goroutine driver have none and read zero.
func schedCounts(rec *obs.Recorder) [len(schedCounterNames)]uint64 {
	byName := map[string]uint64{}
	for _, c := range rec.Counters() {
		byName[c.Name] = c.Value
	}
	var out [len(schedCounterNames)]uint64
	for i, name := range schedCounterNames {
		out[i] = byName["sched:"+name]
	}
	return out
}

func schedMetrics(counts [len(schedCounterNames)]uint64) []metric {
	var ms []metric
	for i, name := range schedCounterNames {
		ms = append(ms, metric{"sched." + name, float64(counts[i]), "count"})
	}
	return ms
}

// traceCounters are one run's modelled machine counts.
func traceCounters(res *core.Result) []metric {
	var t trace.Snapshot
	if res != nil {
		t = res.Traffic
	}
	return []metric{
		{"trace.net_msgs", float64(t.NetMessages), "count"},
		{"trace.net_bytes", float64(t.NetBytes), "bytes"},
		{"trace.dma_bytes", float64(t.DMABytes), "bytes"},
		{"trace.reg_bytes", float64(t.RegBytes), "bytes"},
		{"trace.flops", float64(t.Flops), "count"},
	}
}

// serveAbsent reports the serving-only per-layer metrics as zero on
// the simulation workloads, so every traced invocation prints the same
// metric set.
func serveAbsent() []metric {
	return []metric{
		{"serve.epochs", 0, "count"},
		{"loadgen.late_p99_ms", 0, "ms"},
		{"loadgen.assign_p90_ms", 0, "ms"},
		{"loadgen.assign_p99_ms", 0, "ms"},
	}
}
