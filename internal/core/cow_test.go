package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/trace"
)

// runShared runs cfg through the Level-3 engine on an initial matrix
// the test owns, so it can check afterwards what the ranks that shared
// it left behind.
func runShared(t *testing.T, cfg Config, src dataset.Source) (*Result, []float64) {
	t.Helper()
	cfg = cfg.withDefaults()
	if !cfg.Faults.Empty() {
		cfg.Stats = trace.NewStats()
	}
	plan, err := PlanFor(cfg, src.N(), src.D())
	if err != nil {
		t.Fatal(err)
	}
	init, err := InitialCentroids(src, cfg.K, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runEngine(cfg, src, plan, level3Engine{}, init)
	if err != nil {
		t.Fatal(err)
	}
	return res, init
}

// sameBits reports the first index where a and b differ bitwise, or -1.
func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestLevel3SharedMatrixUntouched: Level-3 ranks share one read-only
// initial matrix and copy a centroid stripe only before its first
// update. After a strided run where most stripes receive no sample, and
// after a checkpoint-restore run, the shared matrix must still equal a
// fresh InitialCentroids bit for bit — no rank wrote through its view —
// while the runs' results equal those of Run, which hands the engine a
// matrix of its own. Under -race the goroutine driver also reports any
// such write as a race between the groups sharing a stripe.
func TestLevel3SharedMatrixUntouched(t *testing.T) {
	src, err := dataset.NewGaussianMixture("g", 2400, 16, 4, 0.15, 2.0, 0xC0DE)
	if err != nil {
		t.Fatal(err)
	}
	strided := Config{Spec: machine.MustSpec(8), Level: Level3, K: 64, MPrimeGroup: 16, MaxIters: 3, Seed: 5, SampleStride: 300}
	stridedDES := strided
	stridedDES.Sched = true
	restore := Config{Spec: machine.MustSpec(2), Level: Level3, K: 8, MPrimeGroup: 4, MaxIters: 12, Seed: 11, CheckpointInterval: 2}
	clean, err := Run(restore, src)
	if err != nil {
		t.Fatal(err)
	}
	restore.Faults = fault.Plan{Crashes: []fault.Crash{{CG: 5, At: 0.4 * totalIterSeconds(clean)}}}

	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"strided", strided}, {"strided-des", stridedDES}, {"restore", restore}} {
		t.Run(tc.name, func(t *testing.T) {
			res, shared := runShared(t, tc.cfg, src)
			fresh, err := InitialCentroids(src, tc.cfg.K, tc.cfg.Seed)
			if err != nil {
				t.Fatal(err)
			}
			if i := sameBits(shared, fresh); i >= 0 {
				t.Fatalf("shared initial matrix written at %d: %v, fresh %v", i, shared[i], fresh[i])
			}
			ref, err := Run(tc.cfg, src)
			if err != nil {
				t.Fatal(err)
			}
			if i := sameBits(res.Centroids, ref.Centroids); i >= 0 {
				t.Fatalf("centroid %d = %v, Run gives %v", i, res.Centroids[i], ref.Centroids[i])
			}
			moved := 0
			d := src.D()
			for j := 0; j < tc.cfg.K; j++ {
				if sameBits(res.Centroids[j*d:(j+1)*d], fresh[j*d:(j+1)*d]) >= 0 {
					moved++
				}
			}
			if moved == 0 {
				t.Fatal("no centroid moved: the run never wrote a stripe")
			}
			if tc.cfg.SampleStride > 1 && 2*moved > tc.cfg.K {
				t.Fatalf("%d of %d centroids moved, want most stripes sample-free", moved, tc.cfg.K)
			}
			if !tc.cfg.Faults.Empty() && (res.Recovery == nil || res.Recovery.Checkpoints < 1 || res.Recovery.Replans < 1) {
				t.Fatalf("restore run recovery %+v, want a checkpoint and a replan", res.Recovery)
			}
		})
	}
}
