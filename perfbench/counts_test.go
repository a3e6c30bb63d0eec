package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// tracedRun runs a workload once at the default seed the way the
// traced invocation does and checks its output.
func tracedRun(t *testing.T, s simShape) exactCounts {
	t.Helper()
	cfg, src, err := s.setup(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.reference(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	counted := &countingSource{Source: src}
	cfg.Stats = trace.NewStats()
	cfg.Obs = obs.NewRollupRecorder()
	res, err := core.Run(cfg, counted)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.check(res, ref, true); err != nil {
		t.Fatal(err)
	}
	return exactCounts{counted.calls.Load(), schedCounts(cfg.Obs)}
}

func TestL1KernelReadsEachSampleOnce(t *testing.T) {
	got := tracedRun(t, l1Kernel)
	// 8 iterations over 30,000 samples, plus the 240 initial centroids.
	want := exactCounts{sampleCalls: 8*30000 + 240}
	if got != want {
		t.Errorf("counts %+v, want %+v", got, want)
	}
}

func TestL3RegenCounts(t *testing.T) {
	got := tracedRun(t, l3Regen)
	// 5 reads per sample per iteration (5 iterations over 20,000
	// samples), plus the 64 initial centroids.
	want := exactCounts{sampleCalls: 500064}
	if got != want {
		t.Errorf("counts %+v, want %+v", got, want)
	}
}

func TestFig6b4kCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("4,096-rank run needs ~3 GB and several seconds")
	}
	got := tracedRun(t, fig6b4k)
	want := exactCounts{sampleCalls: 6128, sched: [len(schedCounterNames)]uint64{53337, 49241, 53337, 4096}}
	if got != want {
		t.Errorf("counts %+v, want %+v", got, want)
	}
}
