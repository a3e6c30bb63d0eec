package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/machine"
)

// BenchmarkArgminDistance measures the distance kernel at the Level-1
// working-set shape (all centroids resident).
func BenchmarkArgminDistance(b *testing.B) {
	const k, d = 64, 128
	cents := make([]float64, k*d)
	x := make([]float64, d)
	for i := range cents {
		cents[i] = float64(i % 17)
	}
	for i := range x {
		x[i] = float64(i % 13)
	}
	b.SetBytes(int64(k * d * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		argminDistance(x, cents, d)
	}
}

// BenchmarkLloydIteration measures a full sequential baseline
// iteration on a small mixture.
func BenchmarkLloydIteration(b *testing.B) {
	g, err := dataset.NewGaussianMixture("bench", 2048, 32, 8, 0.2, 2.0, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Lloyd(g, 8, 1, 0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLevel3Iteration measures one functional Level-3 iteration
// on the simulated machine (8 CGs, dimension-striped).
func BenchmarkLevel3Iteration(b *testing.B) {
	g, err := dataset.NewGaussianMixture("bench", 2048, 256, 8, 0.2, 2.0, 1)
	if err != nil {
		b.Fatal(err)
	}
	spec := machine.MustSpec(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{Spec: spec, Level: Level3, K: 8, MaxIters: 1, Seed: 1}, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLevel3Scale measures one Level-3 iteration at the 1,024-node
// Figure 6b point on the DES driver: the ImgNet shape (n = 1,265,723/64,
// d = 1,024, k = 2,000) on 4,096 ranks in CG groups of m' = 128, every
// 2,048th sample computed. Host time is set-up (communicator splits,
// centroid stripes) and the Update allreduce over stripes that almost
// no sample reaches.
func BenchmarkLevel3Scale(b *testing.B) {
	g, err := dataset.NewGaussianMixture("ILSVRC2012", dataset.ImgNetN/64, 1024, 128, 0.25, 2.0, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Spec: machine.MustSpec(1024), Level: Level3, K: 2000, MPrimeGroup: 128,
		MaxIters: 1, SampleStride: 2048, Sched: true, Seed: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, g); err != nil {
			b.Fatal(err)
		}
	}
}
