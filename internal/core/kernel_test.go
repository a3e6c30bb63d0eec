package core

import (
	"math"
	"math/rand"
	"testing"
)

// argminScalar is the one-centroid-per-pass reference kernel the
// blocked argminDistance must reproduce bit for bit.
func argminScalar(x, cents []float64, d int) (int, float64) {
	k := len(cents) / d
	best, bestDist := -1, 0.0
	for j := 0; j < k; j++ {
		s := 0.0
		for u := 0; u < d; u++ {
			diff := x[u] - cents[j*d+u]
			s += diff * diff
		}
		if best < 0 || s < bestDist {
			best, bestDist = j, s
		}
	}
	return best, bestDist
}

// TestArgminDistanceMatchesScalar: the register-blocked kernel returns
// the scalar reference's index and the same distance bits for every
// k mod 4 tail (k = 0 has no winner), across dimensions, with
// duplicated centroids (ties go to the lowest index) and with x equal
// to a centroid (distance 0).
func TestArgminDistanceMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, d := range []int{1, 3, 32, 1024} {
		for k := 0; k <= 13; k++ {
			cents := make([]float64, k*d)
			for i := range cents {
				cents[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
			// Duplicates: copy earlier rows forward so the duplicate of
			// the winner sits in a later block or the tail.
			for j := 1; j < k; j += 3 {
				src := rng.Intn(j)
				copy(cents[j*d:(j+1)*d], cents[src*d:(src+1)*d])
			}
			queries := [][]float64{make([]float64, d)}
			for q := 0; q < 8; q++ {
				x := make([]float64, d)
				for u := range x {
					x[u] = rng.NormFloat64()
				}
				queries = append(queries, x)
			}
			for j := 0; j < k; j++ {
				queries = append(queries, append([]float64(nil), cents[j*d:(j+1)*d]...))
			}
			for qi, x := range queries {
				gotJ, gotD := argminDistance(x, cents, d)
				wantJ, wantD := argminScalar(x, cents, d)
				if gotJ != wantJ || math.Float64bits(gotD) != math.Float64bits(wantD) {
					t.Fatalf("d=%d k=%d query %d: got (%d, %x), want (%d, %x)",
						d, k, qi, gotJ, math.Float64bits(gotD), wantJ, math.Float64bits(wantD))
				}
			}
		}
	}
}
