package qgen

import "math/rand"

// ZipfDraws returns count indices drawn from a zipfian distribution
// over a query pool of size n: index 0 is the hottest query, and the
// skew parameter s (> 1) controls how steeply popularity falls off —
// production query traffic is dominated by a small set of hot
// statements, which is exactly what a cross-query plan cache exploits.
// The sequence is a pure function of (n, count, s, seed), so repeat
// workloads are reproducible across runs and machines.
func ZipfDraws(n, count int, s float64, seed int64) []int {
	if n <= 0 || count <= 0 {
		return nil
	}
	if s <= 1 {
		s = 1.0001
	}
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), s, 1, uint64(n-1))
	out := make([]int, count)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}
