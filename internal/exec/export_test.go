package exec

import "prairie/internal/data"

// Sentinel is the cell every pooled chunk holds when a run begins in
// this package's tests: a row that shows it was carved from a recycled
// chunk and not written, or was handed back while still in use.
var Sentinel = data.IntD(-0x5e171e1)

func init() { beforeRun = poisonPool }

// poisonPool fills every chunk of the free pool with Sentinel.
func poisonPool() {
	chunks.mu.Lock()
	defer chunks.mu.Unlock()
	for _, c := range chunks.free {
		c[0] = Sentinel
		for n := 1; n < len(c); n *= 2 {
			copy(c[n:], c[:n])
		}
	}
}

// PooledChunks reports how many chunks the free pool holds.
func PooledChunks() int {
	chunks.mu.Lock()
	defer chunks.mu.Unlock()
	return len(chunks.free)
}

// EmptyPool drops every pooled chunk.
func EmptyPool() {
	chunks.mu.Lock()
	defer chunks.mu.Unlock()
	clear(chunks.free)
	chunks.free = chunks.free[:0]
}
