package exec

import (
	"unsafe"

	"prairie/internal/data"
)

// Sentinel is the cell every pooled chunk holds when a run begins in
// this package's tests: a row that shows it was carved from a recycled
// chunk and not written, or was handed back while still in use.
var Sentinel = data.IntD(-0x5e171e1)

// sentinelRow is the row every pooled view points at, and garbage the
// ordinal every pooled chain holds, when a run begins: a view or a chain
// read before it was written, or handed back while still in use, shows
// as a sentinel row or an ordinal out of range.
var (
	sentinelRow = data.Tuple{Sentinel}
	garbage     = int32(0x5e171e1)
)

func init() { beforeRun = poisonPools }

// poisonPools fills every buffer of the free pools, to its capacity,
// with sentinels.
func poisonPools() {
	poison(&chunks, Sentinel)
	poison(&views, sentinelRow)
	poison(&chains, garbage)
}

func poison[T any](p *freeList[T], v T) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, b := range p.free {
		b = b[:cap(b)]
		b[0] = v
		for n := 1; n < len(b); n *= 2 {
			copy(b[n:], b[:n])
		}
	}
}

// PooledChunks reports how many chunks the free pool holds.
func PooledChunks() int {
	chunks.mu.Lock()
	defer chunks.mu.Unlock()
	return len(chunks.free)
}

// EmptyPool drops every pooled chunk, view buffer and chain.
func EmptyPool() {
	empty(&chunks)
	empty(&views)
	empty(&chains)
}

func empty[T any](p *freeList[T]) {
	p.mu.Lock()
	defer p.mu.Unlock()
	clear(p.free)
	p.free, p.held = p.free[:0], 0
}

// PoolUse is what one free list holds: buffers, elements of capacity
// counted two ways (the list's own count and the buffers' capacities
// summed), and its bound in elements.
type PoolUse struct {
	Name                      string
	Buffers, Held, Sum, Limit int
}

// PoolsInUse reports the three free lists.
func PoolsInUse() []PoolUse {
	return []PoolUse{use("chunks", &chunks), use("views", &views), use("chains", &chains)}
}

func use[T any](name string, p *freeList[T]) PoolUse {
	p.mu.Lock()
	defer p.mu.Unlock()
	u := PoolUse{Name: name, Buffers: len(p.free), Held: p.held, Limit: p.limit}
	for _, b := range p.free {
		u.Sum += cap(b)
	}
	return u
}

// SharesPooledViews reports whether rows' backing array overlaps any
// view buffer the free pool holds.
func SharesPooledViews(rows []data.Tuple) bool {
	if cap(rows) == 0 {
		return false
	}
	lo, hi := span(rows)
	views.mu.Lock()
	defer views.mu.Unlock()
	for _, b := range views.free {
		if blo, bhi := span(b); blo < hi && lo < bhi {
			return true
		}
	}
	return false
}

// span is the address range of a slice's backing array.
func span(s []data.Tuple) (lo, hi uintptr) {
	lo = uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return lo, lo + uintptr(cap(s))*unsafe.Sizeof(data.Tuple(nil))
}
