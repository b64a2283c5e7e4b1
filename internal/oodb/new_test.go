package oodb_test

import (
	"testing"

	"prairie/internal/oodb"
	"prairie/internal/qgen"
)

// TestNewAllocCeiling: New compiles the Open OODB specification once.
// Each T-rule is compiled only as the cut P2V asks for, and only when it
// asks, so building an optimizer over a fixed catalog allocates a fixed
// number of objects: 2 483 on go1.24 linux/amd64 (2 494 under -race),
// and the ceiling allows 3% more. A second compilation of every T-rule,
// as written, would add about a thousand.
func TestNewAllocCeiling(t *testing.T) {
	const ceiling = 2_557
	cat := qgen.Catalog(4, 101, false)
	if n := testing.AllocsPerRun(5, func() { oodb.New(cat) }); n > ceiling {
		t.Errorf("oodb.New allocates %.0f objects, ceiling %d", n, ceiling)
	}
}
