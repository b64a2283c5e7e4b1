package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// The attribute table: one per process, append-only. A symbol is an
// index into it. Inserts take the mutex; readers load an immutable
// snapshot and never lock. Each entry keeps the FNV hashes of its two
// names, so Attrs.Hash, Order.Hash and Pred.Hash return what they
// returned when they hashed the strings, and the attribute's
// one-attribute order, boxed once (OrderOn).

// MaxAttrs is the ceiling on distinct attributes a process interns and
// maxAttrName the longest Rel+Name it accepts: names arriving off the
// wire are interned (wire.DecodePlan), and entries are never freed.
const (
	MaxAttrs    = 1 << 16
	maxAttrName = 256
)

// ErrAttrTableFull is returned by Intern once MaxAttrs names exist.
var ErrAttrTableFull = errors.New("core: attribute table full")

type attrEntry struct {
	rel, name         string
	relHash, nameHash uint64
	order             Value // Order{By: []Attr{a}}; nothing writes its By
}

var attrTable struct {
	mu   sync.Mutex
	syms map[[2]string]Attr          // guarded by mu
	snap atomic.Pointer[[]attrEntry] // (*snap)[sym]; entry 0 is the zero Attr
}

func init() {
	attrTable.syms = map[[2]string]Attr{{}: {}}
	attrTable.snap.Store(&[]attrEntry{{relHash: fnvOffset, nameHash: fnvOffset, order: OrderBy(Attr{})}})
}

func attrEntries() []attrEntry { return *attrTable.snap.Load() }

func (a Attr) entry() *attrEntry { return &attrEntries()[a.sym] }

// Intern returns the symbol of rel.name, adding it to the table if it is
// new. It is for names the process does not control; it fails rather than
// grow the table past MaxAttrs.
func Intern(rel, name string) (Attr, error) {
	t := &attrTable
	t.mu.Lock()
	defer t.mu.Unlock()
	if a, ok := t.syms[[2]string{rel, name}]; ok {
		return a, nil
	}
	tab := attrEntries()
	if len(tab) >= MaxAttrs {
		return Attr{}, ErrAttrTableFull
	}
	if len(rel)+len(name) > maxAttrName {
		return Attr{}, fmt.Errorf("core: attribute name %.32q... longer than %d bytes", rel+"."+name, maxAttrName)
	}
	rel, name = strings.Clone(rel), strings.Clone(name)
	// append writes past every published length or into a fresh array:
	// no reader of an older snapshot sees the slot.
	a := Attr{uint32(len(tab))}
	tab = append(tab, attrEntry{rel, name, hashString(rel), hashString(name), OrderBy(a)})
	t.snap.Store(&tab)
	t.syms[[2]string{rel, name}] = a
	return a, nil
}

// OrderOn returns the order sorted on a alone, OrderBy(a), boxed as a
// Value when a was interned: rules that sort on one attribute — a merge
// join's inputs, an index scan's output — set it on every firing and
// costing without allocating. Its By is shared: nothing may write it.
func OrderOn(a Attr) Value { return a.entry().order }

// A returns the attribute rel.name, interning it on first use. It is for
// catalogs, rule code and tests — set-up, not the request path — and
// panics where Intern returns an error.
func A(rel, name string) Attr {
	a, err := Intern(rel, name)
	if err != nil {
		panic(err)
	}
	return a
}
