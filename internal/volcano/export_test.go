package volcano

import (
	"fmt"
	"reflect"
	"weak"

	"prairie/internal/core"
)

// This file holds the check the memo is tested against — a from-scratch
// rebuild for the parent-local repair; the explorer's closure has its
// own pass, Optimizer.Closure — and exports test hooks to the external
// test package (which may import the rule-set packages this package
// cannot).

// rebuildOracle is the whole-memo rebuild Memo.Rehash used to be, kept as
// the test oracle: it re-interns every live expression into a fresh
// index under a private copy of the union-find, drops duplicates, merges
// the groups of duplicates found in different groups, and repeats until
// a round merges nothing. It returns the group and expression counts it
// ends with and leaves m untouched. On a repaired memo it must find
// nothing to do.
func rebuildOracle(m *Memo) (groups, exprs int) {
	uf := append([]GroupID(nil), m.parent...)
	find := func(g GroupID) GroupID {
		for uf[g] != g {
			g = uf[g]
		}
		return g
	}
	same := func(a, b *LExpr) bool {
		if a.Op != b.Op || a.File != b.File || len(a.Kids) != len(b.Kids) {
			return false
		}
		for i := range a.Kids {
			if find(a.Kids[i]) != find(b.Kids[i]) {
				return false
			}
		}
		return a.Op == nil || a.D.EqualOn(b.D, m.idProps(a.Op))
	}
	var items []*LExpr
	for _, g := range m.Groups() {
		items = append(items, g.Exprs...)
	}
	for merged := true; merged; {
		merged = false
		index := make(map[uint64][]*LExpr, len(items))
		live := items[:0:0]
	next:
		for _, e := range items {
			h := e.selfHash
			for _, k := range e.Kids {
				h = core.HashCombine(h, uint64(find(k)))
			}
			for _, o := range index[h] {
				if same(o, e) {
					if a, b := find(o.group), find(e.group); a != b {
						uf[b] = a
						merged = true
					}
					continue next
				}
			}
			index[h] = append(index[h], e)
			live = append(live, e)
		}
		items = live
	}
	for g := range uf {
		if find(GroupID(g)) == GroupID(g) {
			groups++
		}
	}
	return groups, len(items)
}

// CheckRepaired verifies that the memo is in the state a from-scratch
// rebuild would leave it in: nothing pending, every live expression
// indexed under its current key with canonical inputs, the index holding
// nothing else, no two live expressions identical (rebuildOracle finds
// no duplicate and no merge), the counters matching the contents, and
// the parent lists covering exactly the live uses of each group.
func (m *Memo) CheckRepaired() error {
	if m.dirty || len(m.stale) != 0 {
		return fmt.Errorf("dirty=%v with %d stale expressions queued", m.dirty, len(m.stale))
	}
	type use struct {
		g GroupID
		e *LExpr
	}
	uses := map[use]int{}
	groups, exprs := 0, 0
	for id, g := range m.groups {
		if m.Find(GroupID(id)) != GroupID(id) {
			if len(g.Exprs) != 0 || len(m.parents[id]) != 0 {
				return fmt.Errorf("merged-away group %d keeps %d expressions and %d parents", id, len(g.Exprs), len(m.parents[id]))
			}
			continue
		}
		groups++
		exprs += len(g.Exprs)
		for _, e := range g.Exprs {
			if e.dead {
				return fmt.Errorf("group %d lists dead expression %s", id, e)
			}
			if m.Find(e.group) != g.ID {
				return fmt.Errorf("%s is listed in group %d but belongs to %d", e, id, m.Find(e.group))
			}
			for _, k := range e.Kids {
				if m.Find(k) != k {
					return fmt.Errorf("%s in group %d has non-canonical input %d (canonical %d)", e, id, k, m.Find(k))
				}
				uses[use{k, e}]++
			}
			if h := m.exprHash(e.selfHash, e.Kids); e.key != h {
				return fmt.Errorf("%s in group %d is keyed %x, its current key is %x", e, id, e.key, h)
			}
			if got := m.lookup(e.key, e.Op, e.File, e.D, e.Kids); got != e {
				return fmt.Errorf("%s in group %d: index lookup returns %v", e, id, got)
			}
		}
	}
	indexed := 0
	for h, e := range m.index {
		for ; e != nil; e = e.next {
			if e.dead || e.key != h {
				return fmt.Errorf("index chain %x holds %s (dead=%v, key %x)", h, e, e.dead, e.key)
			}
			indexed++
		}
	}
	if exprs != m.NumExprs() || indexed != exprs || groups != m.NumGroups() {
		return fmt.Errorf("memo holds %d groups / %d expressions, %d indexed; counters say %d / %d",
			groups, exprs, indexed, m.NumGroups(), m.NumExprs())
	}
	if og, oe := rebuildOracle(m); og != groups || oe != exprs {
		return fmt.Errorf("from-scratch rebuild ends at %d groups / %d expressions, memo has %d / %d", og, oe, groups, exprs)
	}
	for id := range m.groups {
		for _, p := range m.parents[id] {
			if !p.dead {
				uses[use{GroupID(id), p}]--
			}
		}
	}
	for u, n := range uses {
		if n != 0 {
			return fmt.Errorf("%s is listed %+d times too few as a parent of group %d", u.e, n, u.g)
		}
	}
	return nil
}

// SetMaxRepairRounds lowers the explorer's divergence bound and returns
// the function that restores it.
func SetMaxRepairRounds(n int) (restore func()) {
	old := maxRepairRounds
	maxRepairRounds = n
	return func() { maxRepairRounds = old }
}

// SetMaxExprsGuard lowers the expression cap a zero Budget.MaxExprs
// means and returns the function that restores it.
func SetMaxExprsGuard(n int) (restore func()) {
	old := maxExprsGuard
	maxExprsGuard = n
	return func() { maxExprsGuard = old }
}

// EagerRest returns a rule set that is rs with every rule's deferred
// actions (TransRule.Rest) folded back into its Appl: the reference a
// normal search — which runs Rest only for a firing whose result the memo
// keeps — must leave the same memo as, descriptor for descriptor.
func EagerRest(rs *RuleSet) *RuleSet {
	out := &RuleSet{Algebra: rs.Algebra, Class: rs.Class, Impls: rs.Impls, Enforcers: rs.Enforcers}
	for _, r := range rs.Trans {
		c := *r
		if appl, rest := r.Appl, r.Rest; rest != nil {
			c.Rest = nil
			c.Appl = func(b *core.Binding) {
				if appl != nil {
					appl(b)
				}
				rest(b)
			}
		}
		out.Trans = append(out.Trans, &c)
	}
	return out
}

// ScratchOwns reports whether d is a descriptor one of the optimizer's
// costing frames still owns: a requirement-merged OpDesc, the copy of
// an incumbent's, or one the binding a frame lends the rule hooks
// recycles.
func (o *Optimizer) ScratchOwns(d *core.Descriptor) bool {
	for _, f := range o.frames {
		if d == f.merged || d == f.bestD || f.cx.lent.Owns(d) {
			return true
		}
	}
	return false
}

// ScratchKids reports whether kids shares its array with a costing
// frame's input-plan slice or its copy of an incumbent's.
func (o *Optimizer) ScratchKids(kids []*core.Expr) bool {
	for _, f := range o.frames {
		for _, s := range [][]*core.Expr{f.plans[:cap(f.plans)], f.best.Kids[:cap(f.best.Kids)]} {
			for i := range s {
				if len(kids) > 0 && &kids[0] == &s[i] {
					return true
				}
			}
		}
	}
	return false
}

// Winners returns every plan the memo holds as a (group, requirement)
// winner.
func (m *Memo) Winners() []*core.Expr {
	var out []*core.Expr
	for _, g := range m.groups {
		for w := g.winners; w != nil; w = w.next {
			if w.plan != nil {
				out = append(out, w.plan)
			}
		}
	}
	return out
}

// ArenaObjects returns, per arena kind, one probe for every object the
// memo carved from it: the probe reports whether the object is still
// reachable. Each probe holds only a weak pointer, and a weak pointer
// into a chunk reads nil only once the whole chunk is unreachable, so
// the probes together watch every chunk the memo allocated. Leaves'
// descriptors are the query tree's, not the memo's, and are left out.
// The list arena is probed at its current chunk and at every group's
// and parent list's run; a chunk that holds only runs full lists left
// behind, or the explorer's FIFOs, goes unwatched.
func (m *Memo) ArenaObjects() map[string][]func() bool {
	out := map[string][]func() bool{}
	probe := func(kind string, alive func() bool) { out[kind] = append(out[kind], alive) }
	list := func(l []*LExpr) {
		if cap(l) > 0 {
			wl := weak.Make(&l[:1][0])
			probe("lists", func() bool { return wl.Value() != nil })
		}
	}
	list(m.listArena)
	for _, ps := range m.parents {
		list(ps)
	}
	desc := func(d *core.Descriptor) {
		wd := weak.Make(d)
		probe("descriptor", func() bool { return wd.Value() != nil })
		// The value slots are unexported; reflect reads where they start.
		if vals := reflect.ValueOf(d).Elem().FieldByName("vals"); vals.Len() > 0 {
			wv := weak.Make((*core.Value)(vals.UnsafePointer()))
			probe("value slots", func() bool { return wv.Value() != nil })
		}
	}
	for _, g := range m.groups {
		wg := weak.Make(g)
		probe("group", func() bool { return wg.Value() != nil })
		list(g.Exprs)
		for w := g.winners; w != nil; w = w.next {
			ww := weak.Make(w)
			probe("winner", func() bool { return ww.Value() != nil })
			desc(w.req)
		}
		for _, e := range g.Exprs {
			we := weak.Make(e)
			probe("expression", func() bool { return we.Value() != nil })
			if len(e.Kids) > 0 {
				wk := weak.Make(&e.Kids[0])
				probe("kid ids", func() bool { return wk.Value() != nil })
			}
			if len(e.ruleSince) > 0 {
				wh := weak.Make(&e.ruleSince[0])
				probe("horizons", func() bool { return wh.Value() != nil })
			}
			if !e.IsLeaf() {
				desc(e.D)
			}
		}
	}
	return out
}
