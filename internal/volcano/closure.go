package volcano

import (
	"context"
	"fmt"
)

// RuleCounts are a closure pass's counts by trans_rule name (Closure):
// the bindings each rule matched and those its condition let through.
// A rule that matched nothing has no entry.
type RuleCounts struct {
	Matched, Fired map[string]int
}

// Closure is the closure pass over the memo of a finished search. It
// applies every trans_rule — normalizing ones and involutions included,
// the latter at their own results too — to every live expression,
// enumerating every binding, and counts what each rule matched and
// fired: the rules at work in the search space, however the search
// reached it. It is also the check that the memo is the transformation
// closure: each firing must find only expressions the memo already
// holds, each in the group it would be asserted into. Rules only add to
// the memo, so a fixpoint reached from the query is the query's closure,
// whichever order reached it. The pass stops with an error at the first
// rule application that changes the memo, which it leaves changed. Its
// firings do not count in Stats.
func (o *Optimizer) Closure() (RuleCounts, error) {
	m, rs := o.Memo, o.RS
	o.beginRun(context.Background()) // a ledger no endRun closes
	rows := rs.index().rows
	interned, merges := m.Interned(), m.Merges()
	for _, g := range m.Groups() {
		for _, e := range g.Exprs {
			for i := range rows {
				te := &rows[i]
				if e.IsLeaf() || te.rule.LHS.Op != e.Op {
					continue
				}
				o.applyTrans(te, e, 0)
				if m.Interned() != interned || m.Merges() != merges {
					return RuleCounts{}, fmt.Errorf("%s on %s in group %d: interned %d -> %d, merges %d -> %d",
						te.rule.Name, e, g.ID, interned, m.Interned(), merges, m.Merges())
				}
			}
		}
	}
	o.charge(idle)
	c := RuleCounts{Matched: map[string]int{}, Fired: map[string]int{}}
	for i, r := range rs.Trans {
		if t := o.tally[i]; t.matched > 0 {
			c.Matched[r.Name] += t.matched
			if t.fired > 0 {
				c.Fired[r.Name] += t.fired
			}
		}
	}
	return c, nil
}

// CheckClosed is the closure pass's verdict alone (Closure).
func (o *Optimizer) CheckClosed() error {
	_, err := o.Closure()
	return err
}
