package volcano

import (
	"context"
	"math"
	"time"
)

// The ledger of one search: a tally row per rule, the stopwatch that
// charges wall time to those rows, and the budget accounting
// (budgetState). beginRun opens it and one deferred endRun writes it
// into Stats, whichever way the search ends.

// ruleTally is one rule's row of the ledger. Rows are indexed by rule
// position: RS.Trans first, then RS.Impls, then RS.Enforcers.
type ruleTally struct {
	// matched counts structural matches (an enforcer's: the times it was
	// requested), fired those whose condition passed (an enforcer's: the
	// plans it produced), new the trans_rule firings that interned or
	// merged anything.
	matched, fired, new int
	// time is the wall time the stopwatch charged to the rule.
	time time.Duration
}

// idle is the stopwatch row of no rule.
const idle = -1

// stopwatch charges wall time to one tally row at a time. A run without
// per-rule timing leaves it off: it then reads no clock.
type stopwatch struct {
	on  bool
	row int
	t0  time.Time
}

// beginRun opens the ledger of one search: the tally is zeroed, the
// stopwatch set by the observer's RuleTiming, costing opened to every
// memo member, and the budget's clock and caps armed. It makes one
// immediate clock/context check, so a context that is already cancelled
// (or a deadline already passed) is seen even by searches too small to
// reach a periodic checkpoint.
func (o *Optimizer) beginRun(ctx context.Context) {
	rs := o.RS
	if n := len(rs.Trans) + len(rs.Impls) + len(rs.Enforcers); len(o.tally) != n {
		o.tally = make([]ruleTally, n)
	} else {
		clear(o.tally)
	}
	o.clock = stopwatch{on: o.Opts.Obs.TimingEnabled(), row: idle}
	o.costUpTo = math.MaxUint64
	if ctx == nil {
		ctx = context.Background()
	}
	b := o.Opts.Budget
	o.run = budgetState{ctx: ctx, maxExprs: b.MaxExprs}
	r := &o.run
	if r.maxExprs <= 0 {
		r.maxExprs = maxExprsGuard
	}
	if b.Timeout > 0 {
		r.deadline = time.Now().Add(b.Timeout)
		r.timed = true
	}
	if d, ok := ctx.Deadline(); ok && (!r.timed || d.Before(r.deadline)) {
		r.deadline = d
		r.timed = true
	}
	r.active = r.timed || ctx.Done() != nil || !b.IsZero()
	if r.active {
		o.overTime()
	}
}

// endRun closes the ledger into Stats. The tally adds into the per-rule
// maps by rule name (TransTime and ImplTime only for timed rows; an
// enforcer's time has no map), and the memo's counters and the
// checkpoint count are written as they stand, so a search that failed
// or degraded reports the work it did.
func (o *Optimizer) endRun() {
	s, rs, rows := o.Stats, o.RS, o.tally
	s.ensureMaps()
	for i, r := range rs.Trans {
		rows[i].into(r.Name, s.TransMatched, s.TransFired, s.TransNew, &s.TransTime)
	}
	rows = rows[len(rs.Trans):]
	for i, r := range rs.Impls {
		rows[i].into(r.Name, s.ImplMatched, s.ImplFired, nil, &s.ImplTime)
	}
	rows = rows[len(rs.Impls):]
	for i, e := range rs.Enforcers {
		rows[i].into(e.Name, s.EnfMatched, s.EnfFired, nil, nil)
	}
	m := o.Memo
	s.Groups, s.Exprs, s.Merges, s.MemoBytes = m.NumGroups(), m.NumExprs(), m.Merges(), m.MemEstimate()
	s.BudgetChecks = o.run.ticks
}

// into adds the row's non-zero counts into the maps under name; a nil
// map or time map drops its column.
func (t *ruleTally) into(name string, matched, fired, new map[string]int, times *map[string]time.Duration) {
	add := func(m map[string]int, n int) {
		if m != nil && n != 0 {
			m[name] += n
		}
	}
	add(matched, t.matched)
	add(fired, t.fired)
	add(new, t.new)
	if times != nil && t.time != 0 {
		if *times == nil {
			*times = map[string]time.Duration{}
		}
		(*times)[name] += t.time
	}
}

// start charges the clock to row's rule from now on and returns its
// tally: each rule application and each costed alternative starts so.
func (o *Optimizer) start(row int) *ruleTally {
	o.charge(row)
	return &o.tally[row]
}

// charge moves the stopwatch to row (idle: no rule), charging the time
// since its last move to the row it ran for.
func (o *Optimizer) charge(row int) {
	if o.clock.on { // an untimed run pays this one branch
		o.clock.move(row, o.tally)
	}
}

func (c *stopwatch) move(row int, tally []ruleTally) {
	now := time.Now()
	if c.row != idle {
		tally[c.row].time += now.Sub(c.t0)
	}
	c.row, c.t0 = row, now
}
