package rulecheck

import (
	"sort"

	"prairie/internal/core"
)

// Pattern-directed generation, second stage: the seed shapes cover every
// rule whose LHS an initialized query can contain, but several rules
// only match forms other rules produce (MAT(SELECT(x)) exists only after
// select_push_mat fires; MAT(MAT(x)) only after two mat_pull_join
// firings). The pool closes the seeds under rule application to a
// bounded depth, so each rule is verified against everything the search
// engine could actually feed it.

// Derivation bounds: levels beyond the seeds, new trees kept per level,
// and total pool size. They close the shipped rule sets (every rule
// exercised) while keeping oracle runs cheap.
const (
	poolDepth    = 2
	poolPerLevel = 200
	poolTotal    = 500
)

// derivePool returns the seeds closed under trans-rule application up to
// the bounds, deduplicated structurally (operators, files, and
// descriptor contents — String() alone would merge trees that differ
// only in predicates) and sorted smallest-first, so verification finds
// minimal counterexamples before larger ones.
func derivePool(w *World) []*core.Expr {
	seen := map[string]bool{}
	var pool []*core.Expr
	add := func(t *core.Expr) bool {
		if len(pool) >= poolTotal {
			return false
		}
		key := t.Format()
		if seen[key] {
			return false
		}
		seen[key] = true
		pool = append(pool, t)
		return true
	}
	for _, s := range w.Seeds {
		add(s)
	}
	level := append([]*core.Expr{}, pool...)
	for d := 0; d < poolDepth && len(level) > 0; d++ {
		var next []*core.Expr
		for _, t := range level {
			for _, r := range w.RS.Trans {
				for _, rw := range w.RS.ApplyRule(r, t) {
					if len(next) >= poolPerLevel {
						break
					}
					if add(rw) {
						next = append(next, rw)
					}
				}
			}
		}
		level = next
	}
	sort.SliceStable(pool, func(i, j int) bool { return pool[i].Size() < pool[j].Size() })
	return pool
}
