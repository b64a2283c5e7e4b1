// Cache-equivalence harness for the cross-query plan cache (see
// DESIGN.md §4.11): over every example world — the reconstructed OODB
// optimizer (both the Prairie-generated and hand-coded rule sets), the
// centralized relational optimizer, and the DSL-compiled rules of
// examples/dslrules — a cache hit must return a plan byte-identical to
// the cold-path plan, a disabled cache must leave the engine
// byte-identical to a cacheless build, and a shared cache must be safe
// under the concurrent batch API (run with -race in CI).
package prairie_test

import (
	"fmt"
	"math"
	"os"
	"testing"

	"prairie"
	"prairie/internal/catalog"
	"prairie/internal/core"
	"prairie/internal/data"
	"prairie/internal/exec"
	"prairie/internal/oodb"
	"prairie/internal/p2v"
	"prairie/internal/qgen"
	"prairie/internal/relopt"
	"prairie/internal/volcano"
)

// cacheWorld is one (rule set, query, requirement) triple the harness
// exercises.
type cacheWorld struct {
	name string
	vrs  *volcano.RuleSet
	tree *core.Expr
	req  *core.Descriptor
}

// cacheWorlds builds the harness triples across every example world.
func cacheWorlds(t *testing.T) []cacheWorld {
	t.Helper()
	var ws []cacheWorld

	// OODB: Prairie-generated and hand-coded paths, one query per family.
	for _, fam := range []struct {
		e qgen.ExprKind
		n int
	}{{qgen.E1, 4}, {qgen.E2, 3}, {qgen.E3, 3}} {
		cat := qgen.Catalog(fam.n, qgen.InstanceSeeds()[0], false)
		po := oodb.New(cat)
		pvrs, rep, err := p2v.Translate(po.PrairieRules())
		if err != nil {
			t.Fatal(err)
		}
		ptree, err := qgen.Build(po, fam.e, fam.n)
		if err != nil {
			t.Fatal(err)
		}
		ptree, preq, err := rep.PrepareQuery(ptree, nil)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, cacheWorld{fmt.Sprintf("oodb/prairie/%v/n%d", fam.e, fam.n), pvrs, ptree, preq})

		vo := oodb.New(qgen.Catalog(fam.n, qgen.InstanceSeeds()[0], false))
		vtree, err := qgen.Build(vo, fam.e, fam.n)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, cacheWorld{fmt.Sprintf("oodb/volcano/%v/n%d", fam.e, fam.n),
			vo.VolcanoRules(), vtree, core.NewDescriptor(vo.Alg.Props)})
	}

	// Relational: the [5] experiment's optimizer, both paths.
	rcat := catalog.Generate(catalog.DefaultGen(3, 101, true))
	names := make([]string, 3)
	for i := range names {
		names[i] = catalog.ClassName(i + 1)
	}
	q := relopt.QuerySpec{Relations: names, Select: true}
	ro := relopt.New(rcat)
	rvrs, rrep, err := p2v.Translate(ro.PrairieRules())
	if err != nil {
		t.Fatal(err)
	}
	rtree, err := ro.Build(q)
	if err != nil {
		t.Fatal(err)
	}
	rtree, rreq, err := rrep.PrepareQuery(rtree, ro.Requirement(q))
	if err != nil {
		t.Fatal(err)
	}
	ws = append(ws, cacheWorld{"relational/prairie", rvrs, rtree, rreq})

	vo := relopt.New(rcat)
	vtree, err := vo.Build(q)
	if err != nil {
		t.Fatal(err)
	}
	ws = append(ws, cacheWorld{"relational/volcano", vo.VolcanoRules(), vtree, vo.Requirement(q)})

	// DSL rules: the textual specification of examples/dslrules, with a
	// root SORT that PrepareQuery turns into a requirement.
	ws = append(ws, dslWorld(t))
	return ws
}

// dslWorld compiles examples/dslrules/rules.prairie and builds the
// example's SORT(JOIN(RET(R1), RET(R2))) query.
func dslWorld(t *testing.T) cacheWorld {
	t.Helper()
	src, err := os.ReadFile("examples/dslrules/rules.prairie")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := prairie.ParseRules(string(src), map[string]prairie.HelperImpl{
		"nlogn": func(args []prairie.Value) (prairie.Value, error) {
			n := math.Max(float64(args[0].(prairie.Float)), 1)
			return prairie.Float(n * math.Log2(n+1)), nil
		},
		"order_within": func(args []prairie.Value) (prairie.Value, error) {
			ord := args[0].(prairie.Order)
			return prairie.Bool(ord.Within(args[1].(prairie.Attrs))), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	vrs, rep, err := prairie.Generate(rs)
	if err != nil {
		t.Fatal(err)
	}
	ps := rs.Algebra.Props
	nr := ps.MustLookup("num_records")
	at := ps.MustLookup("attributes")
	jp := ps.MustLookup("join_predicate")
	ord := ps.MustLookup("tuple_order")
	leaf := func(name string, card float64) *prairie.Expr {
		d := prairie.NewDescriptor(ps)
		d.SetFloat(nr, card)
		d.Set(at, prairie.Attrs{prairie.A(name, "a")})
		return prairie.NewLeaf(name, d)
	}
	retOp := rs.Algebra.MustOp("RET")
	joinOp := rs.Algebra.MustOp("JOIN")
	sortOp := rs.Algebra.MustOp("SORT")
	retOf := func(l *prairie.Expr) *prairie.Expr { return prairie.NewNode(retOp, l.D.Clone(), l) }
	l, r := retOf(leaf("R1", 512)), retOf(leaf("R2", 64))
	jd := prairie.NewDescriptor(ps)
	jd.SetFloat(nr, 512)
	jd.Set(at, l.D.AttrList(at).Union(r.D.AttrList(at)))
	jd.Set(jp, prairie.EqAttr(prairie.A("R1", "a"), prairie.A("R2", "a")))
	join := prairie.NewNode(joinOp, jd, l, r)
	sd := join.D.Clone()
	sd.Set(ord, prairie.OrderBy(prairie.A("R1", "a")))
	query := prairie.NewNode(sortOp, sd, join)
	query, req, err := rep.PrepareQuery(query, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cacheWorld{"dslrules", vrs, query, req}
}

// cacheRun optimizes one world with the given cache attached.
func cacheRun(t *testing.T, w cacheWorld, pc *volcano.PlanCache) (*core.Expr, *volcano.Stats) {
	t.Helper()
	opt := volcano.NewOptimizer(w.vrs)
	opt.Opts.Cache = pc
	plan, err := opt.Optimize(w.tree.Clone(), w.req)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return plan, opt.Stats
}

// TestPlanCacheEquivalence: for every world, the miss that populates
// the cache, the hit that serves from it, and a run with a disabled
// cache must all produce plans byte-identical to the cold path, with
// the expected counter movements; the cacheless Stats rendering must be
// byte-identical too (no cache: line).
func TestPlanCacheEquivalence(t *testing.T) {
	for _, w := range cacheWorlds(t) {
		t.Run(w.name, func(t *testing.T) {
			coldPlan, coldStats := cacheRun(t, w, nil)
			cold := coldPlan.Format()

			pc := volcano.NewPlanCache(64)
			missPlan, missStats := cacheRun(t, w, pc)
			if got := missPlan.Format(); got != cold {
				t.Errorf("miss plan differs from cold:\nmiss: %s\ncold: %s", got, cold)
			}
			if missStats.CacheMisses != 1 || missStats.CacheHits != 0 {
				t.Errorf("miss counters = hits %d misses %d", missStats.CacheHits, missStats.CacheMisses)
			}
			hitPlan, hitStats := cacheRun(t, w, pc)
			if got := hitPlan.Format(); got != cold {
				t.Errorf("hit plan differs from cold:\nhit:  %s\ncold: %s", got, cold)
			}
			if hitStats.CacheHits != 1 || hitStats.CacheMisses != 0 {
				t.Errorf("hit counters = hits %d misses %d", hitStats.CacheHits, hitStats.CacheMisses)
			}
			if hitStats.Groups != coldStats.Groups || hitStats.Exprs != coldStats.Exprs {
				t.Errorf("hit memo shape (%d groups, %d exprs) != cold (%d, %d)",
					hitStats.Groups, hitStats.Exprs, coldStats.Groups, coldStats.Exprs)
			}

			// Disabled handle: a capacity <= 0 is no cache at all, and
			// the engine reads byte-identical to cacheless.
			off := volcano.NewPlanCache(0)
			if off != nil || volcano.NewPlanCache(-1) != nil {
				t.Fatal("NewPlanCache(0) or NewPlanCache(-1) built a cache")
			}
			offPlan, offStats := cacheRun(t, w, off)
			if got := offPlan.Format(); got != cold {
				t.Errorf("disabled-cache plan differs from cold:\noff:  %s\ncold: %s", got, cold)
			}
			if got, want := offStats.String(), coldStats.String(); got != want {
				t.Errorf("disabled-cache stats render differs:\noff:  %q\ncold: %q", got, want)
			}
		})
	}
}

// TestPlanCacheHitPlansExecute: byte-identical plan text is necessary
// but not sufficient — for the executable OODB worlds, the plan served
// from a cache hit is compiled and run on synthetic data and
// bag-compared against the naive evaluation of the logical query.
func TestPlanCacheHitPlansExecute(t *testing.T) {
	seed := qgen.InstanceSeeds()[0]
	for _, fam := range []struct {
		e qgen.ExprKind
		n int
	}{{qgen.E1, 4}, {qgen.E2, 3}, {qgen.E3, 3}, {qgen.E4, 3}} {
		t.Run(fmt.Sprintf("%v/n%d", fam.e, fam.n), func(t *testing.T) {
			cat := qgen.Catalog(fam.n, seed, false)
			vo := oodb.New(cat)
			tree, err := qgen.Build(vo, fam.e, fam.n)
			if err != nil {
				t.Fatal(err)
			}
			w := cacheWorld{"exec", vo.VolcanoRules(), tree, core.NewDescriptor(vo.Alg.Props)}
			pc := volcano.NewPlanCache(16)
			cacheRun(t, w, pc) // miss populates
			hitPlan, hitStats := cacheRun(t, w, pc)
			if hitStats.CacheHits != 1 {
				t.Fatalf("second run was not a hit: %+v", hitStats)
			}
			db := data.Populate(cat, seed, 32)
			props := exec.Props{Ord: vo.Ord, JP: vo.JP, SP: vo.SP, PA: vo.PA, MA: vo.MA, UA: vo.UA}
			want, err := (&exec.Naive{DB: db, P: props}).Eval(tree)
			if err != nil {
				t.Fatal(err)
			}
			it, err := exec.NewCompiler(db, props).Compile(hitPlan)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			got, err := exec.Run(it)
			if err != nil {
				t.Fatalf("execute: %v", err)
			}
			if !exec.SameBag(got, want) {
				t.Errorf("cache-hit plan disagrees with naive (%d vs %d rows)",
					len(got.Rows), len(want.Rows))
			}
		})
	}
}

// TestPlanCacheBatchShared races eight goroutines of optimizers through
// one shared cache (run with -race in CI): duplicated queries collapse
// through singleflight, every plan must match the cold sequential plan,
// and the hit/miss counters must account for every run.
func TestPlanCacheBatchShared(t *testing.T) {
	cat := qgen.Catalog(3, qgen.InstanceSeeds()[0], false)
	vo := oodb.New(cat)
	vrs := vo.VolcanoRules()
	req := core.NewDescriptor(vo.Alg.Props)

	families := []qgen.ExprKind{qgen.E1, qgen.E2, qgen.E3, qgen.E4}
	want := make([]string, len(families))
	trees := make([]*core.Expr, len(families))
	const copies = 6
	for i, e := range families {
		tree, err := qgen.Build(vo, e, 3)
		if err != nil {
			t.Fatal(err)
		}
		seq := volcano.NewOptimizer(vrs)
		plan, err := seq.Optimize(tree.Clone(), req)
		if err != nil {
			t.Fatal(err)
		}
		want[i], trees[i] = plan.Format(), tree
	}
	pc := volcano.NewPlanCache(64)
	runs := copies * len(families)
	stats := make([]*volcano.Stats, runs)
	onGoroutines(runs, 8, func(i int) {
		opt := volcano.NewOptimizer(vrs)
		opt.Opts.Cache = pc
		stats[i] = opt.Stats
		plan, err := opt.Optimize(trees[i/copies].Clone(), req)
		if err != nil {
			t.Errorf("run %d: %v", i, err)
			return
		}
		if got := plan.Format(); got != want[i/copies] {
			t.Errorf("run %d (%v): concurrent plan differs from sequential:\nconc: %s\nseq:  %s",
				i, families[i/copies], got, want[i/copies])
		}
	})
	var hits, misses, waits int
	for _, s := range stats {
		hits, misses, waits = hits+s.CacheHits, misses+s.CacheMisses, waits+s.FlightWaits
	}
	if hits+misses != runs {
		t.Errorf("hits %d + misses %d != %d runs", hits, misses, runs)
	}
	if hits < runs-2*len(families) {
		t.Errorf("only %d hits across %d duplicated runs (misses %d, flight waits %d)",
			hits, runs, misses, waits)
	}
	if s := pc.Snapshot(); s.Entries != len(families) {
		t.Errorf("cache holds %d entries, want %d", s.Entries, len(families))
	}
}
