package prairie_test

import (
	"testing"

	"prairie/internal/core"
	"prairie/internal/oodb"
	"prairie/internal/p2v"
	"prairie/internal/qgen"
	"prairie/internal/volcano"
)

// FuzzFingerprint property-tests the canonical fingerprint the plan
// cache keys on (internal/volcano/fingerprint.go). The invariants, for
// both the hand-coded and the Prairie-generated OODB rule sets:
//
//   - swapping the inputs of any operator the rule set proves
//     commutative must not change the hash or the canonical string;
//   - reordering any attrs-valued descriptor property (Attrs compare as
//     sets) must not change them either;
//   - a tree mutated only in those ways must never be distinguished
//     from the original, no matter how the mutations stack.
//
// The fuzz input selects a workload (family, width, join graph) and a
// byte schedule steering which nodes get swapped and which attribute
// lists get reversed.

// fpWorld is one prepared rule set plus its query builder.
type fpWorld struct {
	name  string
	rs    *volcano.RuleSet
	build func(e qgen.ExprKind, n int, g qgen.Graph) (*core.Expr, error)
}

func fpWorlds(f *testing.F) []fpWorld {
	const maxN = 4
	seed := qgen.InstanceSeeds()[0]

	vo := oodb.New(qgen.Catalog(maxN, seed, true))
	vw := fpWorld{
		name: "oodb/volcano",
		rs:   vo.VolcanoRules(),
		build: func(e qgen.ExprKind, n int, g qgen.Graph) (*core.Expr, error) {
			return qgen.BuildGraph(vo, e, n, g)
		},
	}

	po := oodb.New(qgen.Catalog(maxN, seed, true))
	pvrs, rep, err := p2v.Translate(po.PrairieRules())
	if err != nil {
		f.Fatal(err)
	}
	pw := fpWorld{
		name: "oodb/prairie",
		rs:   pvrs,
		build: func(e qgen.ExprKind, n int, g qgen.Graph) (*core.Expr, error) {
			tree, err := qgen.BuildGraph(po, e, n, g)
			if err != nil {
				return nil, err
			}
			tree, _, err = rep.PrepareQuery(tree, nil)
			return tree, err
		},
	}
	return []fpWorld{vw, pw}
}

// mutate applies fingerprint-preserving rewrites to e in place, steered
// by the schedule: bit 0 of the next byte swaps the kids of a
// commutative binary node, bit 1 reverses every attrs-valued property
// set on the node's descriptor. It returns the number of swaps.
func mutate(rs *volcano.RuleSet, e *core.Expr, schedule []byte, pos *int) (swaps int) {
	next := func() byte {
		if len(schedule) == 0 {
			return 0
		}
		b := schedule[*pos%len(schedule)]
		*pos++
		return b
	}
	var walk func(x *core.Expr)
	walk = func(x *core.Expr) {
		b := next()
		if x.D != nil && b&2 != 0 {
			ps := x.D.Props()
			for id := core.PropID(0); int(id) < ps.Len(); id++ {
				if ps.At(id).Kind != core.KindAttrs || !x.D.Has(id) {
					continue
				}
				as, ok := x.D.Get(id).(core.Attrs)
				if !ok || len(as) < 2 {
					continue
				}
				rev := make(core.Attrs, len(as))
				for i, a := range as {
					rev[len(as)-1-i] = a
				}
				x.D.Set(id, rev)
			}
		}
		if !x.IsLeaf() {
			if len(x.Kids) == 2 && rs.Commutative(x.Op) && b&1 != 0 {
				x.Kids[0], x.Kids[1] = x.Kids[1], x.Kids[0]
				swaps++
			}
			for _, k := range x.Kids {
				walk(k)
			}
		}
	}
	walk(e)
	return swaps
}

// fpSeeds is FuzzFingerprint's seed corpus. The last seed swaps every
// JOIN of an E1 star query over four classes, in both worlds.
var fpSeeds = [][]byte{
	{0, 3, 0, 1},
	{1, 4, 1, 3, 0xff, 0x55},
	{2, 3, 0, 2, 2, 2},
	{3, 4, 0, 1, 2, 3, 0xaa},
	{0, 2, 1, 0xff},
}

// fpInput decodes a fuzz input: its first bytes select the workload,
// the rest is the mutation schedule. ok is false for an input too short
// to select one.
func fpInput(in []byte) (fam qgen.ExprKind, n int, g qgen.Graph, schedule []byte, ok bool) {
	if len(in) < 2 {
		return 0, 0, 0, nil, false
	}
	fams := []qgen.ExprKind{qgen.E1, qgen.E2, qgen.E3, qgen.E4}
	fam = fams[int(in[0])%len(fams)]
	n = 2 + int(in[1])%3 // 2..4
	g = qgen.Linear
	if len(in) > 2 && in[2]&1 == 1 {
		g = qgen.Star
	}
	if len(in) > 3 {
		schedule = in[3:]
	}
	return fam, n, g, schedule, true
}

func FuzzFingerprint(f *testing.F) {
	worlds := fpWorlds(f)
	// A corpus that swaps no input of a commutative node in some world
	// would hold that world's commute invariant vacuously.
	for _, w := range worlds {
		swaps := 0
		for _, in := range fpSeeds {
			fam, n, g, schedule, _ := fpInput(in)
			tree, err := w.build(fam, n, g)
			if err != nil {
				continue
			}
			pos := 0
			swaps += mutate(w.rs, tree, schedule, &pos)
		}
		if swaps == 0 {
			f.Fatalf("%s: no seed swaps the inputs of a commutative node", w.name)
		}
	}
	for _, in := range fpSeeds {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		fam, n, g, schedule, ok := fpInput(in)
		if !ok {
			return
		}

		for _, w := range worlds {
			tree, err := w.build(fam, n, g)
			if err != nil {
				continue // not every (family, graph) combination exists
			}
			h0, c0 := w.rs.Fingerprint(tree)
			mut := tree.Clone()
			pos := 0
			mutate(w.rs, mut, schedule, &pos)
			h1, c1 := w.rs.Fingerprint(mut)
			if h0 != h1 || c0 != c1 {
				t.Fatalf("%s %v n=%d graph=%v: fingerprint not invariant under commute/attr-reorder\n--- original %016x\n%s\n--- mutated %016x\n%s",
					w.name, fam, n, g, h0, c0, h1, c1)
			}
			// The original tree must be untouched by Clone+mutate.
			if h, c := w.rs.Fingerprint(tree); h != h0 || c != c0 {
				t.Fatalf("%s: mutation leaked into the original tree", w.name)
			}
		}
	})
}
