package volcano

import (
	"bytes"
	"slices"
	"strconv"

	"prairie/internal/core"
)

// This file computes the canonical fingerprint of a logical expression
// tree — the identity under which the cross-query plan cache stores
// winners. Two trees fingerprint equally exactly when the memo would
// treat them as the same search problem:
//
//   - leaves digest the stored-file name plus the argument-class
//     projection of their catalog descriptor;
//   - interior nodes digest the operator and the same argument-property
//     projection the memo's duplicate detection uses (RuleSet.idProps),
//     so properties that don't identify an expression (physical, cost)
//     don't fragment the cache;
//   - the inputs of an operator with an unconditional commute rule are
//     sorted into a canonical order, so A JOIN B and B JOIN A collide —
//     sound because the rule proves both orders share one equivalence
//     class, hence the same closure and winners.
//
// Alongside the 64-bit hash, fingerprintNode renders the exact canonical
// string it digests. The cache keys on both: the string makes hash
// collisions harmless (see plancache.Key).

// fingerprintNode returns the structural hash and the canonical
// rendering of the logical tree rooted at e.
func (rs *RuleSet) fingerprintNode(e *core.Expr) (uint64, string) {
	h, b := rs.fingerprintWalk(e, make([]byte, 0, 512))
	return h, string(b)
}

// Fingerprint exposes the canonical fingerprint for callers outside the
// cache path — property tests assert its invariants (commutative-input
// swaps and attribute reorderings must not change it), and services can
// use it as a stable request identity.
func (rs *RuleSet) Fingerprint(e *core.Expr) (uint64, string) {
	return rs.fingerprintNode(e)
}

// Commutative reports whether op's inputs are canonically sorted by the
// fingerprint, i.e. whether the rule set carries an unconditional
// commute rule for op.
func (rs *RuleSet) Commutative(op *core.Operation) bool {
	return rs.index().commut[op]
}

// fingerprintWalk appends e's canonical rendering to b — the whole tree
// is rendered into one buffer, a subtree is never a string of its own —
// and returns e's hash.
func (rs *RuleSet) fingerprintWalk(e *core.Expr, b []byte) (uint64, []byte) {
	if e.IsLeaf() {
		// Same leaf constant as Memo.selfHash, extended with the
		// catalog projection: the memo can key leaves by name alone
		// because one memo sees one catalog, but the cache outlives
		// catalog reloads within a rule set's lifetime.
		h := core.HashCombine(0x1eaf, hashLeafName(e.File))
		b = append(b, e.File...)
		if e.D != nil && len(rs.Class.Arg) > 0 {
			h = core.HashCombine(h, e.D.HashOn(rs.Class.Arg))
			b = appendProj(b, e.D, rs.Class.Arg)
		}
		return h, b
	}
	ids := rs.idProps(e.Op)
	h := core.HashCombine(core.HashCombine(0x09, uint64(e.Op.Index())), e.D.HashOn(ids))
	b = append(b, e.Op.Name...)
	b = appendProj(b, e.D, ids)
	b = append(b, '(')
	if len(e.Kids) == 2 && rs.Commutative(e.Op) {
		// Canonical input order: by hash, then by rendering. Both inputs
		// are rendered in tree order; when that is the wrong order the
		// two byte ranges trade places, through scratch space past the
		// end of the buffer.
		var h0, h1 uint64
		first := len(b)
		h0, b = rs.fingerprintWalk(e.Kids[0], b)
		b = append(b, ',')
		second := len(b)
		h1, b = rs.fingerprintWalk(e.Kids[1], b)
		if h1 < h0 || (h1 == h0 && bytes.Compare(b[second:], b[first:second-1]) < 0) {
			end := len(b)
			b = append(b, b[first:second-1]...)
			n := copy(b[first:], b[second:end])
			b[first+n] = ','
			copy(b[first+n+1:], b[end:])
			b = b[:end]
			h0, h1 = h1, h0
		}
		h = core.HashCombine(core.HashCombine(h, h0), h1)
		return h, append(b, ')')
	}
	for i, k := range e.Kids {
		if i > 0 {
			b = append(b, ',')
		}
		var hk uint64
		hk, b = rs.fingerprintWalk(k, b)
		h = core.HashCombine(h, hk)
	}
	return h, append(b, ')')
}

// appendProj renders the projection of d onto ids, reading unset
// properties as their defaults — exactly the equality Descriptor.EqualOn
// applies, so the canonical string distinguishes precisely what the memo
// distinguishes.
func appendProj(b []byte, d *core.Descriptor, ids []core.PropID) []byte {
	b = append(b, '{')
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		switch v := d.Get(id).(type) {
		case core.Attrs:
			// Attrs compare as sets (order-insensitive Equal/Hash) but
			// render in list order; sort so EqualOn-equal descriptors
			// canonicalize identically.
			b = appendSortedAttrs(b, v)
		case core.Float: // as Float.String, without the string
			b = strconv.AppendFloat(b, float64(v), 'g', -1, 64)
		case *core.Pred:
			b = v.AppendTo(b)
		default:
			b = append(b, v.String()...)
		}
	}
	return append(b, '}')
}

// appendSortedAttrs renders v's attributes ("rel.name") in (rel, name)
// order.
func appendSortedAttrs(b []byte, v core.Attrs) []byte {
	var stack [24]core.Attr
	sorted := append(stack[:0], v...)
	slices.SortFunc(sorted, core.Attr.Compare)
	b = append(b, '{')
	for i, a := range sorted {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(append(b, a.Rel()...), '.'), a.Name()...)
	}
	return append(b, '}')
}
