package volcano

import (
	"fmt"
	"slices"
	"strings"

	"prairie/internal/core"
)

// GroupID identifies an equivalence class in the memo. IDs are stable
// but may alias after group merging; Memo.Find canonicalizes.
type GroupID int

// LExpr is a logical expression in the memo: an operator applied to
// input groups, carrying its full Prairie descriptor. Identity (for
// duplicate elimination) is the operator, the argument-property
// projection of the descriptor, and the canonical input group ids; leaves
// are identified by file name.
type LExpr struct {
	Op   *core.Operation // nil for a stored-file leaf
	File string          // leaf only
	D    *core.Descriptor
	// Kids is carved from the memo's kid-id arena with cap = len, so
	// repair's in-place rewrite never reaches a neighbour's ids.
	Kids []GroupID
	// group is the canonical group at insertion time; Memo.Find(group)
	// stays correct across merges.
	group GroupID
	// seq is the expression's insertion stamp: of two expressions a merge
	// makes identical, the older survives (see repair). vis is the stamp
	// the explorer's matcher filters by — it enumerates only rule bindings
	// that involve an input expression at least as new as the root's last
	// visit. It starts as seq and is renewed when a merge moves the
	// expression into another group, where it is new to that group's
	// parents.
	seq, vis uint64
	// selfHash caches the kid-independent part of the duplicate-
	// detection key (operator + argument-property projection, or leaf
	// name); descriptors never change after interning, so Rehash reuses
	// it instead of re-hashing the descriptor.
	selfHash uint64
	// key is the full duplicate-detection key the expression is currently
	// indexed under, and next chains the expressions sharing it. A merge
	// leaves the keys of the loser's parents stale until Rehash repairs
	// them.
	key  uint64
	next *LExpr
	// dead marks an expression Rehash found to duplicate another after a
	// merge: it is out of the index and of its group, and the explorer's
	// worklist and the parent lists skip it.
	dead bool
	// queued marks the expression as pending in the explorer's worklist
	// (owned by the explorer; meaningless outside exploration).
	queued bool
	// ruleSince records, per transformation rule matching this root
	// operator (indexed by position in RuleSet.transFor(Op)), the
	// insertion-stamp horizon up to which bindings have been enumerated:
	// 0 = never applied; for shallow rules any non-zero value means done
	// (owned by the explorer).
	ruleSince []uint64
	// via is the name of the transformation rule whose firing inserted
	// this expression, or "" for the initial query tree — the provenance
	// optshell's :explain renders.
	via string
}

// IsLeaf reports whether the expression is a stored-file leaf.
func (e *LExpr) IsLeaf() bool { return e.Op == nil }

// String renders the expression with group references, e.g. "JOIN(3, 4)".
func (e *LExpr) String() string {
	if e.IsLeaf() {
		return e.File
	}
	parts := make([]string, len(e.Kids))
	for i, k := range e.Kids {
		parts[i] = fmt.Sprintf("%d", k)
	}
	return e.Op.Name + "(" + strings.Join(parts, ", ") + ")"
}

// winnerEntry memoizes the best plan found for one required
// physical-property vector; key is the requirement's hash on the
// physical properties, next the group's following entry.
type winnerEntry struct {
	req        *core.Descriptor
	plan       *core.Expr // nil: no feasible plan
	cost       float64
	key        uint64
	inProgress bool
	next       *winnerEntry
}

// Group is an equivalence class: a set of logically equivalent
// expressions plus the memoized winners per physical-property vector.
type Group struct {
	ID    GroupID
	Exprs []*LExpr
	// maxSeq is the newest visibility stamp (LExpr.vis) among the group's
	// expressions; the explorer uses it to decide whether a deep rule can
	// possibly find a new binding (anyKidNewer).
	maxSeq uint64
	// rep is the representative descriptor: the first inserted
	// expression's. Logical information (cardinality, attributes) is by
	// construction identical across a group's members.
	rep *core.Descriptor
	// depth is the group's distance below the query root along the path
	// that created it (root 0, an input one more than its parent; a merge
	// keeps the larger). The explorer visits the deepest pending
	// group first, so an input is closed before a parent is built on it.
	depth int
	// winners lists the memoized winners, one per requirement costed: a
	// group is asked for a handful at most, so findBest searches the
	// list by requirement hash and EqualOn.
	winners *winnerEntry
}

// Rep returns the group's representative descriptor.
func (g *Group) Rep() *core.Descriptor { return g.rep }

// memoHooks observes memo growth during exploration: the explorer
// installs one to learn which expressions and groups changed without
// rescanning the memo.
type memoHooks interface {
	// exprAdded fires when a new expression enters a group.
	exprAdded(e *LExpr)
	// groupsMerged fires after two canonical groups merge; winner is the
	// surviving canonical id and loserParents the live expressions that
	// took the other group as an input.
	groupsMerged(winner GroupID, loserParents []*LExpr)
}

// Memo is the shared search-space store: groups, expressions, and the
// duplicate-detection index. It implements group merging with union-find
// so that rediscovered equivalences collapse equivalence classes, which
// keeps the Figure 14 group counts honest.
type Memo struct {
	rs     *RuleSet
	groups []*Group
	parent []GroupID // union-find
	// index maps a duplicate-detection key to the chain (LExpr.next) of
	// live expressions indexed under it.
	index map[uint64]*LExpr
	// parents lists, per canonical group id, the expressions that take
	// the group as a direct input — the back edges along which a merge's
	// repair and the explorer's wake-ups travel. Dead entries linger
	// until parentsOf next walks the list.
	parents [][]*LExpr
	// stale queues the expressions whose index key a merge invalidated
	// (keys embed canonical kid ids): the parents of each merge's loser,
	// in merge order. Rehash drains it.
	stale []*LExpr
	// dirty is set by a merge and cleared by Rehash.
	dirty    bool
	merges   int
	repaired int
	// exprCount tracks live expressions for the search-space cap; interned
	// counts every expression ever adopted, dead ones included.
	exprCount, interned int
	// numGroups tracks live (canonical) equivalence classes so NumGroups
	// is O(1) instead of scanning the union-find on every Optimize.
	numGroups int
	// seq is the monotone insertion-stamp counter (see LExpr.seq).
	seq   uint64
	hooks memoHooks
	// curRule names the transformation rule currently firing (set by
	// applyTrans around buildRHS); insertions stamp it onto new
	// expressions as provenance. "" outside rule application.
	curRule string

	// The arenas: the expressions, kid ids, rule horizons, groups,
	// winner entries and descriptors the memo owns are carved from
	// chunks (core.Take) and die with the memo, and so are the growing
	// expression lists — group members, parent lists and the explorer's
	// FIFOs (see appendList). What a search returns never points into
	// them: plans are heap objects of their own (see costFrame.plan), and
	// a leaf's descriptor is the query tree's.
	exprArena    []LExpr
	kidArena     []GroupID
	horizonArena []uint64
	groupArena   []Group
	winnerArena  []winnerEntry
	listArena    []*LExpr
	descs        core.DescArena
}

// Arena chunk lengths, 2–5 KB each. They stay fixed as the memo grows:
// the unused tail of the last chunk is waste, and chunks that doubled
// cost a large search more bytes than allocating object by object.
const (
	exprChunk    = 32
	kidChunk     = 256
	horizonChunk = 256
	groupChunk   = 32
	winnerChunk  = 32
	listChunk    = 512
)

// NewMemo returns an empty memo for the rule set.
func NewMemo(rs *RuleSet) *Memo {
	return &Memo{rs: rs, index: make(map[uint64]*LExpr)}
}

// Find returns the canonical group id.
func (m *Memo) Find(g GroupID) GroupID {
	for m.parent[g] != g {
		m.parent[g] = m.parent[m.parent[g]] // path halving
		g = m.parent[g]
	}
	return g
}

// Group returns the canonical group for id.
func (m *Memo) Group(id GroupID) *Group { return m.groups[m.Find(id)] }

// NumGroups returns the number of live (canonical) equivalence classes —
// the quantity plotted in Figure 14 of the paper.
func (m *Memo) NumGroups() int { return m.numGroups }

// NumExprs returns the number of live logical expressions.
func (m *Memo) NumExprs() int { return m.exprCount }

// Merges returns how many group merges occurred.
func (m *Memo) Merges() int { return m.merges }

// Repaired returns how many expressions Rehash re-keyed after merges.
func (m *Memo) Repaired() int { return m.repaired }

// Interned returns how many expressions the memo ever adopted; what
// exceeds NumExprs was built on a group that later merged, and died.
func (m *Memo) Interned() int { return m.interned }

// Groups iterates the canonical groups in id order.
func (m *Memo) Groups() []*Group {
	var out []*Group
	for i := range m.groups {
		if m.Find(GroupID(i)) == GroupID(i) {
			out = append(out, m.groups[i])
		}
	}
	return out
}

func (m *Memo) newGroup(rep *core.Descriptor, depth int) *Group {
	id := GroupID(len(m.groups))
	g := &core.Take(&m.groupArena, 1, groupChunk)[0]
	g.ID, g.rep, g.depth = id, rep, depth
	m.groups = append(m.groups, g)
	m.parent = append(m.parent, id)
	m.parents = append(m.parents, nil)
	m.numGroups++
	return g
}

// stamp assigns e the next insertion sequence number and lifts its
// group's maxSeq.
func (m *Memo) stamp(e *LExpr, g *Group) {
	m.seq++
	e.seq, e.vis, g.maxSeq = m.seq, m.seq, m.seq
}

// idProps returns the properties that identify an expression of op in
// duplicate detection; it delegates to the rule set so the plan-cache
// fingerprint (see fingerprint.go) digests exactly the same projection.
func (m *Memo) idProps(op *core.Operation) []core.PropID {
	return m.rs.idProps(op)
}

// selfHash computes the kid-independent part of an expression's
// duplicate-detection key.
func (m *Memo) selfHash(op *core.Operation, file string, d *core.Descriptor) uint64 {
	if op == nil {
		return core.HashCombine(0x1eaf, hashLeafName(file))
	}
	h := core.HashCombine(0x09, uint64(op.Index()))
	return core.HashCombine(h, d.HashOn(m.idProps(op)))
}

// exprHash combines a self hash with canonical kid ids into the full
// duplicate-detection key.
func (m *Memo) exprHash(self uint64, kids []GroupID) uint64 {
	h := self
	for _, k := range kids {
		h = core.HashCombine(h, uint64(m.Find(k)))
	}
	return h
}

func hashLeafName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func (m *Memo) exprEqual(e *LExpr, op *core.Operation, file string, d *core.Descriptor, kids []GroupID) bool {
	if e.Op != op {
		return false
	}
	if op == nil {
		return e.File == file
	}
	if len(e.Kids) != len(kids) {
		return false
	}
	for i := range kids {
		if m.Find(e.Kids[i]) != m.Find(kids[i]) {
			return false
		}
	}
	return e.D.EqualOn(d, m.idProps(op))
}

// lookup returns an existing expression with the given full hash
// identical to the described one.
func (m *Memo) lookup(h uint64, op *core.Operation, file string, d *core.Descriptor, kids []GroupID) *LExpr {
	for e := m.index[h]; e != nil; e = e.next {
		if m.exprEqual(e, op, file, d, kids) {
			return e
		}
	}
	return nil
}

// addIndex indexes e under key h.
func (m *Memo) addIndex(h uint64, e *LExpr) {
	e.key, e.next = h, m.index[h]
	m.index[h] = e
}

// dropIndex removes e from the chain of its current key.
func (m *Memo) dropIndex(e *LExpr) {
	if head := m.index[e.key]; head != e {
		for head.next != e {
			head = head.next
		}
		head.next = e.next
	} else if e.next != nil {
		m.index[e.key] = e.next
	} else {
		delete(m.index, e.key)
	}
	e.next = nil
}

// parentsOf returns the live expressions that take canonical group g as
// a direct input, compacting dead ones out of the list on the way. An
// expression using g for several inputs is listed once per use.
func (m *Memo) parentsOf(g GroupID) []*LExpr {
	ps := m.parents[g]
	n := 0
	for _, p := range ps {
		if !p.dead {
			ps[n] = p
			n++
		}
	}
	clear(ps[n:])
	m.parents[g] = ps[:n]
	return ps[:n]
}

// appendList appends es to list, a list carved from the memo's list
// arena. A list that is full moves to a run of the arena twice its
// length, and the run it leaves stays as it was: a slice taken of the
// list before (the matcher's snapshot of a group) reads what it read,
// exactly as after an append on the heap.
func (m *Memo) appendList(list []*LExpr, es ...*LExpr) []*LExpr {
	if n := len(list) + len(es); n > cap(list) {
		run := core.Take(&m.listArena, max(n, 2*cap(list)), listChunk)
		list = run[:copy(run, list)]
	}
	return append(list, es...)
}

// adopt finishes the interning of a new expression: it joins group g, the
// index under key h, and the parent list of each of its inputs.
func (m *Memo) adopt(e *LExpr, g *Group, h uint64) {
	e.group, e.via = g.ID, m.curRule
	g.Exprs = m.appendList(g.Exprs, e)
	m.stamp(e, g)
	m.exprCount++
	m.interned++
	m.addIndex(h, e)
	for _, k := range e.Kids {
		m.parents[k] = m.appendList(m.parents[k], e)
	}
	if m.hooks != nil {
		m.hooks.exprAdded(e)
	}
}

// InsertLeaf interns a stored-file leaf and returns its group.
func (m *Memo) InsertLeaf(file string, d *core.Descriptor) GroupID {
	self := m.selfHash(nil, file, nil)
	h := m.exprHash(self, nil)
	if e := m.lookup(h, nil, file, nil, nil); e != nil {
		return m.Find(e.group)
	}
	g := m.newGroup(d, 0) // no rule roots at a leaf: its depth orders nothing
	e := m.newExpr()
	e.File, e.D, e.selfHash = file, d, self
	m.adopt(e, g, h)
	return g.ID
}

// newExpr returns a zero expression carved from the memo's arena.
func (m *Memo) newExpr() *LExpr { return &core.Take(&m.exprArena, 1, exprChunk)[0] }

// InsertExpr interns an operator expression. target is the group the
// expression is asserted to belong to (a transformation inserts its
// result into the matched expression's group), or -1 to create or reuse a
// group as needed. If the expression already exists in a different group
// than target, the two groups are merged — they have been proven
// equivalent. InsertExpr reports the expression's canonical group and
// whether the memo changed.
func (m *Memo) InsertExpr(op *core.Operation, d *core.Descriptor, kids []GroupID, target GroupID) (GroupID, bool) {
	return m.intern(op, d, kids, target, nil, 0)
}

// intern is InsertExpr; for a rule firing, b is its binding and d one of
// the binding's scratch descriptors, complete as far as op's identity
// goes. Only when the expression turns out to be new are the firing's
// deferred actions run and d cloned, so a duplicate — most rule firings
// rediscover a known expression — computes and allocates nothing. depth
// is the depth of the group a targetless new expression founds.
func (m *Memo) intern(op *core.Operation, d *core.Descriptor, kids []GroupID, target GroupID, b *TBinding, depth int) (GroupID, bool) {
	var buf [4]GroupID
	canon := buf[:0]
	for _, k := range kids {
		canon = append(canon, m.Find(k))
	}
	self := m.selfHash(op, "", d)
	h := m.exprHash(self, canon)
	if e := m.lookup(h, op, "", d, canon); e != nil {
		eg := m.Find(e.group)
		if target >= 0 && m.Find(target) != eg {
			m.merge(m.Find(target), eg)
			return m.Find(eg), true
		}
		return eg, false
	}
	if b != nil {
		b.finish()
		d = m.descs.Clone(d)
	}
	var g *Group
	if target >= 0 {
		g = m.groups[m.Find(target)]
	} else {
		g = m.newGroup(d, depth)
	}
	e := m.newExpr()
	e.Op, e.D, e.selfHash = op, d, self
	e.Kids = core.Take(&m.kidArena, len(canon), kidChunk)
	copy(e.Kids, canon)
	m.adopt(e, g, h)
	return g.ID, true
}

// merge unions two canonical groups, keeping a's identity.
func (m *Memo) merge(a, b GroupID) {
	if a == b {
		return
	}
	m.merges++
	m.numGroups--
	ga, gb := m.groups[a], m.groups[b]
	// Keep the group with more expressions to move less.
	if len(gb.Exprs) > len(ga.Exprs) {
		ga, gb = gb, ga
		a, b = b, a
	}
	m.parent[b] = a
	// The loser's expressions are new to the winner's parents and to
	// nobody else: under a fresh visibility stamp those parents' next visit
	// enumerates exactly the bindings that contain one of them.
	m.seq++
	for _, e := range gb.Exprs {
		e.group, e.vis = a, m.seq
	}
	ga.Exprs = m.appendList(ga.Exprs, gb.Exprs...)
	ga.maxSeq = m.seq
	ga.depth = max(ga.depth, gb.depth)
	gb.Exprs = nil
	// Winners computed before a merge would be stale; merging only
	// happens during exploration, before any winner exists, but clear
	// defensively.
	gb.winners = nil
	// Only b's parents embed a no-longer-canonical id in their keys.
	ps := m.parentsOf(b)
	m.stale = append(m.stale, ps...)
	m.parents[a] = m.appendList(m.parents[a], ps...)
	m.parents[b] = nil
	m.dirty = true
	if m.hooks != nil {
		m.hooks.groupsMerged(a, ps)
	}
}

// Dirty reports whether a merge has invalidated the duplicate index.
func (m *Memo) Dirty() bool { return m.dirty }

// Rehash repairs the duplicate-detection index after merges. Expression
// keys embed canonical kid ids, so a merge makes the keys of the loser's
// parents — and only those — stale, and can make previously distinct
// expressions identical. Rehash re-keys each queued parent; one that now
// duplicates another expression dies, and when the two lived in different
// groups those groups merge in turn, queueing further parents, until the
// queue runs dry. The cost is the parents of the merges' losers, not the
// memo; the queue is a slice, so the merge order is deterministic.
func (m *Memo) Rehash() {
	for i := 0; i < len(m.stale); i++ { // repair appends while this drains
		if e := m.stale[i]; !e.dead {
			m.repair(e)
		}
	}
	clear(m.stale)
	m.stale, m.dirty = m.stale[:0], false
}

// repair re-keys e under its inputs' canonical ids. If that makes it a
// duplicate, the older of the two (smaller insertion stamp) survives: it
// carries the longer rule-application history, so the explorer repeats
// the least work.
func (m *Memo) repair(e *LExpr) {
	m.repaired++
	m.dropIndex(e)
	for i, k := range e.Kids {
		e.Kids[i] = m.Find(k)
	}
	h := m.exprHash(e.selfHash, e.Kids)
	dup := m.lookup(h, e.Op, e.File, e.D, e.Kids)
	if dup == nil {
		m.addIndex(h, e)
		return
	}
	if dup.seq > e.seq {
		m.dropIndex(dup)
		m.addIndex(h, e)
		e, dup = dup, e
	}
	e.dead = true
	g := m.groups[m.Find(e.group)]
	i := slices.Index(g.Exprs, e)
	g.Exprs = slices.Delete(g.Exprs, i, i+1)
	m.exprCount--
	if dg := m.Find(dup.group); dg != g.ID {
		m.merge(dg, g.ID)
	}
}

// Insert interns a whole operator tree bottom-up and returns its root
// group; this is how the initial query (an initialized operator tree,
// §2.2) enters the memo.
func (m *Memo) Insert(e *core.Expr) GroupID { return m.insertAt(e, 0) }

func (m *Memo) insertAt(e *core.Expr, depth int) GroupID {
	if e.IsLeaf() {
		return m.InsertLeaf(e.File, e.D)
	}
	kids := make([]GroupID, len(e.Kids))
	for i, k := range e.Kids {
		kids[i] = m.insertAt(k, depth+1)
	}
	g, _ := m.intern(e.Op, e.D, kids, -1, nil, depth)
	return g
}

// Rough per-object heap sizes for MemEstimate: an LExpr with its kid
// slice, horizon slice, and index entry; a Group with its slice headers
// and winners.
const (
	exprBytesEstimate  = 176
	groupBytesEstimate = 144
)

// MemEstimate returns a rough O(1) estimate of the memo's heap
// footprint in bytes, derived from live expression and group counts.
// It feeds the prairie_memo_bytes_estimate gauge and Stats.MemoBytes —
// the observability analogue of the paper's virtual-memory exhaustion
// wall.
func (m *Memo) MemEstimate() int64 {
	return int64(m.exprCount)*exprBytesEstimate + int64(len(m.groups))*groupBytesEstimate
}

// Dump renders the memo's groups and expressions for debugging.
func (m *Memo) Dump() string {
	var b strings.Builder
	for _, g := range m.Groups() {
		fmt.Fprintf(&b, "group %d (rep %s):\n", g.ID, g.rep)
		for _, e := range g.Exprs {
			fmt.Fprintf(&b, "  %s\n", e)
		}
	}
	return b.String()
}
