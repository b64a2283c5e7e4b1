package core

import (
	"fmt"
	"slices"
	"sort"
)

// PropID identifies a property within a PropertySet. IDs are dense and
// start at 0, so descriptors can store values in a flat slice.
type PropID int

// NoProp is the invalid property id.
const NoProp PropID = -1

// Property is a named, typed descriptor slot, user-defined per optimizer
// (Table 2 of the paper lists a typical set: join_predicate,
// selection_predicate, tuple_order, num_records, tuple_size,
// projected_attributes, attributes, cost).
type Property struct {
	ID   PropID
	Name string
	Kind Kind
}

// PropertySet is the registry of properties for one optimizer algebra.
// All descriptors of the algebra share a PropertySet. In Prairie, unlike
// Volcano, the user does not classify properties as logical, physical, or
// operator arguments: that classification is computed by the P2V
// pre-processor (package internal/p2v).
type PropertySet struct {
	props  []Property
	byName map[string]PropID
}

// Classification partitions one Prairie descriptor into Volcano's three
// property classes (§3.1 of the paper). Volcano makes the user supply
// this; P2V computes it automatically.
type Classification struct {
	// Arg lists the operator/algorithm argument properties: they are
	// part of a logical expression's identity in the memo (two JOINs
	// with different join predicates are different expressions).
	Arg []PropID
	// Phys lists the physical properties: properties that can be
	// requested from below (e.g. tuple_order). Winners are memoized per
	// physical-property vector.
	Phys []PropID
	// Cost is the single cost property.
	Cost PropID
}

// IsArg reports whether id is classified as an argument property.
func (c Classification) IsArg(id PropID) bool { return slices.Contains(c.Arg, id) }

// IsPhys reports whether id is classified as a physical property.
func (c Classification) IsPhys(id PropID) bool { return slices.Contains(c.Phys, id) }

// NewPropertySet returns an empty property registry.
func NewPropertySet() *PropertySet {
	return &PropertySet{byName: make(map[string]PropID)}
}

// Define registers a property and returns its id. Redefining a name with
// the same kind returns the existing id; with a different kind it panics
// (a specification bug).
func (ps *PropertySet) Define(name string, kind Kind) PropID {
	if id, ok := ps.byName[name]; ok {
		if ps.props[id].Kind != kind {
			panic(fmt.Sprintf("core: property %q redefined with kind %v (was %v)", name, kind, ps.props[id].Kind))
		}
		return id
	}
	id := PropID(len(ps.props))
	ps.props = append(ps.props, Property{ID: id, Name: name, Kind: kind})
	ps.byName[name] = id
	return id
}

// Lookup returns the id of a named property.
func (ps *PropertySet) Lookup(name string) (PropID, bool) {
	id, ok := ps.byName[name]
	return id, ok
}

// MustLookup is Lookup that panics on a missing name; for rule code where
// the property is known to exist.
func (ps *PropertySet) MustLookup(name string) PropID {
	id, ok := ps.byName[name]
	if !ok {
		panic("core: unknown property " + name)
	}
	return id
}

// Len returns the number of registered properties.
func (ps *PropertySet) Len() int { return len(ps.props) }

// At returns the property with the given id.
func (ps *PropertySet) At(id PropID) Property { return ps.props[id] }

// Names returns all property names in definition order.
func (ps *PropertySet) Names() []string {
	out := make([]string, len(ps.props))
	for i, p := range ps.props {
		out[i] = p.Name
	}
	return out
}

// CostProps returns the ids of all properties of kind COST. The P2V
// pre-processor requires exactly one.
func (ps *PropertySet) CostProps() []PropID {
	var out []PropID
	for _, p := range ps.props {
		if p.Kind == KindCost {
			out = append(out, p.ID)
		}
	}
	return out
}

// SortedIDs returns all ids ordered by property name; used for stable
// report output.
func (ps *PropertySet) SortedIDs() []PropID {
	out := make([]PropID, len(ps.props))
	for i := range ps.props {
		out[i] = PropID(i)
	}
	sort.Slice(out, func(i, j int) bool { return ps.props[out[i]].Name < ps.props[out[j]].Name })
	return out
}
