package main

import (
	"strings"
	"testing"

	"prairie/internal/oodb"
	"prairie/internal/p2v"
	"prairie/internal/prairielang"
)

// TestDumpShowsFrameAndSharing pins what -dump tells a specification's
// author about one firing: the OODB specification's join_assoc works in
// a seven-slot frame (left side in pattern order, then the two new
// nodes) and evaluates the conjunction its post-test writes twice once.
func TestDumpShowsFrameAndSharing(t *testing.T) {
	spec, err := prairielang.Parse(oodb.Spec)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := prairielang.Compile(spec, stubHelpers(spec))
	if err != nil {
		t.Fatal(err)
	}
	vrs, _, err := p2v.Translate(rs)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	dumpRules(&out, rs, vrs)
	for _, want := range []string{
		"  trans_rule join_assoc: JOIN(JOIN(?1:D1, ?2:D2):D3, ?3:D4):D5 -> JOIN(?1, JOIN(?2, ?3):D6):D7\n" +
			"      frame [D5 D3 D1 D2 D4 D7 D6]\n" +
			"      shares and_pred(D3.join_predicate, D5.join_predicate)\n",
		"      shares mat_size(D4.mat_attribute)\n",
		"  impl_rule  select_filter: SELECT -> Filter\n      frame [D2 D1 D4 D3]\n",
		"  enforcer sort_merge_sort (Merge_sort)\n      frame [D2 D1 D3]\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-dump output lacks\n%s--- got\n%s", want, out.String())
		}
	}
}
