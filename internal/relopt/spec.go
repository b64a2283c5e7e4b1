package relopt

// Spec is the Prairie-language specification of the relational
// optimizer: 3 T-rules and 6 I-rules, following the paper's examples
// literally — join_commute and join_assoc are Figure 3, join_to_jopr is
// the enforcer-introduction T-rule of footnote 5 (JOIN => JOPR over
// SORTed inputs), sort_merge_sort is Figure 5, join_nested_loops Figure
// 6 and sort_null Figure 7(b). P2V deduces SORT as an enforcer-operator,
// merges join_to_jopr away (aliasing JOPR to JOIN), turns sort_merge_sort
// into a Volcano enforcer and drops sort_null: 2 trans_rules, 4
// impl_rules and 1 enforcer, the hand-coded VolcanoRules' counts.
//
// The declarations are also the algebra New builds for the hand-coded
// rules. No operator declares args(...): every argument property
// identifies an expression, on both paths.
const Spec = `
algebra relational;

property tuple_order : order;
property join_predicate : pred;
property selection_predicate : pred;
property attributes : attrs;
property num_records : float;
property tuple_size : float;
property indexes : attrs;
property cost : cost;

operator RET(1);
operator JOIN(2);
operator JOPR(2);
operator SORT(1);

algorithm File_scan(1) implements RET;
algorithm Index_scan(1) implements RET;
algorithm Nested_loops(2) implements JOIN;
algorithm Merge_join(2) implements JOPR;
algorithm Merge_sort(1) implements SORT;
algorithm Null(1);

helper union(attrs, attrs) : attrs;
helper cardinality(float, float, pred) : float;
helper and_pred(pred, pred) : pred;
helper is_associative(pred, pred, attrs, attrs, attrs) : bool;
helper split_within(pred, pred, attrs) : pred;
helper split_rest(pred, pred, attrs) : pred;
helper is_equi_join(pred, attrs) : bool;
helper left_order(pred, attrs) : order;
helper right_order(pred, attrs) : order;
helper has_index(attrs) : bool;
helper index_order(attrs, order, pred) : order;
helper index_usable(attrs, order, pred) : bool;
helper order_within(order, attrs) : bool;
helper file_scan_cost(float) : cost;
helper index_scan_cost(float, float, bool) : cost;
helper nested_loops_cost(cost, float, cost) : cost;
helper merge_join_cost(cost, cost, float, float) : cost;
helper merge_sort_cost(cost, float) : cost;

trule join_commute:
  JOIN(?1:D1, ?2:D2):D3 => JOIN(?2, ?1):D4
posttest {
  D4 = D3;
}

// The pre-test computes the new inner join's attributes, the test is the
// paper's is_associative, and the post-test splits the two joins'
// predicates between the new nodes. Both take the two predicates as they
// stand — is_associative(pred, pred, attrs, attrs, attrs), split_within
// and split_rest (pred, pred, attrs) — so no firing builds their
// conjunction.
trule join_assoc:
  JOIN(JOIN(?1:D1, ?2:D2):D3, ?3:D4):D5 => JOIN(?1, JOIN(?2, ?3):D6):D7
pretest {
  D6.attributes = union(D2.attributes, D4.attributes);
}
test (is_associative(D3.join_predicate, D5.join_predicate, D1.attributes, D2.attributes, D4.attributes))
posttest {
  D6.join_predicate = split_within(D3.join_predicate, D5.join_predicate, D6.attributes);
  D6.num_records = cardinality(D2.num_records, D4.num_records, D6.join_predicate);
  D6.tuple_size = D2.tuple_size + D4.tuple_size;
  D6.tuple_order = DONT_CARE;
  D7 = D5;
  D7.join_predicate = split_rest(D3.join_predicate, D5.join_predicate, D6.attributes);
}

// A JOIN can be computed as a JOPR over inputs sorted on the join
// attributes. P2V deletes the SORT nodes, finds the rule an idempotent
// JOIN => JOPR mapping, drops it and substitutes JOIN for JOPR.
trule join_to_jopr:
  JOIN(?1:D1, ?2:D2):D3 => JOPR(SORT(?1):D4, SORT(?2):D5):D6
posttest {
  D6 = D3;
  D4 = D1;
  D4.tuple_order = left_order(D3.join_predicate, D1.attributes);
  D5 = D2;
  D5.tuple_order = right_order(D3.join_predicate, D1.attributes);
}

// A full scan delivers no useful order.
irule ret_file_scan:
  RET(?1:D1):D2 => File_scan(?1):D3
preopt {
  D3 = D2;
  D3.tuple_order = DONT_CARE;
}
postopt {
  D3.cost = file_scan_cost(D1.num_records);
}

// An index scan delivers the index order, probing cheaply when the
// selection is an equality on the indexed attribute.
irule ret_index_scan:
  RET(?1:D1):D2 => Index_scan(?1):D3
test (has_index(D1.indexes))
preopt {
  D3 = D2;
  D3.tuple_order = index_order(D1.indexes, D2.tuple_order, D2.selection_predicate);
}
postopt {
  D3.cost = index_scan_cost(D1.num_records, D3.num_records,
    index_usable(D1.indexes, D2.tuple_order, D2.selection_predicate));
}

// Nested loops deliver the order of their outer input, stated by
// assigning the outer input's new descriptor.
irule join_nested_loops:
  JOIN(?1:D1, ?2:D2):D3 => Nested_loops(?1:D4, ?2):D5
preopt {
  D5 = D3;
  D4 = D1;
  D4.tuple_order = D3.tuple_order;
}
postopt {
  D5.cost = nested_loops_cost(D4.cost, D4.num_records, D2.cost);
}

// JOPR, which join_to_jopr introduces, is implemented by merge join; the
// sorted-input requirements are the input descriptors' tuple orders.
// After P2V aliases JOPR to JOIN this is the JOIN => Merge_join rule.
irule jopr_merge_join:
  JOPR(?1:D1, ?2:D2):D3 => Merge_join(?1:D4, ?2:D5):D6
test (is_equi_join(D3.join_predicate, D1.attributes))
preopt {
  D6 = D3;
  D4 = D1;
  D5 = D2;
  D4.tuple_order = left_order(D3.join_predicate, D1.attributes);
  D5.tuple_order = right_order(D3.join_predicate, D1.attributes);
  D6.tuple_order = left_order(D3.join_predicate, D1.attributes);
}
postopt {
  D6.cost = merge_join_cost(D4.cost, D5.cost, D4.num_records, D5.num_records);
}

// A stream can only be sorted on attributes it carries.
irule sort_merge_sort:
  SORT(?1:D1):D2 => Merge_sort(?1):D3
test (D2.tuple_order != DONT_CARE && order_within(D2.tuple_order, D2.attributes))
preopt {
  D3 = D2;
}
postopt {
  D3.cost = merge_sort_cost(D1.cost, D3.num_records);
}

// The Null rule marks SORT as an enforcer-operator; its pre-opt
// propagates the tuple order onto the input stream's new descriptor.
irule sort_null:
  SORT(?1:D1):D2 => Null(?1:D3):D4
preopt {
  D4 = D2;
  D3 = D1;
  D3.tuple_order = D2.tuple_order;
}
postopt {
  D4.cost = D3.cost;
}
`

// HashJoinSpec is a module extending Spec with a hash join — the modular
// rule-set composition the paper's conclusion proposes: compile the two
// with prairielang.ParseAndCompileAll and HelperImpls; no rule of Spec
// changes.
const HashJoinSpec = `
algorithm Hash_join(2) implements JOIN;

irule join_hash_join:
  JOIN(?1:D1, ?2:D2):D3 => Hash_join(?1, ?2):D4
test (is_equi_join(D3.join_predicate, D1.attributes))
preopt {
  D4 = D3;
  D4.tuple_order = DONT_CARE;
}
postopt {
  D4.cost = D1.cost + D2.cost + D1.num_records + 2 * D2.num_records;
}
`
