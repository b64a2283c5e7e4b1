package oodb

// Spec is the Prairie-language specification of the Open OODB query
// optimizer: 22 T-rules and 11 I-rules (§4.2 of the paper). The P2V
// pre-processor merges it into 17 trans_rules, 9 impl_rules and 1
// enforcer — the counts of the hand-coded Volcano rule set.
//
// Five T-rules mention the SORT enforcer-operator and are merged away
// (join_to_jopr additionally aliases JOPR to JOIN); the SORT Null rule
// and the Merge_sort rule account for the two extra I-rules.
//
// The spec declares the two MAT push rules normalizing: the optimizer
// pushes every MAT it can below its join before the search, which never
// explores them, since the pull rules rebuild from the pushed-down tree
// all the push rules would build. P2V derives join_commute an involution
// (its own inverse), which exploration never fires on its own results.
// The hand-coded rule set declares both the same way.
//
// The join rules build nothing they only test or split: split_within and
// split_rest take join_assoc's two predicates (pred, pred, attrs) and
// split them as their conjunction would split, and the MAT pull rules
// test the join predicate against their two inputs' attribute sets with
// refers_only_either(pred, attrs, attrs) rather than against a union.
const Spec = `
algebra oodb;

property tuple_order : order;
property join_predicate : pred;
property selection_predicate : pred;
property projected_attributes : attrs;
property mat_attribute : attrs;
property unnest_attribute : attrs;
property attributes : attrs;
property num_records : float;
property tuple_size : float;
property indexes : attrs;
property cost : cost;

operator RET(1) args(selection_predicate, projected_attributes);
operator JOIN(2) args(join_predicate);
operator JOPR(2) args(join_predicate);
operator SELECT(1) args(selection_predicate);
operator PROJECT(1) args(projected_attributes);
operator MAT(1) args(mat_attribute);
operator UNNEST(1) args(unnest_attribute);
operator SORT(1) args(tuple_order);

algorithm File_scan(1) implements RET;
algorithm Index_scan(1) implements RET;
algorithm Filter(1) implements SELECT;
algorithm Project(1) implements PROJECT;
algorithm Hash_join(2) implements JOPR;
algorithm Pointer_join(1) implements MAT;
algorithm Materialize(1) implements MAT;
algorithm Flatten(1) implements UNNEST;
algorithm Merge_sort(1) implements SORT;
algorithm Null(1);

helper union(attrs, attrs) : attrs;
helper contains_all(attrs, attrs) : bool;
helper attrs_eq(attrs, attrs) : bool;
helper and_pred(pred, pred) : pred;
helper split_within(pred, pred, attrs) : pred;
helper split_rest(pred, pred, attrs) : pred;
helper refers_only(pred, attrs) : bool;
helper refers_only_either(pred, attrs, attrs) : bool;
helper conj_count(pred) : float;
helper first_conj(pred) : pred;
helper rest_conj(pred) : pred;
helper is_assoc(pred, pred, attrs, attrs, attrs) : bool;
helper join_card(float, float, pred) : float;
helper sel_card(float, pred) : float;
helper is_ref_join(pred, attrs, attrs) : bool;
helper ref_of(pred, attrs) : attrs;
helper is_true_pred(pred) : bool;
helper mat_attrs(attrs) : attrs;
helper mat_card(attrs) : float;
helper mat_size(attrs) : float;
helper unnest_card(float, attrs) : float;
helper has_index(attrs) : bool;
helper has_probe_index(attrs, pred) : bool;
helper probe_order(attrs, pred) : order;
helper sweep_order(attrs, order) : order;
helper nlogn(float) : float;
helper order_within(order, attrs) : bool;

// ======================================================================
// T-rules: the JOIN space.
// ======================================================================

trule join_commute:
  JOIN(?1:D1, ?2:D2):D3 => JOIN(?2, ?1):D4
posttest {
  D4 = D3;
}

trule join_assoc:
  JOIN(JOIN(?1:D1, ?2:D2):D3, ?3:D4):D5 => JOIN(?1, JOIN(?2, ?3):D6):D7
pretest {
  D6.attributes = union(D2.attributes, D4.attributes);
}
test (is_assoc(D3.join_predicate, D5.join_predicate, D1.attributes, D2.attributes, D4.attributes))
posttest {
  D6.join_predicate = split_within(D3.join_predicate, D5.join_predicate, D6.attributes);
  D6.num_records = join_card(D2.num_records, D4.num_records, D6.join_predicate);
  D6.tuple_size = D2.tuple_size + D4.tuple_size;
  D7 = D5;
  D7.join_predicate = split_rest(D3.join_predicate, D5.join_predicate, D6.attributes);
}

// ======================================================================
// T-rules: the SELECT space.
// ======================================================================

trule select_push_join_left:
  SELECT(JOIN(?1:D1, ?2:D2):D3):D4 => JOIN(SELECT(?1):D5, ?2):D6
test (refers_only(D4.selection_predicate, D1.attributes))
posttest {
  D5 = D1;
  D5.selection_predicate = D4.selection_predicate;
  D5.num_records = sel_card(D1.num_records, D4.selection_predicate);
  D6 = D3;
  D6.num_records = D4.num_records;
}

trule select_push_join_right:
  SELECT(JOIN(?1:D1, ?2:D2):D3):D4 => JOIN(?1, SELECT(?2):D5):D6
test (refers_only(D4.selection_predicate, D2.attributes))
posttest {
  D5 = D2;
  D5.selection_predicate = D4.selection_predicate;
  D5.num_records = sel_card(D2.num_records, D4.selection_predicate);
  D6 = D3;
  D6.num_records = D4.num_records;
}

trule select_split:
  SELECT(?1:D1):D2 => SELECT(SELECT(?1):D3):D4
test (conj_count(D2.selection_predicate) >= 2)
posttest {
  D3 = D2;
  D3.selection_predicate = rest_conj(D2.selection_predicate);
  D3.num_records = sel_card(D1.num_records, rest_conj(D2.selection_predicate));
  D4 = D2;
  D4.selection_predicate = first_conj(D2.selection_predicate);
}

trule select_merge:
  SELECT(SELECT(?1:D1):D2):D3 => SELECT(?1):D4
posttest {
  D4 = D3;
  D4.selection_predicate = and_pred(D3.selection_predicate, D2.selection_predicate);
}

trule select_commute:
  SELECT(SELECT(?1:D1):D2):D3 => SELECT(SELECT(?1):D4):D5
posttest {
  D4 = D2;
  D4.selection_predicate = D3.selection_predicate;
  D4.num_records = sel_card(D1.num_records, D3.selection_predicate);
  D5 = D3;
  D5.selection_predicate = D2.selection_predicate;
}

trule select_into_ret:
  SELECT(RET(?1:D1):D2):D3 => RET(?1):D4
posttest {
  D4 = D2;
  D4.selection_predicate = and_pred(D2.selection_predicate, D3.selection_predicate);
  D4.num_records = D3.num_records;
}

trule select_push_mat:
  SELECT(MAT(?1:D1):D2):D3 => MAT(SELECT(?1):D4):D5
test (refers_only(D3.selection_predicate, D1.attributes))
posttest {
  D4 = D1;
  D4.selection_predicate = D3.selection_predicate;
  D4.num_records = sel_card(D1.num_records, D3.selection_predicate);
  D5 = D2;
  D5.num_records = D3.num_records;
}

trule mat_pull_select:
  MAT(SELECT(?1:D1):D2):D3 => SELECT(MAT(?1):D4):D5
posttest {
  D4 = D3;
  D4.attributes = union(D1.attributes, mat_attrs(D3.mat_attribute));
  D4.num_records = D1.num_records;
  D5 = D3;
  D5.selection_predicate = D2.selection_predicate;
}

// ======================================================================
// T-rules: the MAT space.
// ======================================================================

trule mat_push_join_left:
  MAT(JOIN(?1:D1, ?2:D2):D3):D4 => JOIN(MAT(?1):D5, ?2):D6
test (contains_all(D1.attributes, D4.mat_attribute))
posttest {
  D5 = D4;
  D5.attributes = union(D1.attributes, mat_attrs(D4.mat_attribute));
  D5.num_records = D1.num_records;
  D5.tuple_size = D1.tuple_size + mat_size(D4.mat_attribute);
  D6 = D3;
  D6.attributes = D4.attributes;
  D6.tuple_size = D3.tuple_size + mat_size(D4.mat_attribute);
}

trule mat_push_join_right:
  MAT(JOIN(?1:D1, ?2:D2):D3):D4 => JOIN(?1, MAT(?2):D5):D6
test (contains_all(D2.attributes, D4.mat_attribute))
posttest {
  D5 = D4;
  D5.attributes = union(D2.attributes, mat_attrs(D4.mat_attribute));
  D5.num_records = D2.num_records;
  D5.tuple_size = D2.tuple_size + mat_size(D4.mat_attribute);
  D6 = D3;
  D6.attributes = D4.attributes;
  D6.tuple_size = D3.tuple_size + mat_size(D4.mat_attribute);
}

// The pull rules below rebuild from a tree with its MATs pushed down
// everything the push rules build: the push rules normalize the query
// before the search, which never explores them.
normalize mat_push_join_left, mat_push_join_right;

trule mat_pull_join_left:
  JOIN(MAT(?1:D1):D2, ?3:D3):D4 => MAT(JOIN(?1, ?3):D5):D6
test (refers_only_either(D4.join_predicate, D1.attributes, D3.attributes))
posttest {
  D5 = D4;
  D5.attributes = union(D1.attributes, D3.attributes);
  D5.tuple_size = D1.tuple_size + D3.tuple_size;
  D6 = D2;
  D6.attributes = D4.attributes;
  D6.num_records = D4.num_records;
  D6.tuple_size = D4.tuple_size;
}

trule mat_pull_join_right:
  JOIN(?1:D1, MAT(?2:D2):D3):D4 => MAT(JOIN(?1, ?2):D5):D6
test (refers_only_either(D4.join_predicate, D1.attributes, D2.attributes))
posttest {
  D5 = D4;
  D5.attributes = union(D1.attributes, D2.attributes);
  D5.tuple_size = D1.tuple_size + D2.tuple_size;
  D6 = D3;
  D6.attributes = D4.attributes;
  D6.num_records = D4.num_records;
  D6.tuple_size = D4.tuple_size;
}

trule mat_commute_mat:
  MAT(MAT(?1:D1):D2):D3 => MAT(MAT(?1):D4):D5
test (!attrs_eq(D2.mat_attribute, D3.mat_attribute) && contains_all(D1.attributes, D3.mat_attribute))
posttest {
  D4 = D2;
  D4.mat_attribute = D3.mat_attribute;
  D4.attributes = union(D1.attributes, mat_attrs(D3.mat_attribute));
  D4.tuple_size = D1.tuple_size + mat_size(D3.mat_attribute);
  D5 = D3;
  D5.mat_attribute = D2.mat_attribute;
  D5.attributes = D3.attributes;
  D5.tuple_size = D3.tuple_size;
}

trule join_to_mat:
  JOIN(?1:D1, RET(?2:D2):D3):D4 => MAT(?1):D5
test (is_ref_join(D4.join_predicate, D1.attributes, D3.attributes) && is_true_pred(D3.selection_predicate))
posttest {
  D5 = D4;
  D5.mat_attribute = ref_of(D4.join_predicate, D1.attributes);
  D5.num_records = D1.num_records;
}

// ======================================================================
// T-rule: the UNNEST space (exactly one, as in the TI rule set).
// ======================================================================

trule unnest_mat_commute:
  UNNEST(MAT(?1:D1):D2):D3 => MAT(UNNEST(?1):D4):D5
test (contains_all(D1.attributes, D3.unnest_attribute))
posttest {
  D4 = D3;
  D4.attributes = D1.attributes;
  D4.unnest_attribute = D3.unnest_attribute;
  D4.num_records = unnest_card(D1.num_records, D3.unnest_attribute);
  D4.tuple_size = D1.tuple_size;
  D5 = D2;
  D5.attributes = D3.attributes;
  D5.num_records = D3.num_records;
}

// ======================================================================
// T-rules merged away by P2V (they mention the SORT enforcer-operator).
// ======================================================================

trule join_to_jopr:
  JOIN(?1:D1, ?2:D2):D3 => JOPR(SORT(?1):D4, SORT(?2):D5):D6
posttest {
  D6 = D3;
  D4 = D1;
  D5 = D2;
}

trule sort_idemp:
  SORT(SORT(?1:D1):D2):D3 => SORT(?1):D4
posttest {
  D4 = D3;
}

trule sort_push_select:
  SELECT(SORT(?1:D1):D2):D3 => SORT(SELECT(?1):D4):D5
posttest {
  D4 = D3;
  D5 = D3;
  D5.tuple_order = D2.tuple_order;
}

trule sort_pull_select:
  SORT(SELECT(?1:D1):D2):D3 => SELECT(SORT(?1):D4):D5
posttest {
  D4 = D1;
  D4.tuple_order = D3.tuple_order;
  D5 = D3;
}

trule mat_sort_input:
  MAT(?1:D1):D2 => MAT(SORT(?1):D3):D4
posttest {
  D3 = D1;
  D4 = D2;
}

// ======================================================================
// I-rules.
// ======================================================================

irule ret_file_scan:
  RET(?1:D1):D2 => File_scan(?1):D3
preopt {
  D3 = D2;
  D3.tuple_order = DONT_CARE;
}
postopt {
  D3.cost = D1.num_records;
}

// Two I-rules share the Index_scan algorithm with different property
// transformations — the per-rule approach of §3.2.2. The probe form
// exploits an equality selection on an indexed attribute; the sweep form
// reads the whole class in index order.
irule ret_index_probe:
  RET(?1:D1):D2 => Index_scan(?1):D3
test (has_probe_index(D1.indexes, D2.selection_predicate))
preopt {
  D3 = D2;
  D3.tuple_order = probe_order(D1.indexes, D2.selection_predicate);
}
postopt {
  D3.cost = 8 + 2 * D3.num_records;
}

irule ret_index_sweep:
  RET(?1:D1):D2 => Index_scan(?1):D3
test (has_index(D1.indexes))
preopt {
  D3 = D2;
  D3.tuple_order = sweep_order(D1.indexes, D2.tuple_order);
}
postopt {
  D3.cost = 8 + D1.num_records;
}

irule select_filter:
  SELECT(?1:D1):D2 => Filter(?1:D3):D4
preopt {
  D4 = D2;
  D3 = D1;
  D3.tuple_order = D2.tuple_order;
}
postopt {
  D4.cost = D3.cost + D3.num_records;
  D4.tuple_order = D3.tuple_order;
}

irule project_project:
  PROJECT(?1:D1):D2 => Project(?1:D3):D4
preopt {
  D4 = D2;
  D3 = D1;
  D3.tuple_order = D2.tuple_order;
}
postopt {
  D4.cost = D3.cost + D3.num_records;
  D4.tuple_order = D3.tuple_order;
}

irule jopr_hash_join:
  JOPR(?1:D1, ?2:D2):D3 => Hash_join(?1, ?2):D4
test (conj_count(D3.join_predicate) >= 1)
preopt {
  D4 = D3;
  D4.tuple_order = DONT_CARE;
}
postopt {
  D4.cost = D1.cost + D2.cost + D1.num_records + 2 * D2.num_records;
}

irule mat_materialize:
  MAT(?1:D1):D2 => Materialize(?1:D3):D4
preopt {
  D4 = D2;
  D3 = D1;
  D3.tuple_order = D2.tuple_order;
}
postopt {
  D4.cost = D3.cost + 4 * D3.num_records;
  D4.tuple_order = D3.tuple_order;
}

irule mat_pointer_join:
  MAT(?1:D1):D2 => Pointer_join(?1):D3
preopt {
  D3 = D2;
  D3.tuple_order = DONT_CARE;
}
postopt {
  D3.cost = D1.cost + 2 * D1.num_records + mat_card(D2.mat_attribute);
}

irule unnest_flatten:
  UNNEST(?1:D1):D2 => Flatten(?1:D3):D4
preopt {
  D4 = D2;
  D3 = D1;
  D3.tuple_order = D2.tuple_order;
}
postopt {
  D4.cost = D3.cost + D4.num_records;
  D4.tuple_order = D3.tuple_order;
}

irule sort_merge_sort:
  SORT(?1:D1):D2 => Merge_sort(?1):D3
test (D2.tuple_order != DONT_CARE && order_within(D2.tuple_order, D2.attributes))
preopt {
  D3 = D2;
}
postopt {
  D3.cost = D1.cost + nlogn(D3.num_records);
}

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
