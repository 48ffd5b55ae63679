//! Conjunctive-query evaluation via homomorphism search.
//!
//! A conjunctive query is a list of atoms over variables and constants.
//! Evaluating it means finding every *binding* (homomorphism) of the
//! variables into the database that makes all atoms hold — the primitive
//! the chase (`mm-chase`), tgd satisfaction checking, and certain-answer
//! evaluation are built on.

use crate::plan::{lit_to_value, CqPlan, ExecOptions, VarTable};
use mm_expr::{Atom, Term};
use mm_guard::{ExecError, Governor};
use mm_instance::{Database, Tuple, Value};
use mm_telemetry::{Counter, Span, Telemetry};
use std::collections::HashMap;

/// A variable binding: variable name → value.
pub type Binding = HashMap<String, Value>;

/// Try to extend `binding` so that `atom` maps onto `tuple`.
/// Returns `None` on conflict. Function terms never match (they only occur
/// in SO-tgd heads, which are not chased directly).
fn match_atom(atom: &Atom, tuple: &Tuple, binding: &Binding) -> Option<Binding> {
    if atom.terms.len() != tuple.arity() {
        return None;
    }
    let mut b = binding.clone();
    for (term, value) in atom.terms.iter().zip(tuple.values()) {
        match term {
            Term::Var(v) => match b.get(v) {
                Some(bound) if bound != value => return None,
                Some(_) => {}
                None => {
                    b.insert(v.clone(), value.clone());
                }
            },
            Term::Const(l) => {
                if &lit_to_value(l) != value {
                    return None;
                }
            }
            Term::Func(..) => return None,
        }
    }
    Some(b)
}

/// Order atoms so that atoms sharing variables with already-placed atoms
/// come early (greedy bound-variable heuristic) — the join-ordering step
/// of the naive CQ evaluator, and the heuristic [`CqPlan`] replicates so
/// both paths enumerate identically. Deterministic for reproducibility.
fn order_atoms<'a>(atoms: &'a [Atom], db: &Database) -> Vec<&'a Atom> {
    let mut remaining: Vec<(usize, &Atom)> = atoms.iter().enumerate().collect();
    let mut ordered: Vec<&Atom> = Vec::with_capacity(atoms.len());
    let mut bound: std::collections::HashSet<&str> = std::collections::HashSet::new();
    // pick the atom with the most bound variables; tie-break on the
    // smallest relation, then on the *original* atom index — the same
    // key [`CqPlan::compile`] uses, so the naive oracle and the compiled
    // plan provably pick identical orders (tie-breaking on the position
    // inside the shrinking `remaining` list happened to agree, but only
    // because removals preserve relative order; keying on the original
    // index makes the equivalence unconditional). The loop ends when
    // `remaining` is drained and `min_by_key` has nothing to yield.
    while let Some((idx, _)) = remaining
        .iter()
        .enumerate()
        .map(|(i, (ai, a))| {
            let bound_vars = a.variables().iter().filter(|v| bound.contains(**v)).count();
            let size = db.relation(&a.relation).map(|r| r.len()).unwrap_or(0);
            (i, (std::cmp::Reverse(bound_vars), size, *ai))
        })
        .min_by_key(|(_, k)| *k)
    {
        let (_, atom) = remaining.remove(idx);
        for v in atom.variables() {
            bound.insert(v);
        }
        ordered.push(atom);
    }
    ordered
}

/// Find all homomorphisms from the conjunction `atoms` into `db` that
/// extend `seed`. Variables pre-bound in `seed` are fixed (the chase
/// seeds a tgd head with its body binding: labeled nulls must match
/// themselves, not re-map), and every seed entry is carried into every
/// result. Atoms over relations missing from the database yield no
/// bindings — an empty relation, not an error.
///
/// The conjunction compiles into a greedy [`CqPlan`] (slot bindings,
/// index probes) whose results — including their order — are identical
/// to [`find_homomorphisms_naive`], the differential-testing oracle:
///
/// * every join probe is metered as one step of `gov`, so an exponential
///   join trips `BudgetExhausted` (or observes cancellation) instead of
///   running unbounded; the governor is borrowed so a pipeline can
///   accumulate work against one budget;
/// * `threads > 1` splits the first plan atom's tuple range across
///   workers ([`CqPlan::execute_parallel`]), with the same results and
///   step count; a small first relation runs sequentially;
/// * enabled telemetry wraps the search in an `eval.homomorphisms` span
///   and feeds the found/pruned counters (probes that bound a full match
///   vs. probes the join rejected); disabled telemetry costs one branch.
///
/// Callers that evaluate the same conjunction repeatedly should compile
/// a [`CqPlan`] once instead.
pub fn find_homomorphisms(
    atoms: &[Atom],
    db: &Database,
    seed: &Binding,
    gov: &mut Governor,
    threads: usize,
    tel: &Telemetry,
) -> Result<Vec<Binding>, ExecError> {
    if !tel.is_enabled() {
        return search(atoms, db, seed, gov, threads);
    }
    let mut span = Span::enter(tel, "eval.homomorphisms", "");
    let steps_before = gov.steps_consumed();
    let result = search(atoms, db, seed, gov, threads);
    let probes = gov.steps_consumed() - steps_before;
    span.field("atoms", atoms.len() as u64);
    match &result {
        Ok(out) => {
            let found = out.len() as u64;
            let pruned = probes.saturating_sub(found);
            if let Some(m) = tel.metrics() {
                m.add(Counter::HomFound, found);
                m.add(Counter::HomPruned, pruned);
            }
            span.field("found", found);
            span.field("pruned", pruned);
        }
        Err(e) => span.field("error", e.to_string()),
    }
    span.finish();
    result
}

/// The planned search behind [`find_homomorphisms`], untraced.
fn search(
    atoms: &[Atom],
    db: &Database,
    seed: &Binding,
    gov: &mut Governor,
    threads: usize,
) -> Result<Vec<Binding>, ExecError> {
    gov.check_now()?;
    let mut table = VarTable::new();
    // intern seed vars first so they get slots (and flow into the output
    // bindings) even when they never occur in the atoms — the naive path
    // carries every seed entry through to every result
    let seed_slots: Vec<(usize, Value)> =
        seed.iter().map(|(k, v)| (table.intern(k), v.clone())).collect();
    let prebound: Vec<usize> = seed_slots.iter().map(|(s, _)| *s).collect();
    let plan = CqPlan::compile(atoms, &mut table, db, &prebound);
    let mut scratch = vec![None; table.len()];
    for (s, v) in seed_slots {
        scratch[s] = Some(v);
    }
    let mut matches = Vec::new();
    let opts = ExecOptions::default();
    plan.execute_parallel(db, &mut scratch, &opts, threads, gov, &mut matches)?;
    Ok(matches
        .into_iter()
        .map(|m| {
            m.binding
                .into_iter()
                .enumerate()
                .filter_map(|(s, v)| Some((table.name(s)?.to_string(), v?)))
                .collect()
        })
        .collect())
}

/// The naive nested-loop evaluator: scans every relation per atom and
/// clones a string-keyed binding per probe. Kept as the reference oracle
/// the compiled-plan path is property-tested against (and as the scan
/// baseline in the eval bench); new code should call
/// [`find_homomorphisms`].
pub fn find_homomorphisms_naive(
    atoms: &[Atom],
    db: &Database,
    seed: &Binding,
    gov: &mut Governor,
) -> Result<Vec<Binding>, ExecError> {
    gov.check_now()?;
    if atoms.is_empty() {
        return Ok(vec![seed.clone()]);
    }
    let ordered = order_atoms(atoms, db);
    let mut bindings = vec![seed.clone()];
    for atom in ordered {
        let Some(rel) = db.relation(&atom.relation) else {
            return Ok(Vec::new());
        };
        let mut next = Vec::new();
        for b in &bindings {
            for t in rel.iter() {
                gov.step()?;
                if let Some(b2) = match_atom(atom, t, b) {
                    next.push(b2);
                }
            }
        }
        if next.is_empty() {
            return Ok(Vec::new());
        }
        bindings = next;
    }
    Ok(bindings)
}

/// Instantiate a (function-free, fully bound) atom under a binding,
/// producing a tuple. Existential variables absent from the binding are
/// filled by `fresh`, which must return a new labeled null per call per
/// variable (the caller memoizes per-variable if needed).
///
/// Function terms are not first-order instantiable (they only occur in
/// SO-tgd heads, which go through `apply_sotgd`) and yield a typed
/// [`ExecError::Unsupported`] instead of a panic.
pub fn instantiate_atom(
    atom: &Atom,
    binding: &Binding,
    fresh: &mut dyn FnMut(&str) -> Value,
) -> Result<Tuple, ExecError> {
    let mut values = Vec::with_capacity(atom.terms.len());
    for t in &atom.terms {
        values.push(match t {
            Term::Var(v) => match binding.get(v) {
                Some(val) => val.clone(),
                None => fresh(v),
            },
            Term::Const(l) => lit_to_value(l),
            Term::Func(name, _) => {
                return Err(ExecError::unsupported(format!(
                    "function term '{name}' in first-order instantiation of atom '{}'",
                    atom.relation
                )))
            }
        });
    }
    Ok(Tuple::new(values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_expr::Lit;
    use mm_instance::RelSchema;
    use mm_guard::ExecBudget;
    use mm_metamodel::DataType;

    fn homs(atoms: &[Atom], db: &Database) -> Vec<Binding> {
        let mut gov = Governor::new(&ExecBudget::unbounded());
        find_homomorphisms(atoms, db, &Binding::new(), &mut gov, 1, &Telemetry::disabled()).unwrap()
    }

    fn db() -> Database {
        let mut db = Database::new("D");
        let mut r = mm_instance::Relation::new(RelSchema::of(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
        ]));
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            r.insert(Tuple::from([Value::Int(a), Value::Int(b)]));
        }
        db.insert_relation("E", r);
        db
    }

    #[test]
    fn single_atom_binds_all_tuples() {
        let hs = homs(&[Atom::vars("E", &["x", "y"])], &db());
        assert_eq!(hs.len(), 3);
    }

    #[test]
    fn join_via_shared_variable() {
        // E(x,y) & E(y,z): paths of length 2
        let hs = homs(
            &[Atom::vars("E", &["x", "y"]), Atom::vars("E", &["y", "z"])],
            &db(),
        );
        assert_eq!(hs.len(), 2); // 1-2-3 and 2-3-4
        for h in &hs {
            let x = &h["x"];
            let z = &h["z"];
            assert_ne!(x, z);
        }
    }

    #[test]
    fn repeated_variable_forces_equality() {
        // E(x,x): no loops in this graph
        let hs = homs(&[Atom::vars("E", &["x", "x"])], &db());
        assert!(hs.is_empty());
    }

    #[test]
    fn constants_filter() {
        let atom = Atom::new(
            "E",
            vec![Term::Const(Lit::Int(2)), Term::var("y")],
        );
        let hs = homs(&[atom], &db());
        assert_eq!(hs.len(), 1);
        assert_eq!(hs[0]["y"], Value::Int(3));
    }

    #[test]
    fn missing_relation_yields_no_bindings() {
        let hs = homs(&[Atom::vars("Nope", &["x"])], &db());
        assert!(hs.is_empty());
    }

    #[test]
    fn empty_query_has_one_empty_binding() {
        let hs = homs(&[], &db());
        assert_eq!(hs.len(), 1);
        assert!(hs[0].is_empty());
    }

    #[test]
    fn arity_mismatch_never_matches() {
        let hs = homs(&[Atom::vars("E", &["x"])], &db());
        assert!(hs.is_empty());
    }

    #[test]
    fn instantiate_with_fresh_nulls_memoized_by_caller() {
        let atom = Atom::vars("T", &["x", "n", "n"]);
        let mut binding = Binding::new();
        binding.insert("x".into(), Value::Int(1));
        let mut memo: HashMap<String, Value> = HashMap::new();
        let mut counter = 0u64;
        let t = instantiate_atom(&atom, &binding, &mut |v| {
            memo.entry(v.to_string())
                .or_insert_with(|| {
                    let val = Value::Labeled(counter);
                    counter += 1;
                    val
                })
                .clone()
        })
        .unwrap();
        assert_eq!(t.values()[0], Value::Int(1));
        assert_eq!(t.values()[1], t.values()[2]); // same existential var, same null
        assert!(t.values()[1].is_labeled());
    }

    #[test]
    fn compiled_path_agrees_with_naive_oracle_including_order() {
        let db = db();
        let cases: Vec<Vec<Atom>> = vec![
            vec![Atom::vars("E", &["x", "y"]), Atom::vars("E", &["y", "z"])],
            vec![Atom::vars("E", &["x", "x"])],
            vec![
                Atom::new("E", vec![Term::Const(Lit::Int(2)), Term::var("y")]),
                Atom::vars("E", &["y", "z"]),
            ],
            vec![],
        ];
        for atoms in cases {
            let mut g1 = Governor::new(&ExecBudget::unbounded());
            let mut g2 = Governor::new(&ExecBudget::unbounded());
            let seed = Binding::from([("w".to_string(), Value::Int(7))]);
            let fast =
                find_homomorphisms(&atoms, &db, &seed, &mut g1, 1, &Telemetry::disabled()).unwrap();
            let slow = find_homomorphisms_naive(&atoms, &db, &seed, &mut g2).unwrap();
            assert_eq!(fast, slow, "atoms: {atoms:?}");
        }
    }

    #[test]
    fn labeled_nulls_participate_in_joins_by_label() {
        let mut db = Database::new("D");
        let mut r = mm_instance::Relation::new(RelSchema::of(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
        ]));
        r.insert(Tuple::from([Value::Int(1), Value::Labeled(7)]));
        r.insert(Tuple::from([Value::Labeled(7), Value::Int(9)]));
        db.insert_relation("E", r);
        let hs = homs(
            &[Atom::vars("E", &["x", "y"]), Atom::vars("E", &["y", "z"])],
            &db,
        );
        assert_eq!(hs.len(), 1);
        assert_eq!(hs[0]["y"], Value::Labeled(7));
    }
}
