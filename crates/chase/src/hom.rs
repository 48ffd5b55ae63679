//! Homomorphisms between database instances.
//!
//! Two universal instances are interchangeable for certain-answer
//! purposes iff they are homomorphically equivalent (constants fixed,
//! labeled nulls free). This is the equivalence used to validate that a
//! composed mapping produces "the same" target as chasing through the
//! intermediate schema.

use mm_eval::cq::{find_homomorphisms, Binding};
use mm_expr::{Atom, Lit, Term};
use mm_guard::{ExecBudget, Governor};
use mm_instance::{Database, Value};
use mm_telemetry::Telemetry;

fn value_to_term(v: &Value) -> Term {
    match v {
        Value::Int(i) => Term::Const(Lit::Int(*i)),
        Value::Double(d) => Term::Const(Lit::Double(*d)),
        Value::Bool(b) => Term::Const(Lit::Bool(*b)),
        Value::Text(s) => Term::Const(Lit::Text(s.clone())),
        Value::Sym(s) => Term::Const(Lit::Text(s.as_str().to_string())),
        Value::Date(d) => Term::Const(Lit::Date(*d)),
        Value::Null => Term::Const(Lit::Null),
        // nulls become variables: free to map anywhere, consistently
        Value::Labeled(l) => Term::Var(format!("$N{l}")),
    }
}

/// Does a homomorphism `from → to` exist? Constants map to themselves,
/// labeled nulls may map to any value (consistently across tuples).
pub fn exists_hom(from: &Database, to: &Database) -> bool {
    let atoms: Vec<Atom> = from
        .relations()
        .flat_map(|(name, rel)| {
            rel.iter().map(move |t| Atom {
                relation: name.to_string(),
                terms: t.values().iter().map(value_to_term).collect(),
            })
        })
        .collect();
    if atoms.is_empty() {
        return true;
    }
    let mut gov = Governor::new(&ExecBudget::unbounded());
    // an unbounded governor with a private token cannot fail
    find_homomorphisms(&atoms, to, &Binding::new(), &mut gov, 1, &Telemetry::disabled())
        .is_ok_and(|homs| !homs.is_empty())
}

/// Homomorphic equivalence of two instances.
pub fn hom_equivalent(a: &Database, b: &Database) -> bool {
    exists_hom(a, b) && exists_hom(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_instance::{RelSchema, Relation, Tuple};
    use mm_metamodel::DataType;

    fn db(pairs: &[(i64, Value)]) -> Database {
        let mut d = Database::new("D");
        let mut r = Relation::new(RelSchema::of(&[("a", DataType::Int), ("b", DataType::Any)]));
        for (a, b) in pairs {
            r.insert(Tuple::from([Value::Int(*a), b.clone()]));
        }
        d.insert_relation("R", r);
        d
    }

    #[test]
    fn instance_with_null_maps_into_ground_superset() {
        let a = db(&[(1, Value::Labeled(0))]);
        let b = db(&[(1, Value::Int(5)), (2, Value::Int(6))]);
        assert!(exists_hom(&a, &b));
        assert!(!exists_hom(&b, &a)); // constant 5 has nowhere to go
    }

    #[test]
    fn equivalence_of_renamed_nulls() {
        let a = db(&[(1, Value::Labeled(0))]);
        let b = db(&[(1, Value::Labeled(42))]);
        assert!(hom_equivalent(&a, &b));
    }

    #[test]
    fn shared_null_must_map_consistently() {
        // a: R(1, N0), R(2, N0)  — same null both rows
        // b: R(1, 7), R(2, 8)    — would need N0 ↦ 7 and N0 ↦ 8
        let a = db(&[(1, Value::Labeled(0)), (2, Value::Labeled(0))]);
        let b = db(&[(1, Value::Int(7)), (2, Value::Int(8))]);
        assert!(!exists_hom(&a, &b));
        let c = db(&[(1, Value::Int(7)), (2, Value::Int(7))]);
        assert!(exists_hom(&a, &c));
    }

    #[test]
    fn empty_instance_maps_anywhere() {
        let a = Database::new("empty");
        let b = db(&[(1, Value::Int(1))]);
        assert!(exists_hom(&a, &b));
    }
}
