//! Property tests for the affine-expression algebra: the subscripts the
//! whole analysis stack trusts.

use ir::{AffAtom, Affine, LoopId, SymId};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

const NATOMS: usize = 4;

fn atom(k: usize) -> AffAtom {
    if k.is_multiple_of(2) {
        AffAtom::Loop(LoopId((k / 2) as u32))
    } else {
        AffAtom::Sym(SymId((k / 2) as u32))
    }
}

#[derive(Debug, Clone)]
struct RandAffine {
    coeffs: Vec<i16>,
    constant: i16,
}

impl RandAffine {
    fn build(&self) -> Affine {
        let mut e = Affine::constant(self.constant as i64);
        for (k, &c) in self.coeffs.iter().enumerate() {
            e.add_term(atom(k), c as i64);
        }
        e
    }
}

fn rand_affine() -> impl Strategy<Value = RandAffine> {
    (
        proptest::collection::vec(-20i16..=20, NATOMS),
        -100i16..=100,
    )
        .prop_map(|(coeffs, constant)| RandAffine { coeffs, constant })
}

fn rand_assign() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(-50i64..=50, NATOMS)
}

fn eval(e: &Affine, vals: &[i64]) -> i64 {
    e.eval(&|a| {
        let k = match a {
            AffAtom::Loop(l) => 2 * l.0 as usize,
            AffAtom::Sym(s) => 2 * s.0 as usize + 1,
        };
        vals[k]
    })
}

/// What an `Affine` stands for: a sorted map from atom to non-zero
/// coefficient, plus the constant.
type Model = (BTreeMap<AffAtom, i64>, i64);

fn model_of(r: &RandAffine) -> Model {
    let terms = (r.coeffs.iter().enumerate())
        .filter(|(_, &c)| c != 0)
        .map(|(k, &c)| (atom(k), c as i64))
        .collect();
    (terms, r.constant as i64)
}

fn model_set(m: &mut Model, a: AffAtom, c: i64) {
    if c == 0 {
        m.0.remove(&a);
    } else {
        m.0.insert(a, c);
    }
}

fn model_add(m: &mut Model, o: &Model) {
    m.1 += o.1;
    for (&a, &c) in &o.0 {
        let n = m.0.get(&a).copied().unwrap_or(0) + c;
        model_set(m, a, n);
    }
}

fn model_scaled(m: &Model, k: i64) -> Model {
    let terms = (m.0.iter()).filter(|_| k != 0).map(|(&a, &c)| (a, c * k));
    (terms.collect(), m.1 * k)
}

/// One step of an `Affine`'s life: `(kind, atom, coefficient, operand)`.
type Op = (u8, usize, i64, RandAffine);

fn rand_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..6, 0..NATOMS, -3i64..=3, rand_affine()), 0..10)
}

/// Apply `ops` to an expression and to its model side by side.
fn replay(start: &RandAffine, ops: &[Op]) -> (Affine, Model) {
    let (mut e, mut m) = (start.build(), model_of(start));
    for (kind, k, c, operand) in ops {
        let (a, c) = (atom(*k), *c);
        let (oe, om) = (operand.build(), model_of(operand));
        match kind {
            0 => {
                e.add_term(a, c);
                let n = m.0.get(&a).copied().unwrap_or(0) + c;
                model_set(&mut m, a, n);
            }
            1 => {
                e.set_coeff(a, c);
                model_set(&mut m, a, c);
            }
            2 => {
                e = e.scaled(c);
                m = model_scaled(&m, c);
            }
            3 => {
                let l = LoopId((*k / 2) as u32);
                e = e.substituted(l, &oe);
                if let Some(lc) = m.0.remove(&AffAtom::Loop(l)) {
                    model_add(&mut m, &model_scaled(&om, lc));
                }
            }
            4 => {
                e = e + oe;
                model_add(&mut m, &om);
            }
            _ => {
                e = e - oe;
                model_add(&mut m, &model_scaled(&om, -1));
            }
        }
    }
    (e, m)
}

fn hash_of(v: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// The `Debug` text of the model, by the rule `Affine`'s is written to.
fn model_debug((terms, constant): &Model) -> String {
    let mut parts: Vec<String> = terms.iter().map(|(a, c)| format!("{c}*{a:?}")).collect();
    if parts.is_empty() || *constant != 0 {
        parts.push(constant.to_string());
    }
    parts.join("+")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Whatever builds it, an expression holds its terms strictly
    /// ascending with no zero coefficient, and compares, orders, hashes
    /// and prints as the sorted map it stands for.
    #[test]
    fn the_term_vector_behaves_like_a_sorted_map(
        a in rand_affine(), a_ops in rand_ops(), b in rand_affine(), b_ops in rand_ops()
    ) {
        let (ea, ma) = replay(&a, &a_ops);
        let (eb, mb) = replay(&b, &b_ops);
        for (e, m) in [(&ea, &ma), (&eb, &mb)] {
            let terms: Vec<(AffAtom, i64)> = e.terms().collect();
            prop_assert!(terms.windows(2).all(|w| w[0].0 < w[1].0), "{:?}", terms);
            prop_assert!(terms.iter().all(|&(_, c)| c != 0), "{:?}", terms);
            prop_assert_eq!(terms, m.0.iter().map(|(&a, &c)| (a, c)).collect::<Vec<_>>());
            prop_assert_eq!(e.constant_term(), m.1);
            prop_assert_eq!(hash_of(e), hash_of(m));
            prop_assert_eq!(format!("{e:?}"), model_debug(m));
            // The same terms inserted in the opposite order.
            let mut rebuilt = Affine::constant(m.1);
            for (&a, &c) in m.0.iter().rev() {
                rebuilt.set_coeff(a, c);
            }
            prop_assert_eq!(&rebuilt, e);
            prop_assert_eq!(hash_of(&rebuilt), hash_of(e));
            prop_assert_eq!(rebuilt.cmp(e), std::cmp::Ordering::Equal);
        }
        prop_assert_eq!(ea == eb, ma == mb);
        prop_assert_eq!(ea.cmp(&eb), ma.cmp(&mb));
        prop_assert_eq!(ea.partial_cmp(&eb), ma.partial_cmp(&mb));
    }

    /// Addition is evaluated pointwise.
    #[test]
    fn addition_is_pointwise(a in rand_affine(), b in rand_affine(), vals in rand_assign()) {
        let (ea, eb) = (a.build(), b.build());
        let sum = ea.clone() + eb.clone();
        prop_assert_eq!(eval(&sum, &vals), eval(&ea, &vals) + eval(&eb, &vals));
    }

    /// Subtraction and scaling are evaluated pointwise.
    #[test]
    fn sub_and_scale_are_pointwise(a in rand_affine(), b in rand_affine(), k in -9i64..=9, vals in rand_assign()) {
        let (ea, eb) = (a.build(), b.build());
        prop_assert_eq!(eval(&(ea.clone() - eb.clone()), &vals), eval(&ea, &vals) - eval(&eb, &vals));
        prop_assert_eq!(eval(&ea.scaled(k), &vals), k * eval(&ea, &vals));
    }

    /// `a - a` is structurally zero (zero coefficients never linger).
    #[test]
    fn self_subtraction_is_structurally_zero(a in rand_affine()) {
        let ea = a.build();
        let z = ea.clone() - ea;
        prop_assert!(z.is_constant());
        prop_assert_eq!(z.constant_term(), 0);
    }

    /// Substitution agrees with evaluation: e[l := r] at v equals e at
    /// the assignment where l takes r's value.
    #[test]
    fn substitution_agrees_with_evaluation(a in rand_affine(), r in rand_affine(), vals in rand_assign()) {
        let ea = a.build();
        let target = LoopId(0);
        // r must not mention the substituted loop.
        let mut er = r.build();
        er.set_coeff(AffAtom::Loop(target), 0);
        let substituted = ea.substituted(target, &er);
        let rv = eval(&er, &vals);
        let mut vals2 = vals.clone();
        vals2[0] = rv; // slot of Loop(0)
        prop_assert_eq!(eval(&substituted, &vals), eval(&ea, &vals2));
    }

    /// Structural equality is extensional on this atom set: equal
    /// structure ⇒ equal values, and differing structure differs
    /// somewhere on the sampled grid (coefficient extraction is exact).
    #[test]
    fn coefficients_roundtrip(a in rand_affine()) {
        let ea = a.build();
        for (k, &c) in a.coeffs.iter().enumerate() {
            prop_assert_eq!(ea.coeff(atom(k)), c as i64);
        }
        prop_assert_eq!(ea.constant_term(), a.constant as i64);
    }
}
