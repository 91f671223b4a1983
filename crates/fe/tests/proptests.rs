//! Property-based tests: FEIP and FEBO decryption must equal the
//! plaintext function on random inputs, and must be randomized; the
//! batched ciphertext combination must equal the per-element fold.

use cryptonn_fe::{febo, feip, BasicOp, KeyAuthority, PermittedFunctions};
use cryptonn_group::{DlogTable, Element, SchnorrGroup, SecurityLevel, LANES};
use cryptonn_parallel::Parallelism;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

fn group() -> &'static SchnorrGroup {
    static GROUP: OnceLock<SchnorrGroup> = OnceLock::new();
    GROUP.get_or_init(|| SchnorrGroup::precomputed(SecurityLevel::Bits64))
}

fn table() -> &'static DlogTable {
    static TABLE: OnceLock<DlogTable> = OnceLock::new();
    // Bound covers |<x,y>| for 8-dim vectors of |v| <= 300, and all FEBO
    // results for |x|,|y| <= 1000.
    TABLE.get_or_init(|| DlogTable::new(group(), 1_100_000))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn feip_decrypts_inner_product(
        x in proptest::collection::vec(-300i64..=300, 1..8),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = x.len();
        let y: Vec<i64> = (0..dim).map(|i| ((seed >> (i % 48)) as i64 % 300) - 150).collect();
        let (mpk, msk) = feip::setup(group().clone(), dim, &mut rng);
        let ct = feip::encrypt(&mpk, &x, &mut rng).unwrap();
        let sk = feip::key_derive(group(), &msk, &y).unwrap();
        let expected: i64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        prop_assert_eq!(feip::decrypt(&mpk, &ct, &sk, &y, table()).unwrap(), expected);
    }

    #[test]
    fn febo_add_sub_mul_decrypt(
        x in -1000i64..=1000,
        y in -1000i64..=1000,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mpk, msk) = febo::setup(group().clone(), &mut rng);
        for op in [BasicOp::Add, BasicOp::Sub, BasicOp::Mul] {
            let ct = febo::encrypt(&mpk, x, &mut rng);
            let sk = febo::key_derive(group(), &msk, ct.commitment(), op, y).unwrap();
            prop_assert_eq!(
                febo::decrypt(&mpk, &sk, &ct, op, y, table()).unwrap(),
                op.apply(x, y)
            );
        }
    }

    #[test]
    fn febo_exact_division(
        quotient in -1000i64..=1000,
        y in prop_oneof![1i64..=30, -30i64..=-1],
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mpk, msk) = febo::setup(group().clone(), &mut rng);
        let x = quotient * y;
        let ct = febo::encrypt(&mpk, x, &mut rng);
        let sk = febo::key_derive(group(), &msk, ct.commitment(), BasicOp::Div, y).unwrap();
        prop_assert_eq!(
            febo::decrypt(&mpk, &sk, &ct, BasicOp::Div, y, table()).unwrap(),
            quotient
        );
    }

    #[test]
    fn authority_roundtrip_matches_direct_scheme(
        x in proptest::collection::vec(-100i64..=100, 3),
        y in proptest::collection::vec(-100i64..=100, 3),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let auth = KeyAuthority::with_seed(group().clone(), PermittedFunctions::all(), seed);
        let mpk = auth.feip_public_key(3);
        let ct = feip::encrypt(&mpk, &x, &mut rng).unwrap();
        let sk = auth.derive_ip_key(3, &y).unwrap();
        let expected: i64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        prop_assert_eq!(feip::decrypt(&mpk, &ct, &sk, &y, table()).unwrap(), expected);
    }
}

/// Every embedded security level — the multi-scalar ≡ naive equivalence
/// must hold at each one (different moduli exercise different carry and
/// reduction paths).
const ALL_LEVELS: [SecurityLevel; 6] = [
    SecurityLevel::Bits32,
    SecurityLevel::Bits64,
    SecurityLevel::Bits128,
    SecurityLevel::Bits192,
    SecurityLevel::Bits224,
    SecurityLevel::Bits256,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The Straus/wNAF FEIP decrypt path is bit-identical to the naive
    /// one-pow-per-term reference for random signed weight rows —
    /// including all-zero and all-negative rows — at every level.
    #[test]
    fn feip_multi_scalar_equals_naive_at_all_levels(
        x in proptest::collection::vec(-200i64..=200, 4),
        y in prop_oneof![
            proptest::collection::vec(-200i64..=200, 4),
            proptest::collection::vec(Just(0i64), 4),
            proptest::collection::vec(-200i64..=-1, 4),
        ],
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for level in ALL_LEVELS {
            let g = SchnorrGroup::precomputed(level);
            let (mpk, msk) = feip::setup(g.clone(), 4, &mut rng);
            let ct = feip::encrypt(&mpk, &x, &mut rng).unwrap();
            let sk = feip::key_derive(&g, &msk, &y).unwrap();
            prop_assert_eq!(
                feip::decrypt_raw(&mpk, &ct, &sk, &y).unwrap(),
                feip::decrypt_raw_naive(&mpk, &ct, &sk, &y).unwrap(),
                "level {:?}", level
            );
        }
    }

    /// Same equivalence for the FEBO fast path, across all four ops.
    #[test]
    fn febo_multi_scalar_equals_naive_at_all_levels(
        x in -500i64..=500,
        y in prop_oneof![-500i64..=-1, 1i64..=500, Just(0i64)],
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for level in ALL_LEVELS {
            let g = SchnorrGroup::precomputed(level);
            let (mpk, msk) = febo::setup(g.clone(), &mut rng);
            for op in BasicOp::ALL {
                if op == BasicOp::Div && y == 0 {
                    continue;
                }
                let ct = febo::encrypt(&mpk, x, &mut rng);
                let sk = febo::key_derive(&g, &msk, ct.commitment(), op, y).unwrap();
                prop_assert_eq!(
                    febo::decrypt_raw(&mpk, &sk, &ct, op, y).unwrap(),
                    febo::decrypt_raw_naive(&mpk, &sk, &ct, op, y).unwrap(),
                    "level {:?} op {}", level, op
                );
            }
        }
    }
}

/// The per-element reference combination: one full-width
/// `group.pow(·, w mod q)` per (sample, coordinate), folded by
/// multiplication. Kept only here, as the oracle for `combine_many`.
fn reference_combine(
    g: &SchnorrGroup,
    cts: &[&feip::FeipCiphertext],
    weights: &[i64],
) -> (Element, Vec<Element>) {
    let mut ct0 = g.identity();
    let mut coords = vec![g.identity(); cts[0].dimension()];
    for (ct, &w) in cts.iter().zip(weights) {
        if w == 0 {
            continue;
        }
        let e = g.scalar_from_i64(w);
        ct0 = g.mul(&ct0, &g.pow(ct.ct0(), &e));
        for (acc, cti) in coords.iter_mut().zip(ct.coordinates()) {
            *acc = g.mul(acc, &g.pow(cti, &e));
        }
    }
    (ct0, coords)
}

/// Encrypts `m` random `dim`-vectors at `level` and checks
/// `combine_many` (serial and threaded) and `combine` against the
/// reference fold, component by component.
fn assert_combine_matches_reference(
    level: SecurityLevel,
    dim: usize,
    m: usize,
    rows: &[Vec<i64>],
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = SchnorrGroup::precomputed(level);
    let (mpk, _msk) = feip::setup(g.clone(), dim, &mut rng);
    let cts: Vec<feip::FeipCiphertext> = (0..m)
        .map(|s| {
            let x: Vec<i64> = (0..dim).map(|j| (s * 7 + j * 3) as i64 % 11 - 5).collect();
            feip::encrypt(&mpk, &x, &mut rng).unwrap()
        })
        .collect();
    let refs: Vec<&feip::FeipCiphertext> = cts.iter().collect();
    let row_refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
    let expected: Vec<(Element, Vec<Element>)> = rows
        .iter()
        .map(|w| reference_combine(&g, &refs, w))
        .collect();
    for par in [Parallelism::Serial, Parallelism::Threads(3)] {
        let got = feip::combine_many(&mpk, &refs, &row_refs, par).unwrap();
        assert_eq!(got.len(), rows.len());
        for (r, (ct, (ct0, coords))) in got.iter().zip(&expected).enumerate() {
            assert_eq!(
                ct.ct0(),
                ct0,
                "{level:?} dim {dim} m {m} row {r} ct0 under {par:?}"
            );
            assert_eq!(
                ct.coordinates(),
                &coords[..],
                "{level:?} dim {dim} m {m} row {r} under {par:?}"
            );
        }
    }
    for (w, (ct0, coords)) in rows.iter().zip(&expected) {
        let one = feip::combine(&mpk, &refs, w).unwrap();
        assert_eq!((one.ct0(), one.coordinates()), (ct0, &coords[..]));
    }
}

/// Weight shapes the gradient path produces and the recoding must get
/// right: zero, ±1, the ±10 000 quantization scale, and up to ±2³¹.
fn weight() -> impl Strategy<Value = i64> {
    prop_oneof![
        Just(0i64),
        Just(1),
        Just(-1),
        Just(10_000),
        Just(-10_000),
        Just(1 << 31),
        Just(-(1 << 31)),
        -10_000i64..=10_000,
        -(1i64 << 31)..=(1 << 31),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `combine_many` equals the per-element reference fold for random
    /// batch shapes: 1..=9 coordinates (so `dim + 1` columns both fill
    /// and miss the lane stride), 1..=5 ciphertexts, 1..=4 rows that may
    /// be all zero, at Bits64 and Bits256Fast, serial and threaded.
    #[test]
    fn combine_many_equals_reference_fold(
        dim in 1usize..=9,
        m in 1usize..=5,
        rows in proptest::collection::vec(
            prop_oneof![
                proptest::collection::vec(weight(), 5),
                proptest::collection::vec(Just(0i64), 5),
            ],
            1..=4,
        ),
        seed in any::<u64>(),
    ) {
        let rows: Vec<Vec<i64>> = rows.into_iter().map(|w| w[..m].to_vec()).collect();
        for level in [SecurityLevel::Bits64, SecurityLevel::Bits256Fast] {
            assert_combine_matches_reference(level, dim, m, &rows, seed);
        }
    }
}

/// The edge shapes pinned explicitly: a single ciphertext, all-zero
/// rows, and column counts on and off a multiple of `LANES`.
#[test]
fn combine_many_edge_shapes_equal_reference_fold() {
    let rows_for = |m: usize| -> Vec<Vec<i64>> {
        vec![
            (0..m)
                .map(|s| [1, -1, 10_000, -10_000, 1 << 31][s % 5])
                .collect(),
            vec![0; m],
            (0..m).map(|s| -(1i64 << 31) + s as i64).collect(),
        ]
    };
    for level in [SecurityLevel::Bits64, SecurityLevel::Bits256Fast] {
        // `dim + 1` columns: a short remainder, exact strides, and full
        // strides plus a remainder.
        for dim in [1, LANES - 1, LANES, 2 * LANES - 1, 2 * LANES] {
            for m in [1, 5] {
                assert_combine_matches_reference(
                    level,
                    dim,
                    m,
                    &rows_for(m),
                    dim as u64 * 31 + m as u64,
                );
            }
        }
    }
}
