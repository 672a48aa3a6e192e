//! Property-based tests for the HD-computing and LBP invariants.

use laelaps_core::hv::{
    limbs_for, spatial_majority_at, BitSliceAccumulator, DenseAccumulator, HalfWindows,
    Hypervector, ItemMemory, TiePolicy, Tier, LIMB_BITS,
};
use laelaps_core::lbp::{lbp_codes, lbp_histogram, LbpExtractor};
use proptest::prelude::*;

fn arb_hypervector(dim: usize) -> impl Strategy<Value = Hypervector> {
    proptest::collection::vec(any::<bool>(), dim).prop_map(Hypervector::from_bits)
}

fn arb_dim() -> impl Strategy<Value = usize> {
    // Mix limb-aligned and ragged dimensions.
    prop_oneof![Just(64usize), Just(100), Just(128), Just(129), Just(500)]
}

/// Dimensions that stress the padding/masking branches: everything that
/// is *not* a multiple of the limb size, plus the aligned cases
/// as controls.
fn arb_ragged_dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        (1usize..=200).boxed(),  // dense small coverage, mostly ragged
        Just(1000usize).boxed(), // paper's d (not a multiple of 64)
        (1usize..=20).prop_map(|k| 64 * k + 1).boxed(), // just past a limb edge
        (1usize..=20).prop_map(|k| 64 * k - 1).boxed(), // just short of one
        (1usize..=40).prop_map(|k| 32 * k).boxed(), // word-aligned, half limb-ragged
    ]
}

/// Dimensions around the kernel's register edges (1, 4 and 8 limbs) and
/// the paper's two.
fn arb_kernel_dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(63),
        Just(64),
        Just(65),
        Just(255),
        Just(257),
        Just(1000),
        Just(10_000)
    ]
}

/// Electrode counts 1–128, plus one above 255 (nine counter planes).
fn arb_electrodes() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..=128, 1usize..=128, 1usize..=128, Just(300usize)]
}

/// Whether every bit above `v.dim()` in the last limb is clear.
fn padding_is_zero(v: &Hypervector) -> bool {
    let rem = v.dim() % LIMB_BITS;
    rem == 0 || v.limbs()[v.limbs().len() - 1] >> rem == 0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fused_kernel_matches_dense_at_every_tier(
        dim in arb_kernel_dim(),
        electrodes in arb_electrodes(),
        lbp_len in 1usize..=8,
        seed in any::<u64>()
    ) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let symbols = ItemMemory::new(1 << lbp_len, dim, seed);
        let rows = ItemMemory::new(electrodes, dim, seed ^ 1);
        let tie = Hypervector::random(dim, &mut rng);
        let codes: Vec<u8> = (0..electrodes)
            .map(|_| rand::Rng::gen_range(&mut rng, 0..1usize << lbp_len) as u8)
            .collect();
        let mut dense = DenseAccumulator::new(dim);
        for (j, &c) in codes.iter().enumerate() {
            dense.add_xor(rows.get(j), symbols.get(c as usize));
        }
        let n = electrodes as u32;
        let strict = dense.threshold(n / 2 + 1);
        for policy in [TiePolicy::ZeroOnTie, TiePolicy::TieBreakVector] {
            let want = dense.majority_with(policy, &tie);
            // The same rule spelled with thresholds: ties exist only for
            // even n, and only the tie-break vector fills them.
            if policy == TiePolicy::TieBreakVector && n.is_multiple_of(2) {
                let ties = dense.threshold(n / 2).xor(&strict);
                for i in 0..dim {
                    prop_assert_eq!(want.get(i), strict.get(i) || (ties.get(i) && tie.get(i)));
                }
            } else {
                prop_assert_eq!(&want, &strict);
            }
            for tier in Tier::available() {
                let got = spatial_majority_at(tier, &rows, &symbols, &codes, policy, &tie);
                prop_assert!(padding_is_zero(&got), "{:?}: padding bits set", tier);
                prop_assert_eq!(&got, &want, "{:?} n={} d={} {:?}", tier, n, dim, policy);
            }
        }
    }

    #[test]
    fn xor_involution(dim in arb_dim(), seed in any::<u64>()) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let a = Hypervector::random(dim, &mut rng);
        let b = Hypervector::random(dim, &mut rng);
        prop_assert_eq!(a.xor(&b).xor(&b), a);
    }

    #[test]
    fn hamming_is_a_metric(
        (a, b, c) in arb_dim().prop_flat_map(|d| {
            (arb_hypervector(d), arb_hypervector(d), arb_hypervector(d))
        })
    ) {
        // Identity, symmetry, triangle inequality.
        prop_assert_eq!(a.hamming(&a), 0);
        prop_assert_eq!(a.hamming(&b), b.hamming(&a));
        prop_assert!(a.hamming(&c) <= a.hamming(&b) + b.hamming(&c));
    }

    #[test]
    fn hamming_invariant_under_xor(
        (a, b, m) in arb_dim().prop_flat_map(|d| {
            (arb_hypervector(d), arb_hypervector(d), arb_hypervector(d))
        })
    ) {
        // Binding by a common vector preserves distances (isometry).
        prop_assert_eq!(a.xor(&m).hamming(&b.xor(&m)), a.hamming(&b));
    }

    #[test]
    fn bitslice_equals_dense(
        (dim, vectors) in arb_dim().prop_flat_map(|d| {
            (Just(d), proptest::collection::vec(arb_hypervector(d), 1..40))
        }),
        thresholds in proptest::collection::vec(0u32..45, 4)
    ) {
        let mut dense = DenseAccumulator::new(dim);
        let mut slice = BitSliceAccumulator::new(dim);
        for v in &vectors {
            dense.add(v);
            slice.add(v);
        }
        prop_assert_eq!(slice.to_counts(), dense.counts().to_vec());
        prop_assert_eq!(slice.majority(), dense.majority());
        for t in thresholds {
            prop_assert_eq!(slice.threshold(t), dense.threshold(t));
        }
    }

    #[test]
    fn majority_bounded_by_inputs(
        (dim, vectors) in arb_dim().prop_flat_map(|d| {
            (Just(d), proptest::collection::vec(arb_hypervector(d), 1..12))
        })
    ) {
        // A component where every input agrees must keep that value.
        let mut acc = DenseAccumulator::new(dim);
        for v in &vectors {
            acc.add(v);
        }
        let m = acc.majority();
        for i in 0..dim {
            let all_one = vectors.iter().all(|v| v.get(i));
            let all_zero = vectors.iter().all(|v| !v.get(i));
            if all_one {
                prop_assert!(m.get(i));
            }
            if all_zero {
                prop_assert!(!m.get(i));
            }
        }
    }

    #[test]
    fn tie_break_only_touches_ties(
        (dim, vectors) in arb_dim().prop_flat_map(|d| {
            (Just(d), proptest::collection::vec(arb_hypervector(d), 2..10))
        }),
        tie_seed in any::<u64>()
    ) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(tie_seed);
        let tie = Hypervector::random(dim, &mut rng);
        let mut acc = DenseAccumulator::new(dim);
        for v in &vectors {
            acc.add(v);
        }
        let zero_tie = acc.majority();
        let vec_tie = acc.majority_with(TiePolicy::TieBreakVector, &tie);
        let k = vectors.len() as u32;
        for i in 0..dim {
            let count = acc.counts()[i];
            if 2 * count != k {
                prop_assert_eq!(zero_tie.get(i), vec_tie.get(i));
            } else {
                prop_assert_eq!(vec_tie.get(i), tie.get(i));
            }
        }
    }

    #[test]
    fn lbp_codes_in_range(signal in proptest::collection::vec(-100f32..100.0, 10..200),
                          len in 1usize..=8) {
        let codes = lbp_codes(&signal, len);
        let expected = signal.len().saturating_sub(len);
        prop_assert_eq!(codes.len(), expected);
        for c in codes {
            prop_assert!((c as usize) < (1 << len));
        }
    }

    #[test]
    fn lbp_histogram_mass_conserved(
        signal in proptest::collection::vec(-10f32..10.0, 20..300)
    ) {
        let codes = lbp_codes(&signal, 6);
        let hist = lbp_histogram(&codes, 6);
        prop_assert_eq!(hist.iter().map(|&c| c as usize).sum::<usize>(), codes.len());
    }

    #[test]
    fn lbp_invariant_to_offset_and_scale(
        signal in proptest::collection::vec(-10f32..10.0, 20..100),
        offset in -5f32..5.0,
        scale in 0.5f32..4.0
    ) {
        // LBP only sees the sign of differences: positive affine transforms
        // must not change the codes.
        let transformed: Vec<f32> = signal.iter().map(|&x| x * scale + offset).collect();
        prop_assert_eq!(lbp_codes(&signal, 6), lbp_codes(&transformed, 6));
    }

    #[test]
    fn streaming_lbp_matches_batch(
        signal in proptest::collection::vec(-10f32..10.0, 10..150),
        len in 1usize..=8
    ) {
        let mut ex = LbpExtractor::new(len);
        let streamed: Vec<_> = signal.iter().filter_map(|&x| ex.push(x)).collect();
        prop_assert_eq!(streamed, lbp_codes(&signal, len));
    }

    #[test]
    fn limbs_roundtrip_any_dim(dim in arb_ragged_dim(), seed in any::<u64>()) {
        // from_limbs is the exact inverse of limbs() for every dim,
        // including the `rem != 0` padding-validation branch.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let v = Hypervector::random(dim, &mut rng);
        assert_eq!(v.limbs().len(), limbs_for(dim));
        let back = Hypervector::from_limbs(dim, v.limbs().to_vec()).expect("valid limbs");
        prop_assert_eq!(back, v);
    }

    #[test]
    fn padding_bits_stay_zero(dim in arb_ragged_dim(), seed in any::<u64>()) {
        // Every constructor keeps bits at positions >= dim clear — the
        // invariant hamming() and the accumulators rely on.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        for v in [
            Hypervector::random(dim, &mut rng),
            Hypervector::ones(dim),
            Hypervector::zero(dim),
        ] {
            let rem = dim % LIMB_BITS;
            if rem != 0 {
                let tail = v.limbs()[v.limbs().len() - 1];
                prop_assert_eq!(tail & !((1u64 << rem) - 1), 0, "dim {}", dim);
            }
            prop_assert_eq!(
                v.limbs().iter().map(|l| l.count_ones() as usize).sum::<usize>(),
                v.count_ones()
            );
        }
    }

    #[test]
    fn from_limbs_rejects_any_set_padding_bit(
        dim in arb_ragged_dim(),
        seed in any::<u64>(),
        bit_pick in any::<u64>()
    ) {
        let rem = dim % LIMB_BITS;
        if rem != 0 {
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
            let v = Hypervector::random(dim, &mut rng);
            let mut limbs = v.limbs().to_vec();
            // Set one padding bit, chosen uniformly above `rem`.
            let bad = rem + (bit_pick as usize) % (LIMB_BITS - rem);
            let last = limbs.len() - 1;
            limbs[last] |= 1u64 << bad;
            prop_assert!(Hypervector::from_limbs(dim, limbs).is_none());
        }
    }

    #[test]
    fn item_memory_deterministic(len in 1usize..64, dim in arb_dim(), seed in any::<u64>()) {
        let a = ItemMemory::new(len, dim, seed);
        let b = ItemMemory::new(len, dim, seed);
        for i in 0..len {
            prop_assert_eq!(a.get(i), b.get(i));
        }
        prop_assert_eq!(a.storage_bits(), len * dim);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn hop_boundary_matches_dense_window_sum(
        dim in arb_kernel_dim(),
        hop in prop_oneof![1usize..=40, Just(256usize)],
        halves in 2usize..=4,
        seed in any::<u64>()
    ) {
        // H = prev + cur > window/2 with window = 2·hop, as the encoder
        // configures it, against dense counts of the same vectors.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let mut half = HalfWindows::new(dim, hop);
        let mut prev: Option<DenseAccumulator> = None;
        for _ in 0..halves {
            let mut cur = DenseAccumulator::new(dim);
            for _ in 0..hop {
                let v = Hypervector::random(dim, &mut rng);
                half.add(&v);
                cur.add(&v);
            }
            let got = half.end_half(2 * hop);
            match prev {
                None => prop_assert!(got.is_none()),
                Some(mut both) => {
                    both.merge(&cur);
                    let got = got.expect("a previous half exists");
                    prop_assert!(padding_is_zero(&got));
                    prop_assert_eq!(got, both.threshold(hop as u32 + 1));
                }
            }
            prev = Some(cur);
        }
    }
}
