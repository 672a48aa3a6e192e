//! Property-based tests for the GPU word packing.

use laelaps_core::hv::Hypervector;
use laelaps_gpu_sim::pack::{pack_hv, unpack_hv, words_for};
use proptest::prelude::*;

/// Dimensions that stress the padding/masking branches: everything that
/// is *not* a multiple of the word or limb size, plus the aligned cases
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

proptest! {
    #[test]
    fn word_pack_roundtrips_and_masks(dim in arb_ragged_dim(), seed in any::<u64>()) {
        // u32-word view: exact round-trip, correct length, zero padding
        // bits in the packed form, popcount preserved.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let v = Hypervector::random(dim, &mut rng);
        let words = pack_hv(&v);
        prop_assert_eq!(words.len(), words_for(dim));
        prop_assert_eq!(
            words.iter().map(|w| w.count_ones() as usize).sum::<usize>(),
            v.count_ones()
        );
        let rem = dim % 32;
        if rem != 0 {
            let tail = words[words.len() - 1];
            prop_assert_eq!(tail & !((1u32 << rem) - 1), 0);
        }
        prop_assert_eq!(unpack_hv(&words, dim), v);
    }

    #[test]
    fn unpack_tolerates_dirty_padding(dim in arb_ragged_dim(), seed in any::<u64>()) {
        // A device buffer with garbage above `dim` must unpack to the
        // same vector as a clean one (only low `dim` bits are read).
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let v = Hypervector::random(dim, &mut rng);
        let mut words = pack_hv(&v);
        let rem = dim % 32;
        if rem != 0 {
            let last = words.len() - 1;
            words[last] |= !((1u32 << rem) - 1);
        }
        prop_assert_eq!(unpack_hv(&words, dim), v);
    }
}
