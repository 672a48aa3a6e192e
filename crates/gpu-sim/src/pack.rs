//! Bit-packing between `laelaps-core` hypervectors and the GPU layout.
//!
//! The TX2 implementation stores `d`-bit vectors as arrays of 32-bit
//! words (§V-B: "packed into 32 integer variables with 32-bit each,
//! padded if necessary" for d = 1 kbit). Word `w` holds components
//! `[32w, 32w + 32)`, so word `2k` is the low half of the hypervector's
//! u64 limb `k` and word `2k + 1` its high half.

use laelaps_core::hv::{limbs_for, Hypervector, ItemMemory, LIMB_BITS};

/// Number of bits per GPU word.
const WORD_BITS: usize = 32;

/// Number of 32-bit words for a `dim`-bit vector (the paper's layout:
/// d = 1 kbit → 32 words).
pub fn words_for(dim: usize) -> usize {
    dim.div_ceil(WORD_BITS)
}

/// Packs a hypervector into GPU words (component `i` → bit `i % 32` of
/// word `i / 32`). Padding bits of the last word are zero.
pub fn pack_hv(hv: &Hypervector) -> Vec<u32> {
    let words = words_for(hv.dim());
    let mut out = vec![0u32; words];
    for (i, limb) in hv.limbs().iter().enumerate() {
        out[2 * i] = (limb & 0xFFFF_FFFF) as u32;
        if 2 * i + 1 < words {
            out[2 * i + 1] = (limb >> 32) as u32;
        }
    }
    out
}

/// Unpacks GPU words back into a hypervector of dimension `dim`.
///
/// Only the low `dim` bits are read: set padding bits in the last word
/// are ignored, matching a device buffer whose tail was never cleared.
///
/// # Panics
///
/// Panics if `words` is too short for `dim`.
pub fn unpack_hv(words: &[u32], dim: usize) -> Hypervector {
    assert!(words.len() >= words_for(dim), "word buffer too short");
    let mut limbs = vec![0u64; limbs_for(dim)];
    for (i, limb) in limbs.iter_mut().enumerate() {
        let lo = words[2 * i] as u64;
        let hi = words.get(2 * i + 1).copied().unwrap_or(0) as u64;
        *limb = lo | (hi << 32);
    }
    let rem = dim % LIMB_BITS;
    if rem != 0 {
        let last = limbs.len() - 1;
        limbs[last] &= (1u64 << rem) - 1;
    }
    Hypervector::from_limbs(dim, limbs).expect("padding masked above")
}

/// Packs a whole item memory (one word row per symbol).
pub fn pack_item_memory(im: &ItemMemory) -> Vec<Vec<u32>> {
    im.iter().map(pack_hv).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roundtrip_packs_exactly() {
        let mut rng = StdRng::seed_from_u64(1);
        for dim in [1usize, 31, 32, 33, 64, 70, 100, 1000, 1024, 2000] {
            let hv = Hypervector::random(dim, &mut rng);
            let packed = pack_hv(&hv);
            assert_eq!(packed.len(), words_for(dim));
            assert_eq!(unpack_hv(&packed, dim), hv, "dim {dim}");
        }
    }

    #[test]
    fn words_for_rounds_up() {
        assert_eq!(words_for(32), 1);
        assert_eq!(words_for(33), 2);
        assert_eq!(words_for(1000), 32); // paper's d = 1 kbit → 32 words
    }

    #[test]
    fn unpack_ignores_dirty_padding() {
        // A device buffer whose padding bits were never cleared must still
        // unpack to a valid (padding-zero) hypervector.
        let dim = 70; // words_for = 3, last word holds bits 64..70
        let mut words = vec![0u32; words_for(dim)];
        words[2] = u32::MAX; // bits 64..96 all set, 70..96 are padding
        let hv = unpack_hv(&words, dim);
        assert_eq!(hv.count_ones(), 6);
        assert!(Hypervector::from_limbs(dim, hv.limbs().to_vec()).is_some());
    }

    #[test]
    fn item_memory_packs_every_symbol() {
        let im = ItemMemory::new(64, 1000, 9);
        let packed = pack_item_memory(&im);
        assert_eq!(packed.len(), 64);
        for (row, hv) in packed.iter().zip(im.iter()) {
            assert_eq!(&unpack_hv(row, 1000), hv);
        }
    }

    #[test]
    fn popcount_preserved() {
        let mut rng = StdRng::seed_from_u64(2);
        let hv = Hypervector::random(777, &mut rng);
        let packed = pack_hv(&hv);
        let ones: u32 = packed.iter().map(|w| w.count_ones()).sum();
        assert_eq!(ones as usize, hv.count_ones());
    }
}
