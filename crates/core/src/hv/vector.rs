//! Bit-packed binary hypervectors.
//!
//! A [`Hypervector`] is a dense binary vector of dimension `d` (typically
//! 1000–10000 in the Laelaps paper) stored as 64-bit limbs. All HD-computing
//! arithmetic used by Laelaps — binding (XOR), Hamming distance, and the
//! bundling majority — operates limb-wise so that one CPU instruction
//! processes 64 vector components, mirroring the bit-packed GPU layout of
//! Fig. 2 in the paper.

use std::fmt;
use std::ops::BitXor;

use rand::Rng;

/// Number of bits per storage limb.
pub const LIMB_BITS: usize = 64;

/// Number of u64 limbs storing a `dim`-bit vector.
pub fn limbs_for(dim: usize) -> usize {
    dim.div_ceil(LIMB_BITS)
}

/// A binary hypervector of fixed dimension, bit-packed into `u64` limbs.
///
/// Component `i` lives at bit `i % 64` of limb `i / 64`. Any padding bits in
/// the last limb are kept at zero (an internal invariant relied upon by
/// [`Hypervector::hamming`] and the accumulators).
///
/// # Examples
///
/// ```
/// use laelaps_core::hv::Hypervector;
///
/// let a = Hypervector::zero(1000);
/// let b = Hypervector::ones(1000);
/// assert_eq!(a.hamming(&b), 1000);
/// assert_eq!(a.xor(&b), b);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Hypervector {
    limbs: Box<[u64]>,
    dim: usize,
}

impl Hypervector {
    /// Creates the all-zeros vector of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn zero(dim: usize) -> Self {
        assert!(dim > 0, "hypervector dimension must be nonzero");
        let n = limbs_for(dim);
        Hypervector {
            limbs: vec![0u64; n].into_boxed_slice(),
            dim,
        }
    }

    /// Creates the all-ones vector of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn ones(dim: usize) -> Self {
        let mut v = Self::zero(dim);
        for limb in v.limbs.iter_mut() {
            *limb = u64::MAX;
        }
        v.mask_tail();
        v
    }

    /// Draws a random vector with i.i.d. equiprobable components
    /// (the paper's atomic-vector distribution: binomial, p = 0.5).
    pub fn random<R: Rng + ?Sized>(dim: usize, rng: &mut R) -> Self {
        let mut v = Self::zero(dim);
        for limb in v.limbs.iter_mut() {
            *limb = rng.gen::<u64>();
        }
        v.mask_tail();
        v
    }

    /// Builds a vector from an iterator of booleans (component 0 first).
    ///
    /// # Panics
    ///
    /// Panics if the iterator yields no elements.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let bits: Vec<bool> = bits.into_iter().collect();
        assert!(!bits.is_empty(), "hypervector dimension must be nonzero");
        let mut v = Self::zero(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                v.set(i, true);
            }
        }
        v
    }

    /// Reconstructs a vector from raw limbs (the inverse of
    /// [`Hypervector::limbs`]) — the deserialization hook used by the
    /// model-persistence layer in `laelaps-serve`.
    ///
    /// Returns `None` if `dim` is zero, the limb count does not match
    /// `dim.div_ceil(64)`, or any padding bit above `dim` is set (a sign
    /// of corrupted input).
    pub fn from_limbs(dim: usize, limbs: Vec<u64>) -> Option<Self> {
        if dim == 0 || limbs.len() != limbs_for(dim) {
            return None;
        }
        let rem = dim % LIMB_BITS;
        if rem != 0 && limbs[limbs.len() - 1] & !((1u64 << rem) - 1) != 0 {
            return None;
        }
        Some(Hypervector {
            limbs: limbs.into_boxed_slice(),
            dim,
        })
    }

    /// The dimension `d` of this vector.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrows the raw limbs (padding bits of the last limb are zero).
    #[inline]
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Mutably borrows the raw limbs.
    ///
    /// Callers must preserve the invariant that padding bits stay zero;
    /// [`Hypervector::mask_tail`] restores it.
    #[inline]
    pub(crate) fn limbs_mut(&mut self) -> &mut [u64] {
        &mut self.limbs
    }

    /// Clears any padding bits above `dim` in the last limb.
    #[inline]
    pub(crate) fn mask_tail(&mut self) {
        let rem = self.dim % LIMB_BITS;
        if rem != 0 {
            let last = self.limbs.len() - 1;
            self.limbs[last] &= (1u64 << rem) - 1;
        }
    }

    /// Returns component `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dim()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.dim,
            "component {i} out of range (dim {})",
            self.dim
        );
        (self.limbs[i / LIMB_BITS] >> (i % LIMB_BITS)) & 1 == 1
    }

    /// Sets component `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dim()`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.dim,
            "component {i} out of range (dim {})",
            self.dim
        );
        let mask = 1u64 << (i % LIMB_BITS);
        if value {
            self.limbs[i / LIMB_BITS] |= mask;
        } else {
            self.limbs[i / LIMB_BITS] &= !mask;
        }
    }

    /// Number of components set to 1.
    pub fn count_ones(&self) -> usize {
        self.limbs.iter().map(|l| l.count_ones() as usize).sum()
    }

    /// Binding: componentwise XOR, producing a vector dissimilar to both
    /// inputs (used to bind an electrode vector to its LBP-code vector).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn xor(&self, other: &Self) -> Self {
        self.check_dim(other);
        let mut out = self.clone();
        for (o, r) in out.limbs.iter_mut().zip(other.limbs.iter()) {
            *o ^= r;
        }
        out
    }

    /// In-place binding: `self ^= other`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn xor_assign(&mut self, other: &Self) {
        self.check_dim(other);
        for (o, r) in self.limbs.iter_mut().zip(other.limbs.iter()) {
            *o ^= r;
        }
    }

    /// Hamming distance `η`: the number of components at which the vectors
    /// differ. This is the similarity metric of the associative memory.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    ///
    /// # Examples
    ///
    /// ```
    /// use laelaps_core::hv::Hypervector;
    /// use rand::SeedableRng;
    /// use rand::rngs::StdRng;
    ///
    /// let mut rng = StdRng::seed_from_u64(7);
    /// let a = Hypervector::random(10_000, &mut rng);
    /// let b = Hypervector::random(10_000, &mut rng);
    /// // Random hypervectors are nearly orthogonal: η ≈ d/2.
    /// let eta = a.hamming(&b) as f64;
    /// assert!((eta / 10_000.0 - 0.5).abs() < 0.05);
    /// ```
    pub fn hamming(&self, other: &Self) -> usize {
        self.check_dim(other);
        self.limbs
            .iter()
            .zip(other.limbs.iter())
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Normalized Hamming similarity in `[0, 1]`: `1 − η/d`.
    pub fn similarity(&self, other: &Self) -> f64 {
        1.0 - self.hamming(other) as f64 / self.dim as f64
    }

    /// Iterates over the components as booleans (component 0 first).
    pub fn iter_bits(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.dim).map(move |i| self.get(i))
    }

    #[inline]
    fn check_dim(&self, other: &Self) {
        assert_eq!(
            self.dim, other.dim,
            "hypervector dimension mismatch: {} vs {}",
            self.dim, other.dim
        );
    }
}

impl BitXor for &Hypervector {
    type Output = Hypervector;

    fn bitxor(self, rhs: &Hypervector) -> Hypervector {
        self.xor(rhs)
    }
}

impl fmt::Debug for Hypervector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Print a short prefix; full vectors are thousands of bits.
        let prefix: String = self
            .iter_bits()
            .take(32)
            .map(|b| if b { '1' } else { '0' })
            .collect();
        write!(
            f,
            "Hypervector {{ dim: {}, ones: {}, bits: {}… }}",
            self.dim,
            self.count_ones(),
            prefix
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_and_ones_have_expected_counts() {
        let z = Hypervector::zero(100);
        let o = Hypervector::ones(100);
        assert_eq!(z.count_ones(), 0);
        assert_eq!(o.count_ones(), 100);
        assert_eq!(z.dim(), 100);
    }

    #[test]
    fn ones_masks_padding_bits() {
        // dim not a multiple of 64: padding must stay zero.
        let o = Hypervector::ones(70);
        assert_eq!(o.count_ones(), 70);
        assert_eq!(o.limbs()[1].count_ones(), 6);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut v = Hypervector::zero(130);
        v.set(0, true);
        v.set(64, true);
        v.set(129, true);
        assert!(v.get(0) && v.get(64) && v.get(129));
        assert!(!v.get(1) && !v.get(128));
        v.set(64, false);
        assert!(!v.get(64));
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    fn xor_is_self_inverse() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Hypervector::random(1000, &mut rng);
        let b = Hypervector::random(1000, &mut rng);
        let bound = a.xor(&b);
        assert_eq!(bound.xor(&b), a);
        assert_eq!(bound.xor(&a), b);
    }

    #[test]
    fn binding_produces_dissimilar_vector() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Hypervector::random(10_000, &mut rng);
        let b = Hypervector::random(10_000, &mut rng);
        let bound = a.xor(&b);
        // Bound vector is ~orthogonal to both operands.
        assert!((bound.similarity(&a) - 0.5).abs() < 0.05);
        assert!((bound.similarity(&b) - 0.5).abs() < 0.05);
    }

    #[test]
    fn hamming_axioms_on_fixed_vectors() {
        let a = Hypervector::from_bits([true, false, true, false]);
        let b = Hypervector::from_bits([true, true, false, false]);
        assert_eq!(a.hamming(&a), 0);
        assert_eq!(a.hamming(&b), 2);
        assert_eq!(b.hamming(&a), 2);
    }

    #[test]
    fn random_is_balanced() {
        let mut rng = StdRng::seed_from_u64(3);
        let v = Hypervector::random(10_000, &mut rng);
        let ones = v.count_ones() as f64;
        assert!((ones / 10_000.0 - 0.5).abs() < 0.05);
    }

    #[test]
    fn from_bits_roundtrip() {
        let bits = vec![true, false, false, true, true, false, true];
        let v = Hypervector::from_bits(bits.clone());
        let back: Vec<bool> = v.iter_bits().collect();
        assert_eq!(back, bits);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn xor_rejects_dim_mismatch() {
        let a = Hypervector::zero(10);
        let b = Hypervector::zero(11);
        let _ = a.xor(&b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_rejects_out_of_range() {
        let v = Hypervector::zero(10);
        let _ = v.get(10);
    }

    #[test]
    fn xor_assign_matches_xor() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Hypervector::random(257, &mut rng);
        let b = Hypervector::random(257, &mut rng);
        let mut c = a.clone();
        c.xor_assign(&b);
        assert_eq!(c, a.xor(&b));
    }

    #[test]
    fn debug_is_nonempty() {
        let v = Hypervector::zero(64);
        assert!(!format!("{v:?}").is_empty());
    }

    #[test]
    fn limbs_for_rounds_up() {
        assert_eq!(limbs_for(64), 1);
        assert_eq!(limbs_for(65), 2);
        assert_eq!(limbs_for(1000), 16);
    }

    #[test]
    fn from_limbs_roundtrip() {
        let mut rng = StdRng::seed_from_u64(5);
        for dim in [64usize, 70, 128, 1000] {
            let v = Hypervector::random(dim, &mut rng);
            let back = Hypervector::from_limbs(dim, v.limbs().to_vec()).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn from_limbs_rejects_bad_input() {
        assert!(Hypervector::from_limbs(0, vec![]).is_none());
        assert!(Hypervector::from_limbs(64, vec![0, 0]).is_none());
        assert!(Hypervector::from_limbs(128, vec![0]).is_none());
        // Padding bit above dim = 70 set → reject.
        assert!(Hypervector::from_limbs(70, vec![0, 1 << 6]).is_none());
        assert!(Hypervector::from_limbs(70, vec![0, (1 << 6) - 1]).is_some());
    }
}
