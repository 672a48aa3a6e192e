//! Bundling accumulators: componentwise counters with majority thresholding.
//!
//! Bundling (`[A + B + C]` in the paper) sums vectors componentwise and
//! thresholds at half to return to binary space. Two implementations are
//! provided:
//!
//! * [`DenseAccumulator`] — one `u32` counter per component; the obvious
//!   reference implementation.
//! * [`BitSliceAccumulator`] — counters stored as *bit-planes* so that adding
//!   a hypervector is a ripple-carry add over whole limbs (64 components per
//!   instruction), and thresholding is a carry chain over the planes.
//!
//! Both are reference oracles for any bundle of any length. The streaming
//! encoder does not use them: its per-frame path is the fused kernel in
//! `bundle.rs` ([`HalfWindows`](super::HalfWindows) and the spatial step
//! behind [`SpatialEncoder`](crate::SpatialEncoder)), which is
//! property-tested against [`DenseAccumulator`].
//!
//! Both implement the paper's majority rule: the output bit is 0 when half
//! or more of the bundled arguments are 0, and 1 otherwise (ties go to 0).

use super::vector::Hypervector;

/// Majority rule applied when thresholding a bundle of `k` vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TiePolicy {
    /// The paper's rule: output 1 only for a strict majority of ones
    /// (`count > k/2`); an exact tie yields 0.
    #[default]
    ZeroOnTie,
    /// Break exact ties with the corresponding bit of a caller-provided
    /// tie-break vector (used by the ablation study).
    TieBreakVector,
}

/// Reference bundling accumulator with one `u32` counter per component.
///
/// # Examples
///
/// ```
/// use laelaps_core::hv::{DenseAccumulator, Hypervector};
///
/// let a = Hypervector::from_bits([true, true, false]);
/// let b = Hypervector::from_bits([true, false, false]);
/// let c = Hypervector::from_bits([false, true, false]);
/// let mut acc = DenseAccumulator::new(3);
/// acc.add(&a);
/// acc.add(&b);
/// acc.add(&c);
/// // Majority of {a, b, c}.
/// let m = acc.majority();
/// assert_eq!(m, Hypervector::from_bits([true, true, false]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseAccumulator {
    counts: Vec<u32>,
    added: u32,
}

impl DenseAccumulator {
    /// Creates an empty accumulator for dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "accumulator dimension must be nonzero");
        DenseAccumulator {
            counts: vec![0; dim],
            added: 0,
        }
    }

    /// Reconstructs an accumulator from persisted per-component counts
    /// (the inverse of [`DenseAccumulator::counts`] +
    /// [`DenseAccumulator::len`]), enabling resumable training.
    ///
    /// Returns `None` if `counts` is empty or any component count exceeds
    /// `added` — states no sequence of [`DenseAccumulator::add`] calls
    /// could have produced.
    pub fn from_counts(counts: Vec<u32>, added: u32) -> Option<Self> {
        if counts.is_empty() || counts.iter().any(|&c| c > added) {
            return None;
        }
        Some(DenseAccumulator { counts, added })
    }

    /// Dimension of the bundled vectors.
    pub fn dim(&self) -> usize {
        self.counts.len()
    }

    /// Number of vectors added so far.
    pub fn len(&self) -> u32 {
        self.added
    }

    /// Whether no vector has been added yet.
    pub fn is_empty(&self) -> bool {
        self.added == 0
    }

    /// Adds one vector to the bundle.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn add(&mut self, v: &Hypervector) {
        assert_eq!(v.dim(), self.dim(), "accumulator dimension mismatch");
        for (i, c) in self.counts.iter_mut().enumerate() {
            *c += v.get(i) as u32;
        }
        self.added += 1;
    }

    /// Adds the binding `a ⊕ b` without materializing it.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn add_xor(&mut self, a: &Hypervector, b: &Hypervector) {
        assert_eq!(a.dim(), self.dim(), "accumulator dimension mismatch");
        assert_eq!(b.dim(), self.dim(), "accumulator dimension mismatch");
        for i in 0..self.dim() {
            self.counts[i] += (a.get(i) ^ b.get(i)) as u32;
        }
        self.added += 1;
    }

    /// Adds weighted counts from another accumulator (used to merge the two
    /// half-window partial sums of the sliding temporal histogram).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn merge(&mut self, other: &DenseAccumulator) {
        assert_eq!(other.dim(), self.dim(), "accumulator dimension mismatch");
        for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += o;
        }
        self.added += other.added;
    }

    /// Raw per-component counts.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Thresholds with the paper's majority rule (ties to 0):
    /// bit `i` is 1 iff `counts[i] > added/2`.
    ///
    /// # Panics
    ///
    /// Panics if the accumulator is empty.
    pub fn majority(&self) -> Hypervector {
        assert!(self.added > 0, "majority of an empty bundle is undefined");
        self.threshold(self.added / 2 + 1)
    }

    /// Majority with an explicit tie policy; `tie` supplies the bits used
    /// for exact ties under [`TiePolicy::TieBreakVector`].
    ///
    /// # Panics
    ///
    /// Panics if the accumulator is empty, or if the policy is
    /// [`TiePolicy::TieBreakVector`] and `tie` has a different dimension.
    pub fn majority_with(&self, policy: TiePolicy, tie: &Hypervector) -> Hypervector {
        assert!(self.added > 0, "majority of an empty bundle is undefined");
        match policy {
            TiePolicy::ZeroOnTie => self.majority(),
            TiePolicy::TieBreakVector => {
                assert_eq!(tie.dim(), self.dim(), "tie-break dimension mismatch");
                if self.added % 2 == 1 {
                    // No ties possible with an odd count.
                    return self.majority();
                }
                let half = self.added / 2;
                let mut out = Hypervector::zero(self.dim());
                for (i, &c) in self.counts.iter().enumerate() {
                    let bit = match c.cmp(&half) {
                        std::cmp::Ordering::Greater => true,
                        std::cmp::Ordering::Equal => tie.get(i),
                        std::cmp::Ordering::Less => false,
                    };
                    out.set(i, bit);
                }
                out
            }
        }
    }

    /// Thresholds at an arbitrary count: bit `i` is 1 iff `counts[i] >= t`.
    pub fn threshold(&self, t: u32) -> Hypervector {
        let mut out = Hypervector::zero(self.dim());
        for (i, &c) in self.counts.iter().enumerate() {
            if c >= t {
                out.set(i, true);
            }
        }
        out
    }

    /// Resets to the empty bundle.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.added = 0;
    }
}

/// Bit-sliced bundling accumulator.
///
/// Per-component counters are stored as bit-planes: `planes[k]` holds bit
/// `k` of every component's counter, packed like a [`Hypervector`]. Adding a
/// vector is a ripple-carry increment over limbs; thresholding against a
/// constant `t` is a limb-wise carry chain that computes
/// `count + (2^K − t) ≥ 2^K`. Both cost `O(limbs · planes)` word
/// operations instead of `O(d)` scalar operations.
///
/// This is the same computation as [`DenseAccumulator`] (property-tested to
/// agree bit-for-bit): a reference oracle for bit-sliced bundling, and the
/// bundle the GPU simulator's dense reference builds on. The streaming
/// encoder runs the fused kernel instead.
#[derive(Debug, Clone)]
pub struct BitSliceAccumulator {
    planes: Vec<Vec<u64>>,
    dim: usize,
    limbs: usize,
    added: u32,
    /// Reusable carry buffer, so adding a vector never allocates.
    scratch: Vec<u64>,
}

impl BitSliceAccumulator {
    /// Creates an empty accumulator for dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "accumulator dimension must be nonzero");
        let limbs = dim.div_ceil(64);
        BitSliceAccumulator {
            planes: Vec::new(),
            dim,
            limbs,
            added: 0,
            scratch: vec![0u64; limbs],
        }
    }

    /// Dimension of the bundled vectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of vectors added so far.
    pub fn len(&self) -> u32 {
        self.added
    }

    /// Whether no vector has been added yet.
    pub fn is_empty(&self) -> bool {
        self.added == 0
    }

    /// Number of counter bit-planes currently allocated.
    pub fn plane_count(&self) -> usize {
        self.planes.len()
    }

    /// Adds one vector to the bundle.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn add(&mut self, v: &Hypervector) {
        assert_eq!(v.dim(), self.dim, "accumulator dimension mismatch");
        self.ripple_add(v.limbs());
        self.added += 1;
    }

    /// Adds the binding `a ⊕ b` without materializing it: one term
    /// `E_j ⊕ C_{i(j)}` of the spatial record.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn add_xor(&mut self, a: &Hypervector, b: &Hypervector) {
        assert_eq!(a.dim(), self.dim, "accumulator dimension mismatch");
        assert_eq!(b.dim(), self.dim, "accumulator dimension mismatch");
        let mut carry = std::mem::take(&mut self.scratch);
        for ((c, x), y) in carry.iter_mut().zip(a.limbs()).zip(b.limbs()) {
            *c = x ^ y;
        }
        self.ripple_add_carry(&mut carry);
        self.scratch = carry;
        self.added += 1;
    }

    /// Ripple-carry adds a 1-bit addend per component, given as packed limbs.
    fn ripple_add(&mut self, addend: &[u64]) {
        let mut carry = std::mem::take(&mut self.scratch);
        carry.copy_from_slice(addend);
        self.ripple_add_carry(&mut carry);
        self.scratch = carry;
    }

    fn ripple_add_carry(&mut self, carry: &mut [u64]) {
        for plane in self.planes.iter_mut() {
            let mut any = 0u64;
            for (p, c) in plane.iter_mut().zip(carry.iter_mut()) {
                let sum = *p ^ *c;
                let new_carry = *p & *c;
                *p = sum;
                *c = new_carry;
                any |= new_carry;
            }
            if any == 0 {
                return;
            }
        }
        // Carry out of the top plane: grow by one plane.
        if carry.iter().any(|&c| c != 0) {
            self.planes.push(carry.to_vec());
            carry.iter_mut().for_each(|c| *c = 0);
        }
    }

    /// Extracts per-component counts into a dense vector.
    pub fn to_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.dim];
        for (k, plane) in self.planes.iter().enumerate() {
            let weight = 1u32 << k;
            for (limb_idx, &limb) in plane.iter().enumerate() {
                let mut bits = limb;
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    let comp = limb_idx * 64 + b;
                    if comp < self.dim {
                        counts[comp] += weight;
                    }
                    bits &= bits - 1;
                }
            }
        }
        counts
    }

    /// Thresholds at an arbitrary count: bit `i` is 1 iff `count[i] >= t`.
    ///
    /// Computed entirely on bit-planes: per component,
    /// `count + (2^K − t)` carries out of `K` bits iff `count ≥ t`.
    pub fn threshold(&self, t: u32) -> Hypervector {
        if t == 0 {
            return Hypervector::ones(self.dim);
        }
        if t > self.added {
            // No component count can exceed the number of added vectors.
            return Hypervector::zero(self.dim);
        }
        let k = self.planes.len();
        // Need one extra bit so 2^K > max count and 2^K - t >= 0.
        let kk = k.max(1) + 1;
        let addend = (1u64 << kk) - t as u64;
        let mut carry = vec![0u64; self.limbs];
        let zero_plane = vec![0u64; self.limbs];
        for bit in 0..kk {
            let plane = self.planes.get(bit).unwrap_or(&zero_plane);
            let abit = (addend >> bit) & 1;
            let apat = if abit == 1 { u64::MAX } else { 0u64 };
            for (c, &p) in carry.iter_mut().zip(plane.iter()) {
                let sum_carry = (p & apat) | (p & *c) | (apat & *c);
                *c = sum_carry;
            }
        }
        let mut out = Hypervector::zero(self.dim);
        out.limbs_mut().copy_from_slice(&carry);
        out.mask_tail();
        out
    }

    /// Thresholds with the paper's majority rule (ties to 0):
    /// bit `i` is 1 iff `count[i] > added/2`.
    ///
    /// # Panics
    ///
    /// Panics if the accumulator is empty.
    pub fn majority(&self) -> Hypervector {
        assert!(self.added > 0, "majority of an empty bundle is undefined");
        self.threshold(self.added / 2 + 1)
    }

    /// Majority with an explicit tie policy (see [`TiePolicy`]).
    ///
    /// # Panics
    ///
    /// Panics if the accumulator is empty, or if the policy is
    /// [`TiePolicy::TieBreakVector`] and `tie` has a different dimension.
    pub fn majority_with(&self, policy: TiePolicy, tie: &Hypervector) -> Hypervector {
        assert!(self.added > 0, "majority of an empty bundle is undefined");
        match policy {
            TiePolicy::ZeroOnTie => self.majority(),
            TiePolicy::TieBreakVector => {
                assert_eq!(tie.dim(), self.dim, "tie-break dimension mismatch");
                if self.added % 2 == 1 {
                    return self.majority();
                }
                let half = self.added / 2;
                // Tie positions are exactly those >= half but not > half.
                let strict = self.threshold(half + 1);
                let at_least_half = self.threshold(half);
                let mut out = strict.clone();
                for i in 0..out.limbs().len() {
                    let tie_mask = at_least_half.limbs()[i] & !strict.limbs()[i];
                    out.limbs_mut()[i] |= tie_mask & tie.limbs()[i];
                }
                out
            }
        }
    }

    /// Resets to the empty bundle, keeping allocated planes for reuse.
    pub fn clear(&mut self) {
        for plane in self.planes.iter_mut() {
            plane.fill(0);
        }
        self.added = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Hypervector> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Hypervector::random(dim, &mut rng)).collect()
    }

    #[test]
    fn dense_majority_of_three() {
        let a = Hypervector::from_bits([true, true, false, false]);
        let b = Hypervector::from_bits([true, false, true, false]);
        let c = Hypervector::from_bits([true, false, false, false]);
        let mut acc = DenseAccumulator::new(4);
        for v in [&a, &b, &c] {
            acc.add(v);
        }
        assert_eq!(
            acc.majority(),
            Hypervector::from_bits([true, false, false, false])
        );
    }

    #[test]
    fn dense_tie_goes_to_zero() {
        let a = Hypervector::from_bits([true, false]);
        let b = Hypervector::from_bits([false, false]);
        let mut acc = DenseAccumulator::new(2);
        acc.add(&a);
        acc.add(&b);
        // Component 0 is tied 1-1 → 0 under the paper's rule.
        assert_eq!(acc.majority(), Hypervector::from_bits([false, false]));
    }

    #[test]
    fn dense_tie_break_vector() {
        let a = Hypervector::from_bits([true, false, true]);
        let b = Hypervector::from_bits([false, false, true]);
        let tie = Hypervector::from_bits([true, true, false]);
        let mut acc = DenseAccumulator::new(3);
        acc.add(&a);
        acc.add(&b);
        let m = acc.majority_with(TiePolicy::TieBreakVector, &tie);
        // comp 0: tie → tie bit 1; comp 1: zero count → 0; comp 2: full → 1.
        assert_eq!(m, Hypervector::from_bits([true, false, true]));
    }

    #[test]
    fn bitslice_matches_dense_on_random_input() {
        let dim = 300;
        let vs = random_vectors(37, dim, 11);
        let mut dense = DenseAccumulator::new(dim);
        let mut slice = BitSliceAccumulator::new(dim);
        for v in &vs {
            dense.add(v);
            slice.add(v);
        }
        assert_eq!(slice.to_counts(), dense.counts().to_vec());
        assert_eq!(slice.majority(), dense.majority());
        for t in [0u32, 1, 5, 18, 19, 20, 37, 38] {
            assert_eq!(slice.threshold(t), dense.threshold(t), "t = {t}");
        }
    }

    #[test]
    fn bitslice_add_xor_matches_materialized() {
        let dim = 200;
        let vs = random_vectors(16, dim, 13);
        let mut a1 = BitSliceAccumulator::new(dim);
        let mut a2 = BitSliceAccumulator::new(dim);
        for pair in vs.chunks(2) {
            a1.add_xor(&pair[0], &pair[1]);
            a2.add(&pair[0].xor(&pair[1]));
        }
        assert_eq!(a1.to_counts(), a2.to_counts());
    }

    #[test]
    fn bitslice_majority_even_tie_to_zero() {
        let a = Hypervector::from_bits([true, true]);
        let b = Hypervector::from_bits([false, true]);
        let mut acc = BitSliceAccumulator::new(2);
        acc.add(&a);
        acc.add(&b);
        assert_eq!(acc.majority(), Hypervector::from_bits([false, true]));
    }

    #[test]
    fn bitslice_tie_break_vector_matches_dense() {
        let dim = 150;
        let vs = random_vectors(10, dim, 17);
        let mut rng = StdRng::seed_from_u64(18);
        let tie = Hypervector::random(dim, &mut rng);
        let mut dense = DenseAccumulator::new(dim);
        let mut slice = BitSliceAccumulator::new(dim);
        for v in &vs {
            dense.add(v);
            slice.add(v);
        }
        assert_eq!(
            slice.majority_with(TiePolicy::TieBreakVector, &tie),
            dense.majority_with(TiePolicy::TieBreakVector, &tie)
        );
    }

    #[test]
    fn bundling_preserves_similarity_to_inputs() {
        // The defining property of bundling: [A+B+C] is similar to A, B, C.
        let dim = 10_000;
        let vs = random_vectors(3, dim, 19);
        let mut acc = BitSliceAccumulator::new(dim);
        for v in &vs {
            acc.add(v);
        }
        let m = acc.majority();
        for v in &vs {
            // Each input agrees with the majority on ~75% of components.
            let sim = m.similarity(v);
            assert!(sim > 0.70, "similarity {sim} too low");
        }
    }

    #[test]
    fn clear_resets_state() {
        let dim = 64;
        let vs = random_vectors(5, dim, 23);
        let mut acc = BitSliceAccumulator::new(dim);
        for v in &vs {
            acc.add(v);
        }
        acc.clear();
        assert!(acc.is_empty());
        assert_eq!(acc.to_counts(), vec![0u32; dim]);
        acc.add(&vs[0]);
        assert_eq!(acc.majority(), vs[0]);
    }

    #[test]
    fn threshold_edges() {
        let dim = 65;
        let mut acc = BitSliceAccumulator::new(dim);
        let v = Hypervector::ones(dim);
        for _ in 0..4 {
            acc.add(&v);
        }
        assert_eq!(acc.threshold(0), Hypervector::ones(dim));
        assert_eq!(acc.threshold(4), Hypervector::ones(dim));
        assert_eq!(acc.threshold(5), Hypervector::zero(dim));
    }

    #[test]
    fn dense_merge_adds_counts() {
        let dim = 32;
        let vs = random_vectors(6, dim, 29);
        let mut a = DenseAccumulator::new(dim);
        let mut b = DenseAccumulator::new(dim);
        let mut whole = DenseAccumulator::new(dim);
        for v in &vs[..3] {
            a.add(v);
            whole.add(v);
        }
        for v in &vs[3..] {
            b.add(v);
            whole.add(v);
        }
        a.merge(&b);
        assert_eq!(a.counts(), whole.counts());
        assert_eq!(a.len(), 6);
    }

    #[test]
    #[should_panic(expected = "empty bundle")]
    fn majority_of_empty_panics() {
        let acc = DenseAccumulator::new(8);
        let _ = acc.majority();
    }

    #[test]
    fn large_bundle_count() {
        // 512 additions as in the temporal histogram window.
        let dim = 128;
        let mut rng = StdRng::seed_from_u64(31);
        let mut dense = DenseAccumulator::new(dim);
        let mut slice = BitSliceAccumulator::new(dim);
        for _ in 0..512 {
            let v = Hypervector::random(dim, &mut rng);
            dense.add(&v);
            slice.add(&v);
        }
        assert_eq!(slice.to_counts(), dense.counts().to_vec());
        assert_eq!(slice.threshold(257), dense.threshold(257));
        // Sanity: counts hover around 256.
        let mean = dense.counts().iter().map(|&c| c as f64).sum::<f64>() / dim as f64;
        assert!((mean - 256.0).abs() < 30.0);
        let _ = rng.gen::<u8>();
    }
}
