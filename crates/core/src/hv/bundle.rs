//! The fused spatial → temporal bundling kernel of the Laelaps encoder.
//!
//! One call bundles a frame's bound electrode vectors
//! `E_1⊕C(1) + … + E_n⊕C(n)` and thresholds the sum at a majority, without
//! materialising a counter array or any intermediate vector. It walks the
//! dimension one register at a time (8 limbs under AVX-512, 4 under AVX2,
//! 1 otherwise), adds the bound rows two at a time (a full adder into the
//! lowest of the `K = bits(n)` counter planes, which stay in registers,
//! then a ripple of its carry), and hands each register of majority bits
//! to a [`Sink`]: either an output vector
//! ([`SpatialEncoder::encode`](crate::SpatialEncoder::encode)) or the
//! half-window counters of the temporal step ([`HalfWindows`]).
//!
//! [`HalfWindows`] keeps the temporal step bit-sliced as well: the current
//! and previous half windows are flat plane-major buffers, and the hop
//! boundary adds and thresholds them plane by plane.
//!
//! The reference for both steps is [`DenseAccumulator`](super::DenseAccumulator);
//! the kernel is property-tested against it at every tier the host runs.

use super::item_memory::ItemMemory;
use super::vector::{limbs_for, Hypervector};
use super::TiePolicy;
use crate::lbp::LbpCode;

/// Register width the kernel runs at. Chosen once per encoder by
/// [`Tier::detect`]; every tier computes the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// One 64-bit limb per block; runs on every target.
    Scalar,
    /// Four limbs per block in 256-bit AVX2 registers (x86-64).
    Avx2,
    /// Eight limbs per block in 512-bit AVX-512F registers (x86-64).
    Avx512,
}

impl Tier {
    /// The widest tier this CPU supports.
    pub fn detect() -> Tier {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Tier::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return Tier::Avx2;
            }
        }
        Tier::Scalar
    }

    /// Every tier this CPU supports, narrowest first.
    pub fn available() -> Vec<Tier> {
        [Tier::Scalar, Tier::Avx2, Tier::Avx512]
            .into_iter()
            .filter(|&t| t.is_supported())
            .collect()
    }

    /// Whether this CPU can run the tier.
    pub fn is_supported(self) -> bool {
        match self {
            Tier::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            Tier::Avx2 | Tier::Avx512 => false,
        }
    }
}

/// One frame's spatial bundle: electrode `j`'s IM2 row bound to the IM1
/// row of `codes[j]`. The rows are read in place from the item memories.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bound<'a> {
    pub electrodes: &'a ItemMemory,
    pub symbols: &'a ItemMemory,
    pub codes: &'a [LbpCode],
    /// Tie-break limbs, present only when exact ties are possible and
    /// broken by a vector (even `n` under [`TiePolicy::TieBreakVector`]).
    pub tie: Option<&'a [u64]>,
}

/// A register of 64-bit limbs. The tiers run one kernel and differ only
/// in this type: one `u64`, or an AVX2 or AVX-512 vector.
pub(crate) trait Lanes: Copy {
    /// Limbs per register.
    const LIMBS: usize;
    fn zero() -> Self;
    /// Loads limbs `at..at + LIMBS`.
    fn load(limbs: &[u64], at: usize) -> Self;
    /// Stores into limbs `at..at + LIMBS`.
    fn store(self, limbs: &mut [u64], at: usize);
    fn xor(self, other: Self) -> Self;
    fn and(self, other: Self) -> Self;
    fn or(self, other: Self) -> Self;
}

impl Lanes for u64 {
    const LIMBS: usize = 1;
    #[inline(always)]
    fn zero() -> Self {
        0
    }
    #[inline(always)]
    fn load(limbs: &[u64], at: usize) -> Self {
        limbs[at]
    }
    #[inline(always)]
    fn store(self, limbs: &mut [u64], at: usize) {
        limbs[at] = self;
    }
    #[inline(always)]
    fn xor(self, other: Self) -> Self {
        self ^ other
    }
    #[inline(always)]
    fn and(self, other: Self) -> Self {
        self & other
    }
    #[inline(always)]
    fn or(self, other: Self) -> Self {
        self | other
    }
}

/// Where the kernel puts each register of majority bits.
pub(crate) trait Sink {
    /// Accepts the spatial bits of limbs `at..at + L::LIMBS`.
    fn put<L: Lanes>(&mut self, at: usize, bits: L);
}

/// Writes the bits into an output vector's limbs.
impl Sink for [u64] {
    #[inline(always)]
    fn put<L: Lanes>(&mut self, at: usize, bits: L) {
        bits.store(self, at);
    }
}

/// Adds the bits into the current half window's counters: a ripple-carry
/// add through every plane, without branches.
impl Sink for HalfWindows {
    #[inline(always)]
    fn put<L: Lanes>(&mut self, at: usize, bits: L) {
        let mut carry = bits;
        for plane in self.cur.chunks_exact_mut(self.limbs) {
            let p = L::load(plane, at);
            p.xor(carry).store(plane, at);
            carry = carry.and(p);
        }
    }
}

/// A kernel instance: one tier, one plane count, one sink.
type Entry<S> = fn(&Bound<'_>, &mut S);

/// The two kernel instances an encoder uses, picked once at construction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpatialKernel {
    write: Entry<[u64]>,
    accumulate: Entry<HalfWindows>,
}

impl SpatialKernel {
    /// The instances for `electrodes` inputs at `tier`.
    ///
    /// # Panics
    ///
    /// Panics if this CPU cannot run `tier`.
    pub fn new(tier: Tier, electrodes: usize) -> Self {
        assert!(tier.is_supported(), "{tier:?} is not supported by this CPU");
        SpatialKernel {
            write: entry(tier, electrodes),
            accumulate: entry(tier, electrodes),
        }
    }

    /// Writes the spatial majority of `bound` into `out` (one limb per 64
    /// components; padding bits come out zero).
    #[inline]
    pub fn write(&self, bound: &Bound<'_>, out: &mut [u64]) {
        (self.write)(bound, out)
    }

    /// Adds the spatial majority of `bound` into the current half window.
    #[inline]
    pub fn accumulate(&self, bound: &Bound<'_>, half: &mut HalfWindows) {
        half.ready();
        (self.accumulate)(bound, half);
        half.len += 1;
    }
}

/// Spatial majority of the bound pairs `electrodes[j] ⊕ symbols[codes[j]]`
/// under `policy`, computed by the kernel at `tier`. The fused encoder
/// runs the same code; this entry exists so tests can reach every tier.
///
/// # Panics
///
/// Panics if this CPU cannot run `tier`, if `codes.len()` differs from
/// the electrode count, if a code has no row in `symbols`, or if the
/// dimensions differ.
#[doc(hidden)]
pub fn spatial_majority_at(
    tier: Tier,
    electrodes: &ItemMemory,
    symbols: &ItemMemory,
    codes: &[LbpCode],
    policy: TiePolicy,
    tie: &Hypervector,
) -> Hypervector {
    assert_eq!(codes.len(), electrodes.len(), "one code per electrode");
    assert_eq!(electrodes.dim(), symbols.dim(), "dimension mismatch");
    assert_eq!(electrodes.dim(), tie.dim(), "dimension mismatch");
    let bound = Bound {
        electrodes,
        symbols,
        codes,
        tie: tie_limbs(policy, codes.len(), tie),
    };
    let mut out = Hypervector::zero(electrodes.dim());
    SpatialKernel::new(tier, codes.len()).write(&bound, out.limbs_mut());
    out
}

/// The tie-break limbs the kernel needs for `n` inputs under `policy`:
/// none unless `n` is even and ties go to the tie-break vector.
pub(crate) fn tie_limbs(policy: TiePolicy, n: usize, tie: &Hypervector) -> Option<&[u64]> {
    (policy == TiePolicy::TieBreakVector && n.is_multiple_of(2)).then(|| tie.limbs())
}

/// Picks the instance for `electrodes` inputs: the smallest listed plane
/// count `K` with `2^K > electrodes`.
fn entry<S: Sink + ?Sized>(tier: Tier, electrodes: usize) -> Entry<S> {
    let planes = bits(electrodes);
    macro_rules! by_planes {
        ($($k:literal)*) => {
            $(if planes <= $k {
                return by_tier::<$k, S>(tier);
            })*
        };
    }
    by_planes!(1 2 3 4 5 6 7 8 16 64);
    unreachable!("a usize count needs at most 64 bits")
}

fn by_tier<const K: usize, S: Sink + ?Sized>(tier: Tier) -> Entry<S> {
    match tier {
        Tier::Scalar => scalar::<K, S>,
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => avx2::<K, S>,
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => avx512::<K, S>,
        #[cfg(not(target_arch = "x86_64"))]
        Tier::Avx2 | Tier::Avx512 => unreachable!("checked by Tier::is_supported"),
    }
}

fn scalar<const K: usize, S: Sink + ?Sized>(bound: &Bound<'_>, sink: &mut S) {
    run::<u64, K, S>(bound, sink, 0);
}

#[cfg(target_arch = "x86_64")]
fn avx2<const K: usize, S: Sink + ?Sized>(bound: &Bound<'_>, sink: &mut S) {
    #[target_feature(enable = "avx2")]
    fn body<const K: usize, S: Sink + ?Sized>(bound: &Bound<'_>, sink: &mut S) {
        let at = run::<x86::Avx2, K, S>(bound, sink, 0);
        run::<u64, K, S>(bound, sink, at);
    }
    // SAFETY: `SpatialKernel::new` asserts `Tier::is_supported` before
    // `by_tier` hands out this instance, so the CPU has AVX2.
    unsafe { body::<K, S>(bound, sink) }
}

#[cfg(target_arch = "x86_64")]
fn avx512<const K: usize, S: Sink + ?Sized>(bound: &Bound<'_>, sink: &mut S) {
    #[target_feature(enable = "avx512f")]
    fn body<const K: usize, S: Sink + ?Sized>(bound: &Bound<'_>, sink: &mut S) {
        let at = run::<x86::Avx512, K, S>(bound, sink, 0);
        let at = run::<x86::Avx2, K, S>(bound, sink, at);
        run::<u64, K, S>(bound, sink, at);
    }
    // SAFETY: `SpatialKernel::new` asserts `Tier::is_supported` before
    // `by_tier` hands out this instance, so the CPU has AVX-512F.
    unsafe { body::<K, S>(bound, sink) }
}

/// Runs whole registers of `L` from limb `at` while one fits; returns the
/// first limb left over.
#[inline(always)]
fn run<L: Lanes, const K: usize, S: Sink + ?Sized>(
    bound: &Bound<'_>,
    sink: &mut S,
    mut at: usize,
) -> usize {
    let limbs = limbs_for(bound.electrodes.dim());
    while at + L::LIMBS <= limbs {
        sink.put(at, spatial_block::<L, K>(bound, at));
        at += L::LIMBS;
    }
    at
}

/// The spatial majority bits of limbs `at..at + L::LIMBS`.
#[inline(always)]
fn spatial_block<L: Lanes, const K: usize>(bound: &Bound<'_>, at: usize) -> L {
    // `planes[k]` holds bit k of every component's count.
    let mut planes = [L::zero(); K];
    let n = bound.codes.len();
    let mut j = 0;
    // Two electrodes at a time: a full adder into plane 0, whose carry
    // then ripples up from plane 1.
    while j + 1 < n {
        let x = bound_row::<L>(bound, j, at);
        let y = bound_row::<L>(bound, j + 1, at);
        let xy = x.xor(y);
        let carry = x.and(y).or(planes[0].and(xy));
        planes[0] = planes[0].xor(xy);
        ripple(&mut planes[1..], carry);
        j += 2;
    }
    if j < n {
        ripple(&mut planes, bound_row::<L>(bound, j, at));
    }
    let strict = at_least(&planes, n / 2 + 1);
    match bound.tie {
        // A tie is `count ≥ n/2` without `count ≥ n/2 + 1`; strict ⊆ half.
        Some(tie) => strict.or(L::load(tie, at).and(at_least(&planes, n / 2))),
        None => strict,
    }
}

/// `E_j ⊕ C(codes[j])` at limbs `at..at + L::LIMBS`, read in place.
#[inline(always)]
fn bound_row<L: Lanes>(bound: &Bound<'_>, j: usize, at: usize) -> L {
    let code = bound.codes[j] as usize;
    L::load(bound.electrodes.get(j).limbs(), at).xor(L::load(bound.symbols.get(code).limbs(), at))
}

/// Adds `carry` (weight `2^0` relative to `planes[0]`) into the counter
/// planes, branch-free.
#[inline(always)]
fn ripple<L: Lanes>(planes: &mut [L], mut carry: L) {
    for plane in planes {
        let sum = plane.xor(carry);
        carry = carry.and(*plane);
        *plane = sum;
    }
}

/// `count ≥ t` per component, for `1 ≤ t ≤ 2^K`: the carry out of
/// `count + (2^K − t)` computed plane by plane.
#[inline(always)]
fn at_least<L: Lanes, const K: usize>(planes: &[L; K], t: usize) -> L {
    let addend = ((1u128 << K) - t as u128) as u64;
    let mut carry = L::zero();
    for (k, &plane) in planes.iter().enumerate() {
        // Full-adder carry with a constant bit: p | c when it is 1, p & c
        // when it is 0.
        carry = if (addend >> k) & 1 == 1 {
            carry.or(plane)
        } else {
            carry.and(plane)
        };
    }
    carry
}

/// Bits needed to hold `n`: the smallest `K` with `2^K > n`.
fn bits(n: usize) -> usize {
    (usize::BITS - n.leading_zeros()) as usize
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The AVX2 and AVX-512 registers. Their values are created and used
    //! only inside the `avx2` and `avx512` kernel bodies, which run after
    //! `SpatialKernel::new` has checked that the CPU has the feature; every
    //! `unsafe` below relies on that and, for loads and stores, on the
    //! bounds-checked slice it reads or writes.

    use super::Lanes;
    use std::arch::x86_64::*;

    /// Four limbs in a 256-bit AVX2 register.
    #[derive(Clone, Copy)]
    pub(super) struct Avx2(__m256i);

    impl Lanes for Avx2 {
        const LIMBS: usize = 4;
        #[inline(always)]
        fn zero() -> Self {
            // SAFETY: runs only where AVX2 is present (module docs).
            Avx2(unsafe { _mm256_setzero_si256() })
        }
        #[inline(always)]
        fn load(limbs: &[u64], at: usize) -> Self {
            let src = &limbs[at..at + Self::LIMBS];
            // SAFETY: `src` is 32 readable bytes; the load is unaligned;
            // AVX2 is present (module docs).
            Avx2(unsafe { _mm256_loadu_si256(src.as_ptr().cast()) })
        }
        #[inline(always)]
        fn store(self, limbs: &mut [u64], at: usize) {
            let dst = &mut limbs[at..at + Self::LIMBS];
            // SAFETY: `dst` is 32 writable bytes; the store is unaligned;
            // AVX2 is present (module docs).
            unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), self.0) }
        }
        #[inline(always)]
        fn xor(self, other: Self) -> Self {
            // SAFETY: runs only where AVX2 is present (module docs).
            Avx2(unsafe { _mm256_xor_si256(self.0, other.0) })
        }
        #[inline(always)]
        fn and(self, other: Self) -> Self {
            // SAFETY: runs only where AVX2 is present (module docs).
            Avx2(unsafe { _mm256_and_si256(self.0, other.0) })
        }
        #[inline(always)]
        fn or(self, other: Self) -> Self {
            // SAFETY: runs only where AVX2 is present (module docs).
            Avx2(unsafe { _mm256_or_si256(self.0, other.0) })
        }
    }

    /// Eight limbs in a 512-bit AVX-512 register.
    #[derive(Clone, Copy)]
    pub(super) struct Avx512(__m512i);

    impl Lanes for Avx512 {
        const LIMBS: usize = 8;
        #[inline(always)]
        fn zero() -> Self {
            // SAFETY: runs only where AVX-512F is present (module docs).
            Avx512(unsafe { _mm512_setzero_si512() })
        }
        #[inline(always)]
        fn load(limbs: &[u64], at: usize) -> Self {
            let src = &limbs[at..at + Self::LIMBS];
            // SAFETY: `src` is 64 readable bytes; the load is unaligned;
            // AVX-512F is present (module docs).
            Avx512(unsafe { _mm512_loadu_si512(src.as_ptr().cast()) })
        }
        #[inline(always)]
        fn store(self, limbs: &mut [u64], at: usize) {
            let dst = &mut limbs[at..at + Self::LIMBS];
            // SAFETY: `dst` is 64 writable bytes; the store is unaligned;
            // AVX-512F is present (module docs).
            unsafe { _mm512_storeu_si512(dst.as_mut_ptr().cast(), self.0) }
        }
        #[inline(always)]
        fn xor(self, other: Self) -> Self {
            // SAFETY: runs only where AVX-512F is present (module docs).
            Avx512(unsafe { _mm512_xor_si512(self.0, other.0) })
        }
        #[inline(always)]
        fn and(self, other: Self) -> Self {
            // SAFETY: runs only where AVX-512F is present (module docs).
            Avx512(unsafe { _mm512_and_si512(self.0, other.0) })
        }
        #[inline(always)]
        fn or(self, other: Self) -> Self {
            // SAFETY: runs only where AVX-512F is present (module docs).
            Avx512(unsafe { _mm512_or_si512(self.0, other.0) })
        }
    }
}

/// The bit-sliced half-window counters of the temporal step.
///
/// Each half window bundles `hop` spatial records. Its per-component
/// counts are `bits(hop)` bit-planes in one flat plane-major buffer (plane
/// `k` of limb `i` at `k · limbs + i`); the previous half is kept the same
/// way, and the two buffers swap at every hop. At the boundary the window
/// vector is `H = prev + cur > window/2`, computed with a plane adder
/// feeding a constant comparator, one limb at a time.
///
/// # Examples
///
/// ```
/// use laelaps_core::hv::{HalfWindows, Hypervector};
///
/// let mut half = HalfWindows::new(3, 2);
/// let a = Hypervector::from_bits([true, true, false]);
/// let b = Hypervector::from_bits([true, false, false]);
/// half.add(&a);
/// half.add(&a);
/// assert_eq!(half.end_half(4), None); // no previous half yet
/// half.add(&b);
/// half.add(&b);
/// // Counts over both halves: [4, 2, 0]; H keeps those above 4/2.
/// assert_eq!(half.end_half(4), Some(Hypervector::from_bits([true, false, false])));
/// ```
#[derive(Debug, Clone)]
pub struct HalfWindows {
    /// Empty until the first vector arrives (see [`HalfWindows::new`]).
    cur: Box<[u64]>,
    /// Empty until the first hop.
    prev: Box<[u64]>,
    planes: usize,
    limbs: usize,
    dim: usize,
    hop: usize,
    /// Vectors bundled into the current half.
    len: usize,
    has_prev: bool,
}

impl HalfWindows {
    /// Empty counters for `dim`-component vectors, `hop` per half window.
    /// The buffers are allocated on first use, so an encoder that has not
    /// streamed yet holds none.
    ///
    /// # Panics
    ///
    /// Panics if `dim` or `hop` is zero.
    pub fn new(dim: usize, hop: usize) -> Self {
        assert!(dim > 0, "dimension must be nonzero");
        assert!(hop > 0, "a half window holds at least one vector");
        HalfWindows {
            cur: Box::default(),
            prev: Box::default(),
            planes: bits(hop),
            limbs: limbs_for(dim),
            dim,
            hop,
            len: 0,
            has_prev: false,
        }
    }

    /// Vectors bundled into the current half so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the current half is still empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocates the current half's counters if this is their first use.
    #[inline]
    pub(crate) fn ready(&mut self) {
        if self.cur.is_empty() {
            self.cur = vec![0; self.planes * self.limbs].into_boxed_slice();
        }
    }

    /// Adds one vector to the current half.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ or the half already holds `hop`
    /// vectors.
    pub fn add(&mut self, v: &Hypervector) {
        assert_eq!(v.dim(), self.dim, "dimension mismatch");
        assert!(self.len < self.hop, "the half window is full");
        self.ready();
        for (at, &limb) in v.limbs().iter().enumerate() {
            self.put(at, limb);
        }
        self.len += 1;
    }

    /// Closes the current half. Returns the window vector
    /// `H = prev + cur > window/2` when a previous half exists, then makes
    /// the current half the previous one and starts an empty one.
    pub fn end_half(&mut self, window: usize) -> Option<Hypervector> {
        self.ready();
        let h = self.has_prev.then(|| self.window_vector(window / 2 + 1));
        std::mem::swap(&mut self.cur, &mut self.prev);
        // Still empty after the first hop; `ready` allocates it.
        self.cur.fill(0);
        self.len = 0;
        self.has_prev = true;
        h
    }

    /// Forgets both halves.
    pub fn clear(&mut self) {
        self.cur.fill(0);
        self.len = 0;
        self.has_prev = false;
    }

    /// `prev + cur ≥ t` per component.
    fn window_vector(&self, t: usize) -> Hypervector {
        let planes = self.planes;
        // The sum has one bit more than either half; compare it with `t`
        // as the carry out of `sum + (2^(planes+1) − t)`.
        let top = 1u128 << (planes + 1);
        let mut h = Hypervector::zero(self.dim);
        if t as u128 > top {
            return h;
        }
        let addend = top - t as u128;
        for (i, out) in h.limbs_mut().iter_mut().enumerate() {
            let mut sum_carry = 0u64;
            let mut ge = 0u64;
            for k in 0..planes {
                let (a, b) = (self.prev[k * self.limbs + i], self.cur[k * self.limbs + i]);
                let sum = a ^ b ^ sum_carry;
                sum_carry = (a & b) | (sum_carry & (a ^ b));
                ge = if (addend >> k) & 1 == 1 {
                    sum | ge
                } else {
                    sum & ge
                };
            }
            // The adder's carry out is the sum's top bit.
            *out = if (addend >> planes) & 1 == 1 {
                sum_carry | ge
            } else {
                sum_carry & ge
            };
        }
        h.mask_tail();
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hv::DenseAccumulator;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn bits_is_the_counter_width() {
        assert_eq!(bits(1), 1);
        assert_eq!(bits(2), 2);
        assert_eq!(bits(3), 2);
        assert_eq!(bits(12), 4);
        assert_eq!(bits(255), 8);
        assert_eq!(bits(256), 9);
    }

    #[test]
    fn every_tier_matches_the_dense_majority() {
        let mut rng = StdRng::seed_from_u64(5);
        for &(n, dim) in &[
            (1usize, 64usize),
            (2, 65),
            (12, 1000),
            (13, 333),
            (300, 129),
        ] {
            let electrodes = ItemMemory::new(n, dim, 1);
            let symbols = ItemMemory::new(64, dim, 2);
            let tie = Hypervector::random(dim, &mut rng);
            let codes: Vec<LbpCode> = (0..n).map(|_| rng.gen_range(0..64u8)).collect();
            for policy in [TiePolicy::ZeroOnTie, TiePolicy::TieBreakVector] {
                let mut dense = DenseAccumulator::new(dim);
                for (j, &c) in codes.iter().enumerate() {
                    dense.add_xor(electrodes.get(j), symbols.get(c as usize));
                }
                let want = dense.majority_with(policy, &tie);
                for tier in Tier::available() {
                    let got =
                        spatial_majority_at(tier, &electrodes, &symbols, &codes, policy, &tie);
                    assert_eq!(got, want, "{tier:?} n={n} dim={dim} {policy:?}");
                }
            }
        }
    }

    #[test]
    fn accumulate_adds_the_written_majority_at_every_tier() {
        let mut rng = StdRng::seed_from_u64(7);
        let hop = 5;
        for &(n, dim) in &[(1usize, 65usize), (12, 1000), (13, 10_000), (300, 257)] {
            let electrodes = ItemMemory::new(n, dim, 3);
            let symbols = ItemMemory::new(256, dim, 4);
            let tie = Hypervector::random(dim, &mut rng);
            for tier in Tier::available() {
                let kernel = SpatialKernel::new(tier, n);
                let mut fused = HalfWindows::new(dim, hop);
                let mut reference = HalfWindows::new(dim, hop);
                for _ in 0..3 {
                    for _ in 0..hop {
                        let codes: Vec<LbpCode> = (0..n).map(|_| rng.gen()).collect();
                        let bound = Bound {
                            electrodes: &electrodes,
                            symbols: &symbols,
                            codes: &codes,
                            tie: tie_limbs(TiePolicy::TieBreakVector, n, &tie),
                        };
                        kernel.accumulate(&bound, &mut fused);
                        let mut s = Hypervector::zero(dim);
                        kernel.write(&bound, s.limbs_mut());
                        reference.add(&s);
                    }
                    assert_eq!(fused.cur, reference.cur, "{tier:?} n={n} d={dim}");
                    assert_eq!(fused.end_half(2 * hop), reference.end_half(2 * hop));
                }
            }
        }
    }

    #[test]
    fn window_vector_thresholds_the_sum_of_both_halves() {
        let mut rng = StdRng::seed_from_u64(6);
        let (dim, hop) = (130, 7);
        let mut half = HalfWindows::new(dim, hop);
        let mut prev = DenseAccumulator::new(dim);
        let mut cur = DenseAccumulator::new(dim);
        for round in 0..4 {
            for _ in 0..hop {
                let v = Hypervector::random(dim, &mut rng);
                half.add(&v);
                cur.add(&v);
            }
            let h = half.end_half(2 * hop);
            if round == 0 {
                assert_eq!(h, None);
            } else {
                let mut both = prev.clone();
                both.merge(&cur);
                assert_eq!(h, Some(both.threshold(hop as u32 + 1)));
            }
            prev = std::mem::replace(&mut cur, DenseAccumulator::new(dim));
        }
    }
}
