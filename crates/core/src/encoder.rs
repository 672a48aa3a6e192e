//! The Laelaps HD encoder (paper §III-B, Fig. 1).
//!
//! For every input sample (one value per electrode) the encoder:
//!
//! 1. updates each electrode's streaming LBP extractor;
//! 2. binds each electrode vector to its current code vector and bundles
//!    across electrodes into the **spatial record**
//!    `S = [E1⊕C(1) + … + En⊕C(n)]`;
//! 3. accumulates `S` into the current half-window partial sum.
//!
//! Every `hop` samples (0.5 s) the current partial sum is combined with the
//! previous one, thresholded at half of the full 1 s window, and emitted as
//! the **temporal histogram vector** `H` — a holographic representation of
//! the LBP-code histogram across all electrodes for the last second.
//!
//! # The fused kernel
//!
//! Steps 2 and 3 run as one kernel per frame (`hv/bundle.rs`). It never
//! materialises `S` and allocates nothing per frame; the only allocation
//! is the `H` it returns at each hop:
//!
//! * **Spatial step.** The dimension is walked one register at a time: 8
//!   limbs (512 bits) under AVX-512, 4 under AVX2, one `u64` otherwise.
//!   For each register the `n` bound rows `E_j ⊕ C(code_j)` are added into
//!   `K = bits(n)` counter bit-planes held in registers — two electrodes at
//!   a time through a full adder into plane 0, whose carry ripples up. The
//!   planes are compared with `n/2 + 1` by the constant-addend carry chain
//!   (`count + 2^K − t` carries out of `K` bits iff `count ≥ t`).
//! * **Tie rule.** Under [`TiePolicy::ZeroOnTie`], and for odd `n`, a bit is
//!   set iff `count ≥ n/2 + 1`. Under [`TiePolicy::TieBreakVector`] with
//!   even `n`, the planes are also compared with `n/2`, and an exact tie
//!   takes the tie-break vector's bit:
//!   `S = (≥ n/2+1) | (tie & ≥ n/2)`.
//! * **Temporal step.** The register of spatial bits is ripple-added
//!   straight into the current half window's counters ([`HalfWindows`]):
//!   one flat, plane-major buffer of `bits(hop)` planes (plane `k` of limb
//!   `i` at `k · limbs + i`). The previous half is a second buffer of the
//!   same shape; at each hop `H = prev + cur > window/2` is computed by a
//!   plane adder feeding the same kind of comparator, the tail bits are
//!   masked, and the buffers swap.
//! * **Tiers.** [`Tier::detect`] picks the widest register the CPU has once,
//!   when the encoder is built, together with the plane count `K` (a const
//!   generic, so the planes stay in registers). The tiers share one kernel
//!   and differ only in register width; every tier is property-tested
//!   against [`DenseAccumulator`](crate::hv::DenseAccumulator).
//! * **Item memories in place.** The kernel reads each row straight from
//!   [`ItemMemory`] (`get(j).limbs()`). A flattened copy of the tables
//!   would duplicate IM1 and IM2 in every session — they are most of a
//!   session's state — while the kernel already reads each row
//!   sequentially, one register at a time.
//!
//! [`SpatialEncoder::encode`] runs the same kernel and writes `S` out
//! instead of accumulating it.

use crate::config::LaelapsConfig;
use crate::error::{LaelapsError, Result};
use crate::hv::{
    limbs_for, tie_limbs, Bound, HalfWindows, Hypervector, ItemMemory, SpatialKernel, TiePolicy,
    Tier,
};
use crate::lbp::{LbpCode, LbpExtractor};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed offset separating IM1 (codes) from IM2 (electrodes) and the
/// tie-break vector, all derived from the single model seed.
const IM1_SEED_OFFSET: u64 = 0x1B9_C0DE;
const IM2_SEED_OFFSET: u64 = 0x0E1E_C0DE;
const TIE_SEED_OFFSET: u64 = 0x71E_B17;

/// Stateless spatial encoder: maps one LBP code per electrode to the
/// spatial record `S`.
///
/// Owns the two item memories (IM1: codes, IM2: electrodes) and the fused
/// kernel instance picked for this CPU and electrode count. Reused by the
/// streaming [`Encoder`] and exposed separately for the GPU-simulator
/// cross-checks and for batch experiments.
#[derive(Debug, Clone)]
pub struct SpatialEncoder {
    im_codes: ItemMemory,
    im_electrodes: ItemMemory,
    /// The tie-break vector; drawn only under [`TiePolicy::TieBreakVector`].
    tie: Option<Hypervector>,
    kernel: SpatialKernel,
}

impl SpatialEncoder {
    /// Builds the item memories for `electrodes` channels from `config`.
    ///
    /// # Errors
    ///
    /// Returns [`LaelapsError::InvalidConfig`] if `electrodes` is zero.
    pub fn new(config: &LaelapsConfig, electrodes: usize) -> Result<Self> {
        if electrodes == 0 {
            return Err(LaelapsError::InvalidConfig {
                field: "electrodes",
                reason: "electrode count must be nonzero".into(),
            });
        }
        let im_codes = ItemMemory::new(
            config.symbol_count(),
            config.dim,
            config.seed.wrapping_add(IM1_SEED_OFFSET),
        );
        let im_electrodes = ItemMemory::new(
            electrodes,
            config.dim,
            config.seed.wrapping_add(IM2_SEED_OFFSET),
        );
        let tie = (config.tie_policy == TiePolicy::TieBreakVector).then(|| {
            let mut tie_rng = StdRng::seed_from_u64(config.seed.wrapping_add(TIE_SEED_OFFSET));
            Hypervector::random(config.dim, &mut tie_rng)
        });
        Ok(SpatialEncoder {
            im_codes,
            im_electrodes,
            tie,
            kernel: SpatialKernel::new(Tier::detect(), electrodes),
        })
    }

    /// Number of electrodes this encoder binds.
    pub fn electrodes(&self) -> usize {
        self.im_electrodes.len()
    }

    /// Hypervector dimension.
    pub fn dim(&self) -> usize {
        self.im_codes.dim()
    }

    /// The LBP-code item memory (IM1).
    pub fn code_memory(&self) -> &ItemMemory {
        &self.im_codes
    }

    /// The electrode item memory (IM2).
    pub fn electrode_memory(&self) -> &ItemMemory {
        &self.im_electrodes
    }

    /// Encodes one spatial record from the per-electrode LBP codes.
    ///
    /// # Panics
    ///
    /// Panics if `codes.len()` differs from the electrode count or a code
    /// is out of range for the configured ℓ.
    pub fn encode(&mut self, codes: &[LbpCode]) -> Hypervector {
        assert_eq!(
            codes.len(),
            self.im_electrodes.len(),
            "one LBP code per electrode required"
        );
        let n = limbs_for(self.dim());
        // A plain allocation filled in place: for these few-hundred-byte
        // blocks it costs about half of the zeroed allocation (calloc) that
        // `vec![0; n]` and `Hypervector::zero` ask for.
        #[allow(clippy::slow_vector_initialization)]
        let mut limbs = {
            let mut limbs = Vec::with_capacity(n);
            limbs.resize(n, 0);
            limbs
        };
        self.kernel.write(&self.bound(codes), &mut limbs);
        Hypervector::from_limbs(self.dim(), limbs).expect("the kernel keeps padding bits zero")
    }

    /// Bundles one spatial record straight into the current half window,
    /// without materialising it: the streaming encoder's per-frame step.
    fn bundle_into(&self, codes: &[LbpCode], half: &mut HalfWindows) {
        self.kernel.accumulate(&self.bound(codes), half);
    }

    fn bound<'a>(&'a self, codes: &'a [LbpCode]) -> Bound<'a> {
        Bound {
            electrodes: &self.im_electrodes,
            symbols: &self.im_codes,
            codes,
            tie: self
                .tie
                .as_ref()
                .and_then(|tie| tie_limbs(TiePolicy::TieBreakVector, codes.len(), tie)),
        }
    }
}

/// A temporal histogram vector with its window provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowVector {
    /// The encoded `H` vector.
    pub vector: Hypervector,
    /// Index of the last sample included in the window (0-based).
    pub end_sample: u64,
    /// Sequential index of this window (0-based).
    pub index: u64,
}

/// Streaming encoder producing one `H` vector per hop (0.5 s).
///
/// # Examples
///
/// ```
/// use laelaps_core::{Encoder, LaelapsConfig};
///
/// let config = LaelapsConfig::builder().dim(256).seed(1).build()?;
/// let mut enc = Encoder::new(&config, 4)?;
/// let mut produced = 0;
/// for t in 0..2000 {
///     let x = (t as f32 * 0.1).sin();
///     let frame = [x, -x, x * 0.5, 1.0 - x];
///     if enc.push_frame(&frame)?.is_some() {
///         produced += 1;
///     }
/// }
/// assert!(produced > 0);
/// # Ok::<(), laelaps_core::LaelapsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Encoder {
    spatial: SpatialEncoder,
    extractors: Vec<LbpExtractor>,
    codes: Vec<LbpCode>,
    half: HalfWindows,
    hop: usize,
    window: usize,
    samples_seen: u64,
    windows_emitted: u64,
}

impl Encoder {
    /// Creates a streaming encoder for `electrodes` channels.
    ///
    /// # Errors
    ///
    /// Returns [`LaelapsError::InvalidConfig`] if `electrodes` is zero or
    /// the configuration is invalid.
    pub fn new(config: &LaelapsConfig, electrodes: usize) -> Result<Self> {
        config.validate()?;
        let spatial = SpatialEncoder::new(config, electrodes)?;
        Ok(Encoder {
            spatial,
            extractors: (0..electrodes)
                .map(|_| LbpExtractor::new(config.lbp_len))
                .collect(),
            codes: vec![0; electrodes],
            half: HalfWindows::new(config.dim, config.hop_samples),
            hop: config.hop_samples,
            window: config.window_samples,
            samples_seen: 0,
            windows_emitted: 0,
        })
    }

    /// Number of electrodes.
    pub fn electrodes(&self) -> usize {
        self.extractors.len()
    }

    /// Hypervector dimension.
    pub fn dim(&self) -> usize {
        self.spatial.dim()
    }

    /// Total samples pushed so far.
    pub fn samples_seen(&self) -> u64 {
        self.samples_seen
    }

    /// Borrow the inner spatial encoder (item memories).
    pub fn spatial(&self) -> &SpatialEncoder {
        &self.spatial
    }

    /// Pushes one multichannel frame (one sample per electrode).
    ///
    /// Returns `Some(WindowVector)` whenever a full 1 s window (with 0.5 s
    /// overlap) completes — i.e. every `hop` samples after warm-up.
    ///
    /// # Errors
    ///
    /// Returns [`LaelapsError::ElectrodeMismatch`] if `frame.len()` differs
    /// from the electrode count.
    pub fn push_frame(&mut self, frame: &[f32]) -> Result<Option<WindowVector>> {
        if frame.len() != self.extractors.len() {
            return Err(LaelapsError::ElectrodeMismatch {
                expected: self.extractors.len(),
                got: frame.len(),
            });
        }
        self.samples_seen += 1;
        let mut warm = true;
        for (ex, (&x, code)) in self
            .extractors
            .iter_mut()
            .zip(frame.iter().zip(self.codes.iter_mut()))
        {
            match ex.push(x) {
                Some(c) => *code = c,
                None => warm = false,
            }
        }
        if !warm {
            // All extractors warm up simultaneously; nothing to encode yet.
            return Ok(None);
        }
        self.spatial.bundle_into(&self.codes, &mut self.half);
        if self.half.len() < self.hop {
            return Ok(None);
        }
        // Half-window boundary: combine with the previous half to form H,
        // a majority over the full window with ties to 0.
        let out = self.half.end_half(self.window).map(|vector| {
            let wv = WindowVector {
                vector,
                end_sample: self.samples_seen - 1,
                index: self.windows_emitted,
            };
            self.windows_emitted += 1;
            wv
        });
        Ok(out)
    }

    /// Encodes a whole multichannel signal and returns every `H` vector.
    ///
    /// `signal[j]` is electrode `j`'s sample vector; all must share one
    /// length.
    ///
    /// # Errors
    ///
    /// Returns [`LaelapsError::ElectrodeMismatch`] if `signal.len()` differs
    /// from the electrode count, or [`LaelapsError::InvalidConfig`] if the
    /// channels have unequal lengths.
    pub fn encode_signal(&mut self, signal: &[Vec<f32>]) -> Result<Vec<WindowVector>> {
        if signal.len() != self.extractors.len() {
            return Err(LaelapsError::ElectrodeMismatch {
                expected: self.extractors.len(),
                got: signal.len(),
            });
        }
        let len = signal.first().map_or(0, |ch| ch.len());
        if signal.iter().any(|ch| ch.len() != len) {
            return Err(LaelapsError::InvalidConfig {
                field: "signal",
                reason: "all electrode channels must have equal length".into(),
            });
        }
        let mut out = Vec::new();
        let mut frame = vec![0.0f32; signal.len()];
        for t in 0..len {
            for (j, ch) in signal.iter().enumerate() {
                frame[j] = ch[t];
            }
            if let Some(wv) = self.push_frame(&frame)? {
                out.push(wv);
            }
        }
        Ok(out)
    }

    /// Resets all streaming state (extractors, partial sums, counters).
    pub fn reset(&mut self) {
        for ex in &mut self.extractors {
            ex.reset();
        }
        self.half.clear();
        self.samples_seen = 0;
        self.windows_emitted = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hv::DenseAccumulator;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn test_config(dim: usize) -> LaelapsConfig {
        LaelapsConfig::builder().dim(dim).seed(7).build().unwrap()
    }

    fn random_signal(electrodes: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..electrodes)
            .map(|_| (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect()
    }

    #[test]
    fn window_cadence_matches_hop() {
        let config = test_config(128);
        let mut enc = Encoder::new(&config, 2).unwrap();
        let signal = random_signal(2, 512 * 3, 1);
        let windows = enc.encode_signal(&signal).unwrap();
        // First H needs warmup (7 samples) + 2 half-windows; afterwards one
        // H every 256 samples. 1536 samples → floor((1536-6)/256) = 5 halves
        // → 4 full windows.
        assert_eq!(windows.len(), 4);
        for w in windows.windows(2) {
            assert_eq!(w[1].end_sample - w[0].end_sample, 256);
            assert_eq!(w[1].index - w[0].index, 1);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let config = test_config(256);
        let signal = random_signal(3, 1400, 2);
        let mut e1 = Encoder::new(&config, 3).unwrap();
        let mut e2 = Encoder::new(&config, 3).unwrap();
        let w1 = e1.encode_signal(&signal).unwrap();
        let w2 = e2.encode_signal(&signal).unwrap();
        assert_eq!(w1, w2);
        assert!(!w1.is_empty());
    }

    #[test]
    fn different_seeds_give_different_encodings() {
        let signal = random_signal(3, 1400, 3);
        let c1 = LaelapsConfig::builder().dim(256).seed(1).build().unwrap();
        let c2 = LaelapsConfig::builder().dim(256).seed(2).build().unwrap();
        let w1 = Encoder::new(&c1, 3)
            .unwrap()
            .encode_signal(&signal)
            .unwrap();
        let w2 = Encoder::new(&c2, 3)
            .unwrap()
            .encode_signal(&signal)
            .unwrap();
        assert_ne!(w1[0].vector, w2[0].vector);
    }

    #[test]
    fn reset_reproduces_from_scratch() {
        let config = test_config(128);
        let signal = random_signal(2, 1200, 4);
        let mut enc = Encoder::new(&config, 2).unwrap();
        let first = enc.encode_signal(&signal).unwrap();
        enc.reset();
        let second = enc.encode_signal(&signal).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn rejects_wrong_frame_width() {
        let config = test_config(128);
        let mut enc = Encoder::new(&config, 4).unwrap();
        let err = enc.push_frame(&[0.0; 3]).unwrap_err();
        assert!(matches!(
            err,
            LaelapsError::ElectrodeMismatch {
                expected: 4,
                got: 3
            }
        ));
    }

    #[test]
    fn rejects_ragged_signal() {
        let config = test_config(128);
        let mut enc = Encoder::new(&config, 2).unwrap();
        let ragged = vec![vec![0.0; 100], vec![0.0; 99]];
        assert!(enc.encode_signal(&ragged).is_err());
    }

    #[test]
    fn similar_inputs_give_similar_h() {
        // Two windows of the same stationary process should be much closer
        // than windows from different processes.
        let config = test_config(2048);
        let mut enc = Encoder::new(&config, 4).unwrap();
        // Slow asymmetric sawtooth — ictal-like, highly regular.
        let saw: Vec<Vec<f32>> = (0..4)
            .map(|j| {
                (0..2048)
                    .map(|t| {
                        let phase = ((t + j * 3) % 128) as f32 / 128.0;
                        if phase < 0.8 {
                            phase
                        } else {
                            (1.0 - phase) * 4.0
                        }
                    })
                    .collect()
            })
            .collect();
        let ws = enc.encode_signal(&saw).unwrap();
        assert!(ws.len() >= 4);
        let noise = random_signal(4, 2048, 5);
        let mut enc2 = Encoder::new(&config, 4).unwrap();
        let wn = enc2.encode_signal(&noise).unwrap();
        let same = ws[1].vector.similarity(&ws[2].vector);
        let cross = ws[1].vector.similarity(&wn[2].vector);
        assert!(
            same > cross + 0.05,
            "same-state similarity {same} should exceed cross-state {cross}"
        );
    }

    #[test]
    fn spatial_encoder_is_permutation_sensitive() {
        // Binding electrode identity must make the record depend on *which*
        // electrode carries which code.
        let config = test_config(4096);
        let mut sp = SpatialEncoder::new(&config, 8).unwrap();
        let codes_a: Vec<u8> = (0..8).collect();
        let mut codes_b = codes_a.clone();
        codes_b.swap(0, 7);
        let sa = sp.encode(&codes_a);
        let sb = sp.encode(&codes_b);
        assert!(sa.similarity(&sb) < 0.95);
        let sa2 = sp.encode(&codes_a);
        assert_eq!(sa, sa2, "spatial encoding must be deterministic");
    }

    #[test]
    fn fused_push_frame_matches_the_dense_reference() {
        // The unfused composition the kernel replaces: S as a dense
        // majority, summed per half window in dense counters, and
        // H = prev + cur > window/2 at every hop.
        let dim = 300;
        for (electrodes, policy) in [
            (1, TiePolicy::ZeroOnTie),
            (4, TiePolicy::TieBreakVector),
            (12, TiePolicy::ZeroOnTie),
            (12, TiePolicy::TieBreakVector),
            (13, TiePolicy::TieBreakVector),
        ] {
            let config = LaelapsConfig::builder()
                .dim(dim)
                .seed(11)
                .tie_policy(policy)
                .build()
                .unwrap();
            let len = config.hop_samples * 5 + 20;
            let signal = random_signal(electrodes, len, electrodes as u64);
            let fused = Encoder::new(&config, electrodes)
                .unwrap()
                .encode_signal(&signal)
                .unwrap();

            let sp = SpatialEncoder::new(&config, electrodes).unwrap();
            let tie = sp.tie.clone().unwrap_or_else(|| Hypervector::zero(dim));
            let mut extractors: Vec<LbpExtractor> = (0..electrodes)
                .map(|_| LbpExtractor::new(config.lbp_len))
                .collect();
            let mut prev: Option<DenseAccumulator> = None;
            let mut cur = DenseAccumulator::new(dim);
            let mut want = Vec::new();
            for t in 0..len {
                let codes: Vec<Option<LbpCode>> = extractors
                    .iter_mut()
                    .zip(&signal)
                    .map(|(ex, ch)| ex.push(ch[t]))
                    .collect();
                let Some(codes) = codes.into_iter().collect::<Option<Vec<_>>>() else {
                    continue;
                };
                let mut s = DenseAccumulator::new(dim);
                for (j, &c) in codes.iter().enumerate() {
                    s.add_xor(
                        sp.electrode_memory().get(j),
                        sp.code_memory().get(c as usize),
                    );
                }
                cur.add(&s.majority_with(policy, &tie));
                if cur.len() as usize == config.hop_samples {
                    let half = std::mem::replace(&mut cur, DenseAccumulator::new(dim));
                    if let Some(mut both) = prev.replace(half.clone()) {
                        both.merge(&half);
                        want.push((both.threshold(config.window_samples as u32 / 2 + 1), t));
                    }
                }
            }
            assert_eq!(fused.len(), want.len());
            for (w, (vector, end)) in fused.iter().zip(&want) {
                assert_eq!(&w.vector, vector, "n={electrodes} {policy:?}");
                assert_eq!(w.end_sample, *end as u64);
            }
        }
    }

    #[test]
    fn spatial_encoder_single_electrode_is_pure_binding() {
        let config = test_config(512);
        let mut sp = SpatialEncoder::new(&config, 1).unwrap();
        let s = sp.encode(&[42]);
        let expected = sp.electrode_memory().get(0).xor(sp.code_memory().get(42));
        assert_eq!(s, expected);
    }
}
