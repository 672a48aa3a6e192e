//! Hyperdimensional (HD) computing primitives.
//!
//! This module implements the binary HD arithmetic the Laelaps paper builds
//! on (§II-B): bit-packed [`Hypervector`]s with XOR *binding* and Hamming
//! similarity, majority-rule *bundling* via [`DenseAccumulator`] /
//! [`BitSliceAccumulator`], and seeded [`ItemMemory`] tables of atomic
//! vectors.
//!
//! The streaming encoder bundles with a fused, SIMD-dispatched kernel
//! instead (see [`crate::encoder`]): it reads the item-memory rows in
//! place and adds each frame's spatial majority straight into bit-sliced
//! [`HalfWindows`], at the register width [`Tier::detect`] picks. The two
//! accumulators above are its reference oracles.
//!
//! # Examples
//!
//! Binding and bundling, end to end:
//!
//! ```
//! use laelaps_core::hv::{BitSliceAccumulator, ItemMemory};
//!
//! let codes = ItemMemory::new(64, 2000, 1); // IM1: one vector per LBP code
//! let elecs = ItemMemory::new(4, 2000, 2);  // IM2: one vector per electrode
//!
//! // Spatial record S = [E1⊕C(1) + E2⊕C(2) + E3⊕C(3) + E4⊕C(4)].
//! let mut acc = BitSliceAccumulator::new(2000);
//! for (e, code) in [(0, 13usize), (1, 13), (2, 40), (3, 63)] {
//!     acc.add_xor(elecs.get(e), codes.get(code));
//! }
//! let s = acc.majority();
//! assert_eq!(s.dim(), 2000);
//! ```

mod accum;
mod bundle;
mod item_memory;
mod vector;

pub use accum::{BitSliceAccumulator, DenseAccumulator, TiePolicy};
#[doc(hidden)]
pub use bundle::spatial_majority_at;
pub(crate) use bundle::{tie_limbs, Bound, SpatialKernel};
pub use bundle::{HalfWindows, Tier};
pub use item_memory::ItemMemory;
pub use vector::{limbs_for, Hypervector, LIMB_BITS};
