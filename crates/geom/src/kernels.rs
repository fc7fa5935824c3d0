//! Monomorphized distance kernels over flat coordinate slices.
//!
//! [`crate::DistanceMetric::distance_coords`] is convenient but pays an enum
//! dispatch per call, and the Euclidean variant a `sqrt` per call.  The hot
//! loops (pivot assignment, Algorithm 3 scans, k-means) instead hoist one of
//! these kernels out of the loop and call it directly:
//!
//! * the plain kernels ([`euclidean`], [`manhattan`], [`chebyshev`]) compute
//!   exactly the same value as `distance_coords` — same left-to-right
//!   accumulation order, so results are bit-identical;
//! * [`squared_euclidean`] skips the `sqrt`, for argmin loops that only need
//!   the *ordering* of distances (`sqrt` is monotone);
//! * the `*_bounded` variants take an early exit as soon as the running
//!   partial sum proves the result can only be **≥ `bound`**: they return a
//!   value `≥ bound` in that case and the exact kernel value otherwise.  The
//!   partial sums accumulate in the same order as the plain kernels, so a
//!   bounded call that runs to completion returns a bit-identical value;
//! * the `*_batch` kernels rank one query against a whole block of rows per
//!   call (R-tree leaves, z-order windows).  They block rows, never
//!   dimensions, so each row's value is bit-identical to the plain kernel's
//!   on every CPU.
//!
//! Squared distances are safe wherever only comparisons *within* the squared
//! domain happen (argmin against a running best kept in the same domain).
//! They are **not** substituted where a distance meets a triangle-inequality
//! bound derived from true distances (the θ-window checks of Algorithm 3):
//! squaring a threshold and rooting a sum both round, so cross-domain
//! comparisons could flip at the last ulp.  See ARCHITECTURE.md.

/// A plain distance kernel: `f(a, b)` over equal-length coordinate slices.
pub type Kernel = fn(&[f64], &[f64]) -> f64;

/// An early-exit kernel: `f(a, b, bound)` returns a value `>= bound` as soon
/// as the result is proven to be at least `bound`, the exact value otherwise.
pub type BoundedKernel = fn(&[f64], &[f64], f64) -> f64;

/// A one-query-vs-many-rows kernel: `f(q, rows, dim, out)` where `rows` is a
/// flat row-major block of `out.len()` rows of `dim` coordinates (a
/// [`crate::CoordMatrix`] sub-slice) and `out[i]` receives the kernel value
/// of `(q, rows[i])`.  Every batch kernel is bit-identical, row for row, to
/// its scalar twin: rows are blocked, but each row still accumulates its
/// dimensions left to right.
pub type BatchKernel = fn(&[f64], &[f64], usize, &mut [f64]);

/// How many accumulation steps run between early-exit bound checks.  Checking
/// every element costs more than it saves at low dimensionality; a small
/// block keeps the check amortised while still cutting high-dimensional scans
/// short.
const CHECK_EVERY: usize = 8;

/// Squared Euclidean distance `Σ (aᵢ − bᵢ)²` — the L2 argmin workhorse.
///
/// # Panics
/// Panics in debug builds if the slices have different lengths.
#[inline]
pub fn squared_euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimensionality mismatch");
    let mut acc = 0.0;
    for i in 0..a.len() {
        let d = a[i] - b[i];
        acc += d * d;
    }
    acc
}

/// Euclidean distance (Equation 1 of the paper): `sqrt` of
/// [`squared_euclidean`].  Bit-identical to
/// `DistanceMetric::Euclidean.distance_coords`.
#[inline]
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    squared_euclidean(a, b).sqrt()
}

/// Manhattan (L1) distance `Σ |aᵢ − bᵢ|`.
#[inline]
pub fn manhattan(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimensionality mismatch");
    let mut acc = 0.0;
    for i in 0..a.len() {
        acc += (a[i] - b[i]).abs();
    }
    acc
}

/// Chebyshev (L∞) distance `max |aᵢ − bᵢ|`.
#[inline]
pub fn chebyshev(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimensionality mismatch");
    let mut acc = 0.0f64;
    for i in 0..a.len() {
        acc = acc.max((a[i] - b[i]).abs());
    }
    acc
}

// ---------------------------------------------------------------------------
// Batch (one query vs many rows) kernels
// ---------------------------------------------------------------------------

/// Expands to an 8-row-blocked batch kernel: rows are processed eight at a
/// time with the per-dimension loop innermost, so the eight per-row
/// accumulator chains are independent and the CPU (or the autovectorizer)
/// overlaps them.  Each row's *own* accumulation stays in plain dimension
/// order — cross-row blocking needs no reassociation — so every output slot
/// is bit-identical to the scalar `$scalar` kernel; the under-eight remainder
/// goes through `$scalar` directly.
macro_rules! row_blocked_batch {
    ($q:ident, $rows:ident, $dim:ident, $out:ident, $scalar:ident,
     |$qd:ident, $x:ident, $acc:ident| $step:expr) => {{
        assert_eq!($q.len(), $dim, "query dimensionality mismatch");
        assert_eq!($rows.len(), $dim * $out.len(), "ragged batch block");
        if $dim == 0 {
            // Zero-dimensional rows are all at distance 0, as the scalar
            // kernels report (and `chunks_exact` rejects a zero chunk).
            $out.fill(0.0);
            return;
        }
        const BLOCK: usize = 8;
        let mut blocks = $rows.chunks_exact(BLOCK * $dim);
        let mut slots = $out.chunks_exact_mut(BLOCK);
        for (block, slot) in blocks.by_ref().zip(slots.by_ref()) {
            // One subslice per row so the inner loads are provably in
            // bounds (`d < dim = row.len()`): the bounds checks vanish and
            // the 8 accumulator chains stay independent.
            let rows_in_block: [&[f64]; BLOCK] =
                core::array::from_fn(|r| &block[r * $dim..(r + 1) * $dim]);
            let mut acc = [0.0f64; BLOCK];
            for d in 0..$dim {
                let $qd = $q[d];
                for r in 0..BLOCK {
                    let $x = rows_in_block[r][d];
                    let $acc = &mut acc[r];
                    $step;
                }
            }
            slot.copy_from_slice(&acc);
        }
        for (row, slot) in blocks
            .remainder()
            .chunks_exact($dim)
            .zip(slots.into_remainder())
        {
            *slot = $scalar($q, row);
        }
    }};
}

/// Squared Euclidean ranks of `q` against every row of a flat row-major
/// coordinate block: `out[i] = Σ_d (q[d] − rows[i·dim + d])²`, bit-identical
/// to [`squared_euclidean`] on each row.  One call streams a whole block
/// through eight independent accumulator chains instead of paying a call and
/// a serial dependency chain per row.
///
/// # Panics
/// Panics if `q.len() != dim` or `rows.len() != dim * out.len()`.
#[inline]
pub fn squared_euclidean_batch(q: &[f64], rows: &[f64], dim: usize, out: &mut [f64]) {
    row_blocked_batch!(q, rows, dim, out, squared_euclidean, |qd, x, acc| {
        let d = qd - x;
        *acc += d * d;
    });
}

/// Euclidean distances of `q` against every row: [`squared_euclidean_batch`]
/// followed by a vectorizable `sqrt` sweep over `out`, bit-identical to
/// [`euclidean`] on each row.
#[inline]
pub fn euclidean_batch(q: &[f64], rows: &[f64], dim: usize, out: &mut [f64]) {
    squared_euclidean_batch(q, rows, dim, out);
    for v in out.iter_mut() {
        *v = v.sqrt();
    }
}

/// Manhattan ranks (= distances) of `q` against every row of a flat block,
/// bit-identical to [`manhattan`] on each row.
#[inline]
pub fn manhattan_batch(q: &[f64], rows: &[f64], dim: usize, out: &mut [f64]) {
    row_blocked_batch!(q, rows, dim, out, manhattan, |qd, x, acc| {
        *acc += (qd - x).abs();
    });
}

/// Chebyshev ranks (= distances) of `q` against every row of a flat block,
/// bit-identical to [`chebyshev`] on each row.
#[inline]
pub fn chebyshev_batch(q: &[f64], rows: &[f64], dim: usize, out: &mut [f64]) {
    row_blocked_batch!(q, rows, dim, out, chebyshev, |qd, x, acc| {
        *acc = (*acc).max((qd - x).abs());
    });
}

// ---------------------------------------------------------------------------
// Dimension-aware early-exit cadence
// ---------------------------------------------------------------------------

/// The `*_bounded` check cadence suited to `dim`, picked once at kernel-hoist
/// time: `0` means "never check" below 96 dims, 16 beyond.  Measured (see the
/// `bounded_cadence` bench group): up to ~48 dims completing the row through
/// the branchless plain kernel beats any early exit — the exit branch
/// mispredicts whenever the bound is neither trivially tight nor trivially
/// loose, costing more than the arithmetic it saves — break-even sits near
/// 96 dims, and very wide rows gain a few percent from a rare cadence-16
/// check.  Completed results are bit-identical across cadences — the cadence
/// only decides *where* the partial sum is compared against the bound, never
/// the accumulation order.
pub fn bounded_check_cadence(dim: usize) -> usize {
    match dim {
        0..=95 => 0,
        _ => 16,
    }
}

macro_rules! bounded_cadence_kernels {
    ($plain:ident, $cadence16:ident, $unchecked:ident, |$x:ident, $y:ident, $acc:ident| $step:expr) => {
        /// Cadence-16 variant of the bounded kernel, for wide rows (see
        /// [`bounded_check_cadence`]).  Same contract: exact (bit-identical
        /// to the plain kernel) when not cut short, `≥ bound` otherwise.
        #[inline]
        pub fn $cadence16(a: &[f64], b: &[f64], bound: f64) -> f64 {
            debug_assert_eq!(a.len(), b.len(), "dimensionality mismatch");
            let n = a.len();
            const CADENCE: usize = 16;
            if n <= CADENCE {
                return $plain(a, b);
            }
            let mut $acc = 0.0f64;
            let mut i = 0;
            while n - i > CADENCE {
                for k in 0..CADENCE {
                    let $x = a[i + k];
                    let $y = b[i + k];
                    $step;
                }
                i += CADENCE;
                if $acc >= bound {
                    return $acc;
                }
            }
            while i < n {
                let $x = a[i];
                let $y = b[i];
                $step;
                i += 1;
            }
            $acc
        }

        /// Bound-ignoring adapter with the [`BoundedKernel`] signature, for
        /// dimensionalities where checking is never worth the branch.
        #[inline]
        pub fn $unchecked(a: &[f64], b: &[f64], _bound: f64) -> f64 {
            $plain(a, b)
        }
    };
}

bounded_cadence_kernels!(
    squared_euclidean,
    squared_euclidean_bounded_wide,
    squared_euclidean_unchecked,
    |x, y, acc| {
        let d = x - y;
        acc += d * d;
    }
);
bounded_cadence_kernels!(
    manhattan,
    manhattan_bounded_wide,
    manhattan_unchecked,
    |x, y, acc| acc += (x - y).abs()
);
bounded_cadence_kernels!(
    chebyshev,
    chebyshev_bounded_wide,
    chebyshev_unchecked,
    |x, y, acc| acc = acc.max((x - y).abs())
);

/// [`squared_euclidean`] with an early exit once the partial sum reaches
/// `bound` (partial sums of squares only grow).  Short rows skip the bound
/// checks entirely — at low dimensionality a check per element costs more
/// than the arithmetic it might save.
#[inline]
pub fn squared_euclidean_bounded(a: &[f64], b: &[f64], bound: f64) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimensionality mismatch");
    let n = a.len();
    if n <= CHECK_EVERY {
        return squared_euclidean(a, b);
    }
    let mut acc = 0.0;
    let mut i = 0;
    while n - i > CHECK_EVERY {
        for k in 0..CHECK_EVERY {
            let d = a[i + k] - b[i + k];
            acc += d * d;
        }
        i += CHECK_EVERY;
        if acc >= bound {
            return acc;
        }
    }
    while i < n {
        let d = a[i] - b[i];
        acc += d * d;
        i += 1;
    }
    acc
}

/// [`manhattan`] with an early exit once the partial sum reaches `bound`.
#[inline]
pub fn manhattan_bounded(a: &[f64], b: &[f64], bound: f64) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimensionality mismatch");
    let n = a.len();
    if n <= CHECK_EVERY {
        return manhattan(a, b);
    }
    let mut acc = 0.0;
    let mut i = 0;
    while n - i > CHECK_EVERY {
        for k in 0..CHECK_EVERY {
            acc += (a[i + k] - b[i + k]).abs();
        }
        i += CHECK_EVERY;
        if acc >= bound {
            return acc;
        }
    }
    while i < n {
        acc += (a[i] - b[i]).abs();
        i += 1;
    }
    acc
}

/// [`chebyshev`] with an early exit once the running maximum reaches `bound`.
#[inline]
pub fn chebyshev_bounded(a: &[f64], b: &[f64], bound: f64) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimensionality mismatch");
    let n = a.len();
    if n <= CHECK_EVERY {
        return chebyshev(a, b);
    }
    let mut acc = 0.0f64;
    let mut i = 0;
    while n - i > CHECK_EVERY {
        for k in 0..CHECK_EVERY {
            acc = acc.max((a[i + k] - b[i + k]).abs());
        }
        i += CHECK_EVERY;
        if acc >= bound {
            return acc;
        }
    }
    while i < n {
        acc = acc.max((a[i] - b[i]).abs());
        i += 1;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DistanceMetric;
    use proptest::prelude::*;

    #[test]
    fn hand_computed_values() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert_eq!(squared_euclidean(&a, &b), 25.0);
        assert_eq!(euclidean(&a, &b), 5.0);
        assert_eq!(manhattan(&a, &b), 7.0);
        assert_eq!(chebyshev(&a, &b), 4.0);
        // Zero-dimensional rows sit at distance 0, in batch as in scalar.
        let mut out = [1.0; 3];
        squared_euclidean_batch(&[], &[], 0, &mut out);
        assert_eq!(out, [0.0; 3]);
    }

    #[test]
    fn cadence_tracks_dimensionality() {
        assert_eq!(bounded_check_cadence(2), 0);
        assert_eq!(bounded_check_cadence(10), 0);
        assert_eq!(bounded_check_cadence(48), 0);
        assert_eq!(bounded_check_cadence(95), 0);
        assert_eq!(bounded_check_cadence(96), 16);
        assert_eq!(bounded_check_cadence(384), 16);
    }

    #[test]
    fn bounded_variants_report_at_least_bound_when_exceeding() {
        // 16 dims so the early exit actually triggers mid-scan.
        let a: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let b = vec![100.0; 16];
        for (full, bounded) in [
            (
                squared_euclidean as Kernel,
                squared_euclidean_bounded as BoundedKernel,
            ),
            (manhattan as Kernel, manhattan_bounded as BoundedKernel),
            (chebyshev as Kernel, chebyshev_bounded as BoundedKernel),
        ] {
            let exact = full(&a, &b);
            for bound in [exact / 16.0, exact / 2.0, exact] {
                assert!(bounded(&a, &b, bound) >= bound);
            }
        }
    }

    proptest! {
        /// The kernels must agree with `DistanceMetric::distance_coords`
        /// *exactly* (same accumulation order ⇒ same bits), which is far
        /// stronger than the 1e-12 agreement the hot paths rely on.
        #[test]
        fn kernels_agree_with_distance_coords(
            a in proptest::collection::vec(-1e3f64..1e3, 1..24),
            b in proptest::collection::vec(-1e3f64..1e3, 1..24),
        ) {
            let n = a.len().min(b.len());
            let (a, b) = (&a[..n], &b[..n]);
            prop_assert_eq!(
                euclidean(a, b).to_bits(),
                DistanceMetric::Euclidean.distance_coords(a, b).to_bits()
            );
            prop_assert_eq!(
                manhattan(a, b).to_bits(),
                DistanceMetric::Manhattan.distance_coords(a, b).to_bits()
            );
            prop_assert_eq!(
                chebyshev(a, b).to_bits(),
                DistanceMetric::Chebyshev.distance_coords(a, b).to_bits()
            );
            prop_assert_eq!(
                squared_euclidean(a, b).sqrt().to_bits(),
                euclidean(a, b).to_bits()
            );
        }

        /// The cadence-16 and unchecked bounded variants keep the bounded
        /// contract: bit-identical to the plain kernel when not cut short,
        /// `≥ bound` otherwise — for every cadence the dimension-aware
        /// selection can pick.
        #[test]
        fn cadence_variants_keep_the_bounded_contract(
            a in proptest::collection::vec(-1e3f64..1e3, 1..40),
            b in proptest::collection::vec(-1e3f64..1e3, 1..40),
            frac in 0.0f64..2.0,
        ) {
            let n = a.len().min(b.len());
            let (a, b) = (&a[..n], &b[..n]);
            for (full, bounded) in [
                (squared_euclidean as Kernel, squared_euclidean_bounded_wide as BoundedKernel),
                (squared_euclidean as Kernel, squared_euclidean_unchecked as BoundedKernel),
                (manhattan as Kernel, manhattan_bounded_wide as BoundedKernel),
                (manhattan as Kernel, manhattan_unchecked as BoundedKernel),
                (chebyshev as Kernel, chebyshev_bounded_wide as BoundedKernel),
                (chebyshev as Kernel, chebyshev_unchecked as BoundedKernel),
            ] {
                let exact = full(a, b);
                let loose = bounded(a, b, exact * 2.0 + 1.0);
                prop_assert_eq!(loose.to_bits(), exact.to_bits());
                let got = bounded(a, b, exact * frac);
                if got < exact * frac {
                    prop_assert_eq!(got.to_bits(), exact.to_bits());
                }
            }
        }

        /// A bounded kernel that is not cut short returns the exact value,
        /// bit for bit; one with a lower bound never under-reports it.
        #[test]
        fn bounded_kernels_are_exact_or_prove_the_bound(
            a in proptest::collection::vec(-1e3f64..1e3, 1..24),
            b in proptest::collection::vec(-1e3f64..1e3, 1..24),
            frac in 0.0f64..2.0,
        ) {
            let n = a.len().min(b.len());
            let (a, b) = (&a[..n], &b[..n]);
            for (full, bounded) in [
                (squared_euclidean as Kernel, squared_euclidean_bounded as BoundedKernel),
                (manhattan as Kernel, manhattan_bounded as BoundedKernel),
                (chebyshev as Kernel, chebyshev_bounded as BoundedKernel),
            ] {
                let exact = full(a, b);
                let loose = bounded(a, b, exact * 2.0 + 1.0);
                prop_assert_eq!(loose.to_bits(), exact.to_bits());
                let got = bounded(a, b, exact * frac);
                if got < exact * frac {
                    prop_assert_eq!(got.to_bits(), exact.to_bits());
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Every batch kernel is bit-identical to its scalar twin on every
        /// row, for every metric, every dimensionality in 1..=17 and every
        /// row count in 0..=19 — whole 8-row blocks and every remainder.
        /// Each block is checked twice, the second time rotated by one row,
        /// so every row is also ranked from another offset in its block.
        #[test]
        fn batch_kernels_are_bit_identical_to_their_scalar_twins(
            seed in proptest::collection::vec(-1e3f64..1e3, 400),
        ) {
            // Turn the uniform seed adversarial deterministically: mixed
            // magnitudes, exact zeros and subnormals in one summation.
            let take = |offset: usize, n: usize| -> Vec<f64> {
                (0..n)
                    .map(|i| {
                        let v = seed[(offset + i) % seed.len()];
                        match i % 4 {
                            0 => v * 1e5,
                            1 => v * 1e-305,
                            2 => 0.0,
                            _ => v,
                        }
                    })
                    .collect()
            };
            let mut pairs: Vec<(BatchKernel, Kernel)> = [
                DistanceMetric::Euclidean,
                DistanceMetric::Manhattan,
                DistanceMetric::Chebyshev,
            ]
            .iter()
            .map(|m| (m.batch_rank_kernel(), m.rank_kernel()))
            .collect();
            pairs.push((euclidean_batch, euclidean));
            for dim in 1..=17 {
                let q = take(0, dim);
                for rows in 0..=19 {
                    let block = take(dim, dim * rows);
                    let mut rotated = block.clone();
                    if rows > 0 {
                        rotated.rotate_left(dim);
                    }
                    let mut out = vec![0.0f64; rows];
                    let mut out_rotated = vec![0.0f64; rows];
                    for &(batch, scalar) in &pairs {
                        batch(&q, &block, dim, &mut out);
                        batch(&q, &rotated, dim, &mut out_rotated);
                        for (i, row) in block.chunks_exact(dim).enumerate() {
                            let want = scalar(&q, row).to_bits();
                            prop_assert_eq!(out[i].to_bits(), want, "dim {dim} rows {rows} row {i}");
                            prop_assert_eq!(
                                out_rotated[(i + rows - 1) % rows].to_bits(),
                                want,
                                "dim {dim} rows {rows} row {i} rotated"
                            );
                        }
                    }
                }
            }
        }
    }
}
