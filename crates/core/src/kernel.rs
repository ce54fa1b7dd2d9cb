//! Precision-aware inference kernels: the frozen serving path.
//!
//! Training wants gradients; serving wants throughput. [`DeepSets`] keeps
//! its weights inside [`setlearn_nn::ParamBuf`]s and its scalar
//! `predict_batch` path allocates fresh [`setlearn_nn::Matrix`] values per
//! layer per call, plus the encoder's per-table intermediates. A
//! [`FrozenModel`] is extracted once at load time instead:
//!
//! * embedding tables re-laid-out for contiguous per-position access — the
//!   compressed encoder gathers each sub-table directly into its column
//!   block of the encoded row (no `hconcat`, no per-table matrices);
//! * f32 dense layers run [`setlearn_nn::gemm::gemm`], the one
//!   register-tiled, ISA-dispatched forward GEMM that training runs too —
//!   so frozen f32 is bit-identical to the training path by construction;
//! * per-thread reusable scratch arenas, so steady-state serving allocates
//!   nothing per batch beyond the output vector.
//!
//! On top of the layout sits the precision choice ([`Precision`]): `f32`
//! keeps the training weights bit-for-bit, and `q8` serves embeddings as
//! per-row affine `u8` codes and dense layers as per-column symmetric `i8`
//! codes with dynamically quantized `u8` inputs — an exact integer
//! accumulation finished in f32. A q8 layer takes its
//! input rows in blocks of four: it quantizes each row once, then one pass
//! over the packed weights feeds every row of the block (AVX-512 VNNI
//! `vpdpbusd` with 4 rows × 4 column blocks of accumulators where
//! available; the same integer dots as portable loops, compiled for AVX2
//! where that is the widest the host has). The integer sums are exact, so
//! q8 scores are bit-identical on every ISA and do not depend on which rows
//! share a block. The ISA items ([`KernelIsa`], [`kernel_isa`], …) live in
//! `setlearn-nn` and are re-exported here.

use crate::compress::CompressionSpec;
use crate::model::{pool_rows, DeepSets, Pooling};
use serde::{Deserialize, Serialize};
use setlearn_nn::hash_embedding::hash_bucket;
use setlearn_nn::{Activation, Dense};
use std::cell::RefCell;
use std::fmt;
use std::str::FromStr;

pub use setlearn_nn::gemm::{detect_kernel_isa, kernel_isa, set_kernel_isa, KernelIsa};
use setlearn_nn::gemm::{gemm, ACC_BLOCKS, KERNEL_BLOCK};

/// Numeric precision a structure serves at: the
/// [`DeepSetsConfig::precision`](crate::model::DeepSetsConfig::precision)
/// it is built with, recorded in the checkpoint's model config; every
/// reader serves at the recorded value.
/// Serialized by variant name (`"F32"`/`"Q8"`) in JSON checkpoints;
/// the CLI-facing [`FromStr`]/[`fmt::Display`] forms are lowercase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum Precision {
    /// Serve the training weights unchanged. Bit-identical to the scalar
    /// reference path.
    #[default]
    F32,
    /// 8-bit weights: embeddings as per-row affine `u8` codes, dense layers
    /// as per-column symmetric `i8` codes driven by dynamically quantized
    /// `u8` inputs through an exact integer accumulation, finished in f32
    /// (biases stay f32). Quarter-size weights, and the dense hot loop does
    /// four multiply-adds per byte lane.
    Q8,
}

/// The refusal of a checkpoint naming the retired f16 (JSON `"F16"`):
/// serving it at f32 would move its answers without notice.
pub(crate) const F16_REMOVED: &str =
    "precision f16 was removed; retrain with `train --precision f32|q8`";

impl Precision {
    /// All precisions, in ascending compression order.
    pub const ALL: [Precision; 2] = [Precision::F32, Precision::Q8];
}

impl Deserialize for Precision {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        match v.as_str() {
            Some("F32") => Ok(Precision::F32),
            Some("Q8") => Ok(Precision::Q8),
            Some("F16") => Err(serde::Error::custom(F16_REMOVED)),
            _ => Err(serde::Error::custom(format!("unknown precision {v:?} (expected F32 or Q8)"))),
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Precision::F32 => "f32",
            Precision::Q8 => "q8",
        })
    }
}

impl FromStr for Precision {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "f32" => Ok(Precision::F32),
            "q8" => Ok(Precision::Q8),
            other => Err(format!("unknown precision '{other}' (expected f32 or q8)")),
        }
    }
}

/// An embedding table frozen at a given precision, row-major `rows x dim`.
#[derive(Debug, Clone)]
enum FrozenTable {
    /// Full-precision rows.
    F32(Vec<f32>),
    /// Per-row affine codes: `value = min[r] + scale[r] * q[r*dim + j]`.
    Q8 { q: Vec<u8>, scale: Vec<f32>, min: Vec<f32> },
}

impl FrozenTable {
    fn freeze(values: &[f32], rows: usize, dim: usize, precision: Precision) -> FrozenTable {
        debug_assert_eq!(values.len(), rows * dim);
        match precision {
            Precision::F32 => FrozenTable::F32(values.to_vec()),
            Precision::Q8 => {
                let mut q = Vec::with_capacity(values.len());
                let mut scale = Vec::with_capacity(rows);
                let mut min = Vec::with_capacity(rows);
                for row in values.chunks_exact(dim.max(1)) {
                    let (lo, s, inv) = affine_params(row);
                    min.push(lo);
                    scale.push(s);
                    for &v in row {
                        q.push((((v - lo) * inv).round()).clamp(0.0, 255.0) as u8);
                    }
                }
                FrozenTable::Q8 { q, scale, min }
            }
        }
    }

    /// Copies row `r` into `dst` (`dst.len() == dim`), dequantizing if needed.
    #[inline]
    fn copy_row(&self, r: usize, dim: usize, dst: &mut [f32]) {
        match self {
            FrozenTable::F32(v) => dst.copy_from_slice(&v[r * dim..(r + 1) * dim]),
            FrozenTable::Q8 { q, scale, min } => {
                let (m, s) = (min[r], scale[r]);
                for (o, &b) in dst.iter_mut().zip(&q[r * dim..(r + 1) * dim]) {
                    *o = m + s * b as f32;
                }
            }
        }
    }

    /// Adds row `r` into `dst` — the hashed encoder's probe accumulation.
    #[inline]
    fn add_row(&self, r: usize, dim: usize, dst: &mut [f32]) {
        match self {
            FrozenTable::F32(v) => {
                for (o, &x) in dst.iter_mut().zip(&v[r * dim..(r + 1) * dim]) {
                    *o += x;
                }
            }
            FrozenTable::Q8 { q, scale, min } => {
                let (m, s) = (min[r], scale[r]);
                for (o, &b) in dst.iter_mut().zip(&q[r * dim..(r + 1) * dim]) {
                    *o += m + s * b as f32;
                }
            }
        }
    }

    fn size_bytes(&self) -> usize {
        match self {
            FrozenTable::F32(v) => v.len() * 4,
            FrozenTable::Q8 { q, scale, min } => q.len() + (scale.len() + min.len()) * 4,
        }
    }
}

/// Per-row affine quantization parameters: `(min, scale, 1/scale)`.
fn affine_params(row: &[f32]) -> (f32, f32, f32) {
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &v in row {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if !lo.is_finite() || !hi.is_finite() {
        // Degenerate (empty or non-finite) row: encode as all-zero codes.
        return (if lo.is_finite() { lo } else { 0.0 }, 0.0, 0.0);
    }
    let scale = (hi - lo) / 255.0;
    if scale > 0.0 {
        (lo, scale, 1.0 / scale)
    } else {
        (lo, 0.0, 0.0) // constant row
    }
}

/// The element encoder re-laid-out for contiguous gathering.
#[derive(Debug, Clone)]
enum FrozenEncoder {
    /// One `vocab x dim` table.
    Plain { vocab: usize, dim: usize, table: FrozenTable },
    /// One table per sub-element position; table `i` fills columns
    /// `[i*dim, (i+1)*dim)` of the encoded row directly.
    Compressed { spec: CompressionSpec, dim: usize, tables: Vec<(usize, FrozenTable)> },
    /// One bucket table addressed through seeded probes; a row is the sum of
    /// its probed bucket rows, accumulated in probe order.
    Hashed { buckets: usize, dim: usize, seeds: Vec<u64>, table: FrozenTable },
}

impl FrozenEncoder {
    fn freeze(encoder: &crate::encoder::ElementEncoder, precision: Precision) -> FrozenEncoder {
        use crate::encoder::ElementEncoder;
        match encoder {
            ElementEncoder::Plain(e) => FrozenEncoder::Plain {
                vocab: e.vocab(),
                dim: e.dim(),
                table: FrozenTable::freeze(&e.params()[0].value, e.vocab(), e.dim(), precision),
            },
            ElementEncoder::Compressed { spec, tables } => FrozenEncoder::Compressed {
                spec: spec.clone(),
                dim: tables[0].dim(),
                tables: tables
                    .iter()
                    .map(|t| {
                        (
                            t.vocab(),
                            FrozenTable::freeze(&t.params()[0].value, t.vocab(), t.dim(), precision),
                        )
                    })
                    .collect(),
            },
            ElementEncoder::Hashed(h) => FrozenEncoder::Hashed {
                buckets: h.buckets(),
                dim: h.dim(),
                seeds: h.seeds().to_vec(),
                table: FrozenTable::freeze(&h.params()[0].value, h.buckets(), h.dim(), precision),
            },
        }
    }

    fn out_dim(&self) -> usize {
        match self {
            FrozenEncoder::Plain { dim, .. } => *dim,
            FrozenEncoder::Compressed { spec, dim, .. } => spec.ns * dim,
            FrozenEncoder::Hashed { dim, .. } => *dim,
        }
    }

    /// Encodes the flat id batch into `out` (`ids.len() x out_dim`,
    /// row-major). `sub` is reusable scratch for sub-element decomposition.
    fn encode(&self, ids: &[u32], sub: &mut Vec<u32>, out: &mut Vec<f32>) {
        let width = self.out_dim();
        out.clear();
        out.resize(ids.len() * width, 0.0);
        match self {
            FrozenEncoder::Plain { vocab, dim, table } => {
                for (row, &id) in out.chunks_exact_mut(*dim).zip(ids) {
                    let id = id as usize;
                    assert!(id < *vocab, "embedding id {id} out of vocab {vocab}");
                    table.copy_row(id, *dim, row);
                }
            }
            FrozenEncoder::Compressed { spec, dim, tables } => {
                for (row, &id) in out.chunks_exact_mut(width).zip(ids) {
                    spec.compress_into(id, sub);
                    for (i, (&s, (vocab, table))) in sub.iter().zip(tables).enumerate() {
                        let s = s as usize;
                        assert!(s < *vocab, "embedding id {s} out of vocab {vocab}");
                        table.copy_row(s, *dim, &mut row[i * dim..(i + 1) * dim]);
                    }
                }
            }
            FrozenEncoder::Hashed { buckets, dim, seeds, table } => {
                for (row, &id) in out.chunks_exact_mut(*dim).zip(ids) {
                    for &seed in seeds {
                        table.add_row(hash_bucket(id, seed, *buckets), *dim, row);
                    }
                }
            }
        }
    }

    fn size_bytes(&self) -> usize {
        match self {
            FrozenEncoder::Plain { table, .. } => table.size_bytes(),
            FrozenEncoder::Compressed { tables, .. } => {
                tables.iter().map(|(_, t)| t.size_bytes()).sum()
            }
            FrozenEncoder::Hashed { table, seeds, .. } => table.size_bytes() + seeds.len() * 8,
        }
    }
}

/// Dense-layer weights frozen at a given precision, `[in x out]` row-major
/// (one row per *input* feature — the hot loop streams whole rows).
#[derive(Debug, Clone)]
enum FrozenWeights {
    /// Full-precision rows.
    F32(Vec<f32>),
    /// Per-column symmetric `i8` codes packed for integer dot products.
    Q8(PackedQ8),
}

/// Dense weights quantized per *output column* (symmetric, `i8`) and packed
/// as `[k4][out][4]`: quad `t` of input features holds, for every column
/// `j`, the four consecutive codes `q[4t..4t+4][j]`. That is exactly the
/// operand layout of AVX-512 VNNI's `vpdpbusd` (16 columns × 4 input bytes
/// per 512-bit lane group), and the portable path walks the same quads.
///
/// Inputs are quantized dynamically per row to asymmetric `u8` with scale
/// `sx` and zero-point `z` (`x ≈ sx·(qx − z)`), so
/// `y_j = scale[j]·sx·(Σ_k qx_k·qw_kj − z·colsum[j]) + bias_j`
/// with the whole reduction carried exactly in `i32` — every ISA produces
/// bitwise-identical q8 scores.
#[derive(Debug, Clone)]
struct PackedQ8 {
    /// `k4 * out * 4` codes, `[k4][out][4]`; input quads past `in_dim` are
    /// zero so zero-point-padded inputs contribute nothing.
    pack: Vec<i8>,
    /// Per-column dequantization scale `max_k |w[k][j]| / 127`.
    scale: Vec<f32>,
    /// Per-column code sums `Σ_k qw[k][j]`, the zero-point correction term.
    colsum: Vec<i32>,
    /// Input-feature quads: `ceil(in_dim / 4)`.
    k4: usize,
}

impl PackedQ8 {
    fn pack(w: &[f32], in_dim: usize, out_dim: usize) -> PackedQ8 {
        let k4 = in_dim.div_ceil(4);
        let mut scale = vec![0.0f32; out_dim];
        let mut inv = vec![0.0f32; out_dim];
        for (j, (s, i)) in scale.iter_mut().zip(inv.iter_mut()).enumerate() {
            let mut hi = 0.0f32;
            for k in 0..in_dim {
                let a = w[k * out_dim + j].abs();
                if a.is_finite() && a > hi {
                    hi = a;
                }
            }
            if hi > 0.0 {
                *s = hi / 127.0;
                *i = 127.0 / hi;
            }
        }
        let mut pack = vec![0i8; k4 * out_dim * 4];
        let mut colsum = vec![0i32; out_dim];
        for (t, quad) in pack.chunks_exact_mut(out_dim * 4).enumerate() {
            for (j, cell) in quad.chunks_exact_mut(4).enumerate() {
                for (kk, c) in cell.iter_mut().enumerate() {
                    let k = t * 4 + kk;
                    if k < in_dim {
                        let v = w[k * out_dim + j] * inv[j];
                        let q = if v.is_finite() {
                            v.round().clamp(-127.0, 127.0) as i8
                        } else {
                            0
                        };
                        *c = q;
                        colsum[j] += q as i32;
                    }
                }
            }
        }
        PackedQ8 { pack, scale, colsum, k4 }
    }

    fn size_bytes(&self) -> usize {
        self.pack.len() + (self.scale.len() + self.colsum.len()) * 4
    }
}

/// Register-lane width of the quantizer's min/max reduction.
const Q_LANES: usize = 16;

/// Input rows a q8 layer quantizes and dots as one block: every packed
/// weight load feeds this many rows.
const Q_ROWS: usize = 4;

/// Quantizes one input row to asymmetric `u8` (`x ≈ sx·(qx − z)`), padding
/// `qx[x.len()..]` with the zero-point so padded lanes encode 0.0. Returns
/// `(sx, z)`; a constant-zero row returns `(0.0, 0)` with all-zero codes.
///
/// The range always includes 0.0 (post-ReLU rows are mostly zero and the
/// zero-point must represent them exactly), the min/max reduction runs
/// [`Q_LANES`] independent compare-select lanes (plain comparisons — the
/// NaN-propagation contract of `f32::min`/`max` would serialize it), and
/// rounding is `+0.5`-truncate on values biased non-negative by `z`. The
/// code is clamped to `[0, 255]` in f32 (NaN falls to 0) before an
/// unchecked truncation — the same codes as `(t as i32).clamp(0, 255)` for
/// every input, without the saturating cast's scalar fix-ups, so the loop
/// vectorizes at whatever ISA the caller was compiled for.
#[inline(always)]
fn quantize_row(x: &[f32], qx: &mut [u8]) -> (f32, i32) {
    debug_assert!(qx.len() >= x.len() && qx.len().is_multiple_of(4));
    let mut lo16 = [0.0f32; Q_LANES];
    let mut hi16 = [0.0f32; Q_LANES];
    let mut chunks = x.chunks_exact(Q_LANES);
    for c in chunks.by_ref() {
        for (l, &v) in c.iter().enumerate() {
            lo16[l] = if v < lo16[l] { v } else { lo16[l] };
            hi16[l] = if v > hi16[l] { v } else { hi16[l] };
        }
    }
    for &v in chunks.remainder() {
        lo16[0] = if v < lo16[0] { v } else { lo16[0] };
        hi16[0] = if v > hi16[0] { v } else { hi16[0] };
    }
    let (mut lo, mut hi) = (0.0f32, 0.0f32);
    for l in 0..Q_LANES {
        lo = if lo16[l] < lo { lo16[l] } else { lo };
        hi = if hi16[l] > hi { hi16[l] } else { hi };
    }
    let sx = (hi - lo) / 255.0;
    if sx <= 0.0 || !sx.is_finite() {
        qx.iter_mut().for_each(|q| *q = 0);
        return (0.0, 0);
    }
    let inv = 1.0 / sx;
    let z = (-lo * inv + 0.5) as i32;
    let zf = z as f32;
    let (codes, pad) = qx.split_at_mut(x.len());
    for (q, &v) in codes.iter_mut().zip(x) {
        let t = v * inv + zf + 0.5;
        let t = if t >= 0.0 { t } else { 0.0 };
        let t = if t <= 255.0 { t } else { 255.0 };
        // SAFETY: `t` is in [0, 255] — the two selects above map NaN and
        // everything below 0 to 0 and everything above 255 to 255 — so it
        // truncates to an in-range `i32`.
        *q = unsafe { t.to_int_unchecked::<i32>() } as u8;
    }
    pad.fill(z as u8);
    (sx, z)
}

/// Portable integer dots of a row block: for each of the `rows` quantized
/// rows in `qx` (`k4 * 4` codes each), `idot[r * n + j] = Σ_k qx_rk·qw_kj`.
/// The same u8·i8 → i32 quad reduction [`dots_vnni`] executes, exact in
/// `i32`, so the two are bitwise-equal. Quad-major, so one packed quad row
/// stays in L1 while every row of the block reads it.
#[inline(always)]
fn dots_generic(p: &PackedQ8, rows: usize, qx: &[u8], idot: &mut [i32]) {
    let (n, kq) = (p.colsum.len(), p.k4 * 4);
    let idot = &mut idot[..rows * n];
    idot.fill(0);
    for (t, quad) in p.pack.chunks_exact(n * 4).enumerate() {
        for (xr, dr) in qx.chunks_exact(kq).zip(idot.chunks_exact_mut(n)) {
            let xq = [xr[t * 4], xr[t * 4 + 1], xr[t * 4 + 2], xr[t * 4 + 3]];
            for (acc, wq) in dr.iter_mut().zip(quad.chunks_exact(4)) {
                let mut s = 0i32;
                for (&xv, &wv) in xq.iter().zip(wq) {
                    s += xv as i32 * wv as i32;
                }
                *acc += s;
            }
        }
    }
}

/// VNNI integer dots of a block of exactly `R` rows: the same result as
/// [`dots_generic`], with `R` a constant so the accumulators stay in
/// registers. Columns go in three
/// passes: `R` × [`ACC_BLOCKS`] register blocks (each weight load feeds
/// `R` `vpdpbusd`, and `R · ACC_BLOCKS` independent accumulators hide the
/// instruction's latency), then single [`KERNEL_BLOCK`]-column blocks,
/// then the sub-block column tail as one masked block.
///
/// # Safety
/// The CPU must support AVX-512F/BW/VL and AVX-512 VNNI.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512vl", enable = "avx512vnni")]
unsafe fn dots_vnni<const R: usize>(p: &PackedQ8, qx: &[u8], idot: &mut [i32]) {
    use std::arch::x86_64::*;
    let (n, k4) = (p.colsum.len(), p.k4);
    let kq = k4 * 4;
    // Every raw access below relies on these three lengths.
    assert!(p.pack.len() == k4 * n * 4 && qx.len() >= R * kq && idot.len() >= R * n);
    let (w, x, d) = (p.pack.as_ptr(), qx.as_ptr(), idot.as_mut_ptr());
    let nb = n / KERNEL_BLOCK;
    let nb4 = nb / ACC_BLOCKS * ACC_BLOCKS;
    // SAFETY: row `r`'s quad `t` is the 4 bytes at `r*kq + 4t`, inside `qx`
    // since `t < k4` and `r < R`.
    let xb = |r: usize, t: usize| unsafe {
        _mm512_set1_epi32(std::ptr::read_unaligned(x.add(r * kq + t * 4) as *const i32))
    };
    let mut b = 0;
    while b < nb4 {
        let mut acc = [[_mm512_setzero_si512(); ACC_BLOCKS]; R];
        for t in 0..k4 {
            // SAFETY: quad `t` of the pack is the `n*4` bytes at `t*n*4`;
            // blocks `b .. b+ACC_BLOCKS` are its bytes `b*64 .. (b+4)*64`,
            // inside it while `(b + ACC_BLOCKS) * KERNEL_BLOCK <= n`.
            let base = unsafe { w.add(t * n * 4 + b * 64) };
            let wq: [__m512i; ACC_BLOCKS] = std::array::from_fn(|c| unsafe {
                _mm512_loadu_si512(base.add(c * 64) as *const _)
            });
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let xq = xb(r, t);
                for (a, &wc) in acc_r.iter_mut().zip(&wq) {
                    *a = _mm512_dpbusd_epi32(*a, xq, wc);
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            for (c, &a) in acc_r.iter().enumerate() {
                // SAFETY: columns `(b+c)*16 .. +16` of row `r` lie inside
                // `idot`'s `R*n` i32, since `(b + c + 1) * 16 <= n`.
                let dst = unsafe { d.add(r * n + (b + c) * KERNEL_BLOCK) };
                unsafe { _mm512_storeu_si512(dst as *mut _, a) };
            }
        }
        b += ACC_BLOCKS;
    }
    while b < nb {
        let mut acc = [_mm512_setzero_si512(); R];
        for t in 0..k4 {
            // SAFETY: block `b < nb` is bytes `b*64 .. b*64+64` of quad `t`.
            let wq = unsafe { _mm512_loadu_si512(w.add(t * n * 4 + b * 64) as *const _) };
            for (r, a) in acc.iter_mut().enumerate() {
                *a = _mm512_dpbusd_epi32(*a, xb(r, t), wq);
            }
        }
        for (r, &a) in acc.iter().enumerate() {
            // SAFETY: `b < nb`, so the 16 columns from `b*16` are inside row `r`.
            unsafe { _mm512_storeu_si512(d.add(r * n + b * KERNEL_BLOCK) as *mut _, a) };
        }
        b += 1;
    }
    let tail = n - nb * KERNEL_BLOCK;
    if tail > 0 {
        // `tail < 16`, so both masks fit: 4 code bytes and 1 i32 per column.
        let (wmask, dmask) = ((1u64 << (tail * 4)) - 1, (1u16 << tail) - 1);
        let mut acc = [_mm512_setzero_si512(); R];
        for t in 0..k4 {
            // SAFETY: the masked load touches only the `tail*4` bytes at
            // `t*n*4 + nb*64`, the last columns of quad `t`; masked-off lanes
            // are not accessed.
            let wq = unsafe { _mm512_maskz_loadu_epi8(wmask, w.add(t * n * 4 + nb * 64)) };
            for (r, a) in acc.iter_mut().enumerate() {
                *a = _mm512_dpbusd_epi32(*a, xb(r, t), wq);
            }
        }
        for (r, &a) in acc.iter().enumerate() {
            // SAFETY: the masked store writes only row `r`'s `tail` last
            // columns, `r*n + nb*16 .. (r+1)*n`.
            unsafe { _mm512_mask_storeu_epi32(d.add(r * n + nb * KERNEL_BLOCK), dmask, a) };
        }
    }
}

/// One frozen dense layer: weights + f32 bias + activation.
#[derive(Debug, Clone)]
struct FrozenLayer {
    in_dim: usize,
    out_dim: usize,
    activation: Activation,
    weights: FrozenWeights,
    bias: Vec<f32>,
}

impl FrozenLayer {
    fn freeze(layer: &Dense, precision: Precision) -> FrozenLayer {
        let [w, b] = layer.params();
        let (in_dim, out_dim) = (layer.in_dim(), layer.out_dim());
        let (weights, bias) = match precision {
            Precision::F32 => (FrozenWeights::F32(w.value.clone()), b.value.clone()),
            Precision::Q8 => {
                // Biases stay f32 — they are `out_dim` scalars, and rounding
                // them buys nothing.
                (FrozenWeights::Q8(PackedQ8::pack(&w.value, in_dim, out_dim)), b.value.clone())
            }
        };
        FrozenLayer { in_dim, out_dim, activation: layer.activation(), weights, bias }
    }

    /// Applies the layer to `rows` input rows: `input` is `[rows x in_dim]`,
    /// `out` becomes `[rows x out_dim]`. `qx`/`idot` are the q8 path's
    /// reusable quantization scratch.
    fn apply(
        &self,
        input: &[f32],
        rows: usize,
        out: &mut Vec<f32>,
        qx: &mut Vec<u8>,
        idot: &mut Vec<i32>,
    ) {
        debug_assert_eq!(input.len(), rows * self.in_dim);
        out.clear();
        out.resize(rows * self.out_dim, 0.0);
        match &self.weights {
            FrozenWeights::F32(w) => {
                gemm(input, w, self.out_dim, Some(&self.bias), self.activation, out)
            }
            FrozenWeights::Q8(p) => {
                qx.clear();
                qx.resize(Q_ROWS * p.k4 * 4, 0);
                idot.clear();
                idot.resize(Q_ROWS * self.out_dim, 0);
                match kernel_isa() {
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: dispatch is gated on CPUID detection (or an
                    // explicitly lowered override), so the required features
                    // are present.
                    KernelIsa::Avx512Vnni => unsafe {
                        self.rows_q8_vnni(p, input, out, qx, idot)
                    },
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: as above; every level from `Avx2` up has AVX2.
                    KernelIsa::Avx2 | KernelIsa::Avx512 => unsafe {
                        self.rows_q8_avx2(p, input, out, qx, idot)
                    },
                    _ => self.rows_q8(p, input, out, qx, idot, |rows, qx, idot| {
                        dots_generic(p, rows, qx, idot)
                    }),
                }
            }
        }
    }

    /// The q8 row loop, one for every ISA: per block of up to [`Q_ROWS`]
    /// input rows, quantize each row into `qx`, run `dots` once over the
    /// block into `idot` (a closure, so the dots inline into the caller's
    /// `target_feature` body), then finish each row with
    /// [`Self::q8_epilogue`].
    /// The integer dots are exact, so a row's scores do not depend on which
    /// rows share its block.
    #[inline(always)]
    fn rows_q8(
        &self,
        p: &PackedQ8,
        input: &[f32],
        out: &mut [f32],
        qx: &mut [u8],
        idot: &mut [i32],
        dots: impl Fn(usize, &[u8], &mut [i32]),
    ) {
        let (kq, n) = (p.k4 * 4, self.out_dim);
        for (xs, outs) in input.chunks(Q_ROWS * self.in_dim).zip(out.chunks_mut(Q_ROWS * n)) {
            let rows = xs.len() / self.in_dim;
            let mut params = [(0.0f32, 0i32); Q_ROWS];
            let quantized = xs.chunks_exact(self.in_dim).zip(qx.chunks_exact_mut(kq));
            for ((x, q), pr) in quantized.zip(&mut params) {
                *pr = quantize_row(x, q);
            }
            dots(rows, qx, idot);
            let dotted = idot.chunks_exact(n).zip(outs.chunks_exact_mut(n));
            for ((d, o), &(sx, z)) in dotted.zip(&params) {
                self.q8_epilogue(p, sx, z, d, o);
            }
        }
    }

    /// [`Self::rows_q8`] with the portable dots, compiled for AVX2 so the
    /// quantizer, the dots and the epilogue vectorize 256 bits wide on
    /// hosts without VNNI.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn rows_q8_avx2(
        &self,
        p: &PackedQ8,
        input: &[f32],
        out: &mut [f32],
        qx: &mut [u8],
        idot: &mut [i32],
    ) {
        self.rows_q8(p, input, out, qx, idot, |rows, qx, idot| dots_generic(p, rows, qx, idot))
    }

    /// [`Self::rows_q8`] with the `vpdpbusd` dots, compiled for AVX-512 so
    /// the quantizer and the epilogue vectorize 512 bits wide.
    ///
    /// # Safety
    /// The CPU must support AVX-512F/BW/VL and AVX-512 VNNI.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512vl", enable = "avx512vnni")]
    unsafe fn rows_q8_vnni(
        &self,
        p: &PackedQ8,
        input: &[f32],
        out: &mut [f32],
        qx: &mut [u8],
        idot: &mut [i32],
    ) {
        // SAFETY (all four arms): this function's caller guarantees the
        // features; `dots_vnni` checks the slice lengths itself.
        self.rows_q8(p, input, out, qx, idot, |rows, qx, idot| match rows {
            1 => unsafe { dots_vnni::<1>(p, qx, idot) },
            2 => unsafe { dots_vnni::<2>(p, qx, idot) },
            3 => unsafe { dots_vnni::<3>(p, qx, idot) },
            _ => unsafe { dots_vnni::<Q_ROWS>(p, qx, idot) },
        })
    }

    /// Shared q8 epilogue: dequantize the exact integer dots, add bias,
    /// activate. Element-wise IEEE ops — identical on every ISA.
    #[inline(always)]
    fn q8_epilogue(&self, p: &PackedQ8, sx: f32, z: i32, idot: &[i32], out_row: &mut [f32]) {
        for (((o, &d), (&s, &cs)), &bv) in out_row
            .iter_mut()
            .zip(idot)
            .zip(p.scale.iter().zip(&p.colsum))
            .zip(&self.bias)
        {
            *o = s * sx * (d - z * cs) as f32 + bv;
        }
        self.activation.apply_slice(out_row);
    }

    fn size_bytes(&self) -> usize {
        let w = match &self.weights {
            FrozenWeights::F32(v) => v.len() * 4,
            FrozenWeights::Q8(p) => p.size_bytes(),
        };
        w + self.bias.len() * 4
    }
}

/// Reusable per-thread buffers: the frozen path's whole working set. Living
/// in a `thread_local!`, they make steady-state serving allocation-free per
/// batch (beyond the returned score vector).
#[derive(Default)]
struct Scratch {
    ids: Vec<u32>,
    offsets: Vec<usize>,
    sub: Vec<u32>,
    a: Vec<f32>,
    b: Vec<f32>,
    pooled: Vec<f32>,
    /// q8 path: a row block's quantized inputs (`Q_ROWS * k4 * 4` u8 codes).
    qx: Vec<u8>,
    /// q8 path: a row block's integer dot products (`Q_ROWS * out` i32).
    idot: Vec<i32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// A [`DeepSets`] model frozen for serving: re-laid-out weights at a chosen
/// [`Precision`], blocked dense loops, and zero per-batch allocation.
///
/// Freezing is read-only (`&DeepSets`) and the frozen model is immutable —
/// every inference method takes `&self` and is safe to share across serve
/// workers. A structure freezes its weights once, when it is built or
/// loaded, and never changes them afterwards.
#[derive(Debug, Clone)]
pub struct FrozenModel {
    precision: Precision,
    encoder: FrozenEncoder,
    phi: Vec<FrozenLayer>,
    rho: Vec<FrozenLayer>,
    pooling: Pooling,
}

impl FrozenModel {
    /// Extracts a frozen serving model from `model` at `precision`.
    pub fn freeze(model: &DeepSets, precision: Precision) -> FrozenModel {
        let freeze_mlp = |mlp: &setlearn_nn::Mlp| {
            mlp.layers().iter().map(|l| FrozenLayer::freeze(l, precision)).collect::<Vec<_>>()
        };
        FrozenModel {
            precision,
            encoder: FrozenEncoder::freeze(model.encoder(), precision),
            phi: model.phi().map(freeze_mlp).unwrap_or_default(),
            rho: freeze_mlp(model.rho()),
            pooling: model.config().pooling,
        }
    }

    /// The precision this model was frozen at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Frozen weight footprint in bytes (tables + dense layers).
    pub fn size_bytes(&self) -> usize {
        self.encoder.size_bytes()
            + self.phi.iter().map(FrozenLayer::size_bytes).sum::<usize>()
            + self.rho.iter().map(FrozenLayer::size_bytes).sum::<usize>()
    }

    /// Scores a batch of sets; output order matches input order.
    ///
    /// # Panics
    /// On empty sets ("cannot encode an empty set") and out-of-vocabulary
    /// ids — the same contract as [`DeepSets::predict_batch`].
    pub fn predict_batch<S: AsRef<[u32]>>(&self, sets: &[S]) -> Vec<f32> {
        SCRATCH.with(|s| self.run(sets, &mut s.borrow_mut()))
    }

    /// Scores a single set.
    pub fn predict_one(&self, set: &[u32]) -> f32 {
        self.predict_batch(&[set])[0]
    }

    fn run<S: AsRef<[u32]>>(&self, sets: &[S], s: &mut Scratch) -> Vec<f32> {
        // Flatten into reused buffers (same contract as the scalar path:
        // empty sets are a caller bug).
        s.ids.clear();
        s.offsets.clear();
        s.offsets.push(0);
        for set in sets {
            let set = set.as_ref();
            assert!(!set.is_empty(), "cannot encode an empty set");
            s.ids.extend_from_slice(set);
            s.offsets.push(s.ids.len());
        }
        let n = s.ids.len();
        let b = sets.len();

        // Encode + φ over the flat element batch, ping-ponging the two
        // scratch buffers.
        self.encoder.encode(&s.ids, &mut s.sub, &mut s.a);
        let mut h_dim = self.encoder.out_dim();
        for layer in &self.phi {
            layer.apply(&s.a, n, &mut s.b, &mut s.qx, &mut s.idot);
            std::mem::swap(&mut s.a, &mut s.b);
            h_dim = layer.out_dim;
        }

        // Pool per set — the training path's own pooling routine.
        s.pooled.resize(b * h_dim, 0.0);
        pool_rows(self.pooling, &s.a, h_dim, &s.offsets, &mut s.pooled, None);

        // ρ head over the pooled batch.
        std::mem::swap(&mut s.a, &mut s.pooled);
        for layer in &self.rho {
            layer.apply(&s.a, b, &mut s.b, &mut s.qx, &mut s.idot);
            std::mem::swap(&mut s.a, &mut s.b);
        }
        debug_assert_eq!(s.a.len(), b, "ρ must end in a scalar layer");
        s.a.clone()
    }
}

/// A structure's model as it serves: the trained weights and the kernel
/// frozen from them at their config's precision, fixed together at
/// construction, so guarantees computed from [`ServedModel::kernel`] at
/// build time hold for every answer. Serialized as the weights alone;
/// loading freezes them again, to the same scores.
#[derive(Debug, Clone)]
pub(crate) struct ServedModel {
    weights: DeepSets,
    kernel: FrozenModel,
}

/// The refusal of a checkpoint whose model config names no precision: it
/// was written when the precision sat beside the model, and its guarantees
/// were computed from f32 scores whatever it served at.
const PRECISION_MISSING: &str = "the model config names no serve precision (written before \
     the guarantees were computed at it); retrain with `train --precision f32|q8`";

impl ServedModel {
    /// Freezes `weights` at `weights.config().precision`.
    pub(crate) fn new(weights: DeepSets) -> ServedModel {
        let kernel = FrozenModel::freeze(&weights, weights.config().precision);
        ServedModel { weights, kernel }
    }

    /// The trained weights.
    pub(crate) fn weights(&self) -> &DeepSets {
        &self.weights
    }

    /// The kernel that answers.
    pub(crate) fn kernel(&self) -> &FrozenModel {
        &self.kernel
    }
}

impl Serialize for ServedModel {
    fn serialize(&self) -> serde::Value {
        self.weights.serialize()
    }
}

impl Deserialize for ServedModel {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        if v.get("config").is_some_and(|c| c.get("precision").is_none()) {
            return Err(serde::Error::custom(PRECISION_MISSING));
        }
        DeepSets::deserialize(v).map(ServedModel::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CompressionKind, DeepSetsConfig};

    fn config(compression: CompressionKind, pooling: Pooling) -> DeepSetsConfig {
        DeepSetsConfig {
            vocab: 500,
            embedding_dim: 4,
            phi_hidden: vec![12],
            rho_hidden: vec![9], // deliberately not a multiple of KERNEL_BLOCK
            pooling,
            hidden_activation: Activation::Relu,
            output_activation: Activation::Sigmoid,
            compression,
            seed: 11,
            precision: Precision::F32,
        }
    }

    fn sets() -> Vec<Vec<u32>> {
        (0..40u32).map(|i| (0..=(i % 5)).map(|j| (i * 31 + j * 7) % 500).collect()).collect()
    }

    #[test]
    fn f32_freeze_is_bit_identical_across_encoders_and_poolings() {
        for compression in [
            CompressionKind::None,
            CompressionKind::Optimal { ns: 2 },
            CompressionKind::Hashed { buckets: 32, num_hashes: 2 },
        ] {
            for pooling in [Pooling::Sum, Pooling::Mean, Pooling::Max] {
                let model = DeepSets::new(config(compression.clone(), pooling));
                let frozen = FrozenModel::freeze(&model, Precision::F32);
                let sets = sets();
                assert_eq!(
                    frozen.predict_batch(&sets),
                    model.predict_batch(&sets),
                    "{compression:?}/{pooling:?}"
                );
            }
        }
    }

    #[test]
    fn q8_stays_close_and_shrinks() {
        let model = DeepSets::new(config(CompressionKind::None, Pooling::Sum));
        let f32k = FrozenModel::freeze(&model, Precision::F32);
        let q8 = FrozenModel::freeze(&model, Precision::Q8);
        for (a, b) in f32k.predict_batch(&sets()).iter().zip(q8.predict_batch(&sets())) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
        // Tiny dim-4 embedding rows carry 8 bytes of affine params per 4
        // codes, so the shrink is < 4x here; it approaches 4x as dims grow.
        assert!(q8.size_bytes() < f32k.size_bytes());
        let wide = DeepSets::new(DeepSetsConfig { embedding_dim: 32, ..config(CompressionKind::None, Pooling::Sum) });
        let wf = FrozenModel::freeze(&wide, Precision::F32);
        let wq = FrozenModel::freeze(&wide, Precision::Q8);
        assert!(wq.size_bytes() * 2 < wf.size_bytes(), "{} vs {}", wq.size_bytes(), wf.size_bytes());
    }

    #[test]
    #[should_panic(expected = "empty set")]
    fn empty_set_rejected() {
        let model = DeepSets::new(config(CompressionKind::None, Pooling::Sum));
        let _ = FrozenModel::freeze(&model, Precision::F32).predict_one(&[]);
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn out_of_vocab_rejected() {
        let model = DeepSets::new(config(CompressionKind::None, Pooling::Sum));
        let _ = FrozenModel::freeze(&model, Precision::F32).predict_one(&[500]);
    }

    #[test]
    fn precision_strings_and_tags_round_trip() {
        for p in Precision::ALL {
            assert_eq!(p.to_string().parse::<Precision>().unwrap(), p);
        }
        assert!("f64".parse::<Precision>().is_err());
        assert!("f16".parse::<Precision>().unwrap_err().contains("expected f32 or q8"));
        // The vendored serde stub serializes unit variants by name; the
        // hand-written reader takes back exactly those tags and refuses F16.
        assert_eq!(serde_json::to_string(&Precision::Q8).unwrap(), "\"Q8\"");
        assert_eq!(serde_json::from_str::<Precision>("\"Q8\"").unwrap(), Precision::Q8);
        let err = serde_json::from_str::<Precision>("\"F16\"").unwrap_err().to_string();
        assert!(err.contains("f32|q8"), "{err}");
    }

    /// Every supported ISA must produce bitwise-identical scores: f32 vs the
    /// scalar reference, q8 vs the portable integer emulation. The widths
    /// cover tail-only layers (φ 12 / ρ 9) and the serving hot loop's
    /// shapes — full q8 register blocks, leftover single blocks, masked
    /// column tails and a 1-column head — and the batch sizes fill, split
    /// and leave over q8 row blocks. At q8 a set must also score the same
    /// alone as inside a batch. One test (not one per ISA) because the
    /// selected ISA is process-global.
    #[test]
    fn all_supported_isas_agree_bitwise() {
        let detected = detect_kernel_isa();
        let narrow = config(CompressionKind::None, Pooling::Sum);
        let wide = [(512, 512), (80, 77), (64, 1), (128, 200)].map(|(phi, rho)| DeepSetsConfig {
            embedding_dim: 128,
            phi_hidden: vec![phi],
            rho_hidden: vec![rho],
            ..narrow.clone()
        });
        let batches: Vec<Vec<Vec<u32>>> =
            [1, 3, 4, 5, 7, 8, 40].iter().map(|&b| sets()[40 - b..].to_vec()).collect();
        for cfg in std::iter::once(narrow.clone()).chain(wide) {
            let shape = format!("φ {:?} / ρ {:?}", cfg.phi_hidden, cfg.rho_hidden);
            let model = DeepSets::new(cfg);
            let scalar: Vec<Vec<f32>> = batches.iter().map(|b| model.predict_batch(b)).collect();
            let f32k = FrozenModel::freeze(&model, Precision::F32);
            let q8k = FrozenModel::freeze(&model, Precision::Q8);
            set_kernel_isa(KernelIsa::Generic).unwrap();
            let q8_reference: Vec<Vec<f32>> =
                batches.iter().map(|b| q8k.predict_batch(b)).collect();
            for isa in
                [KernelIsa::Generic, KernelIsa::Avx2, KernelIsa::Avx512, KernelIsa::Avx512Vnni]
            {
                if isa > detected {
                    assert!(set_kernel_isa(isa).is_err(), "{isa} should be unavailable");
                    continue;
                }
                set_kernel_isa(isa).unwrap();
                assert_eq!(kernel_isa(), isa);
                let wants = scalar.iter().zip(&q8_reference);
                for (batch, (f32_want, q8_want)) in batches.iter().zip(wants) {
                    let b = batch.len();
                    let f32 = f32k.predict_batch(batch);
                    assert_eq!(&f32, f32_want, "{isa} {shape} batch {b}: f32 diverged");
                    let q8 = q8k.predict_batch(batch);
                    assert_eq!(&q8, q8_want, "{isa} {shape} batch {b}: q8 diverged");
                    for (set, &score) in batch.iter().zip(&q8) {
                        assert_eq!(
                            q8k.predict_one(set).to_bits(),
                            score.to_bits(),
                            "{isa} {shape} batch {b}: q8 {set:?} depends on its batch"
                        );
                    }
                }
            }
            set_kernel_isa(detected).unwrap();
        }
    }

    /// Direct q8 layer check against an exact f32 matmul, at widths that
    /// exercise the blocked path (16), the scalar tail (13) and a padded
    /// input quad (13 → k4 = 4).
    #[test]
    fn q8_layer_approximates_exact_matmul() {
        for (in_dim, out_dim) in [(8usize, 16usize), (13, 13), (16, 13), (13, 1)] {
            let w: Vec<f32> = (0..in_dim * out_dim)
                .map(|i| ((i * 37) % 21) as f32 / 10.0 - 1.0)
                .collect();
            let layer = FrozenLayer {
                in_dim,
                out_dim,
                activation: Activation::Identity,
                weights: FrozenWeights::Q8(PackedQ8::pack(&w, in_dim, out_dim)),
                bias: vec![0.0; out_dim],
            };
            let x: Vec<f32> = (0..in_dim).map(|i| i as f32 / 3.0 - 1.0).collect();
            let (mut out, mut qx, mut idot) = (Vec::new(), Vec::new(), Vec::new());
            layer.apply(&x, 1, &mut out, &mut qx, &mut idot);
            for (j, o) in out.iter().enumerate() {
                let r: f32 = (0..in_dim).map(|k| x[k] * w[k * out_dim + j]).sum();
                assert!(
                    (o - r).abs() <= 0.02 * (1.0 + r.abs()),
                    "{in_dim}x{out_dim} col {j}: {o} vs {r}"
                );
            }
        }
    }

    /// The q8 score bits of a serving-sized model, pinned: any change to the
    /// packing, the quantizer, the integer dots or the epilogue that moves
    /// one bit of one score fails here.
    #[test]
    fn q8_scores_are_pinned() {
        let model = DeepSets::new(DeepSetsConfig {
            vocab: 1000,
            embedding_dim: 128,
            phi_hidden: vec![512],
            rho_hidden: vec![512],
            ..config(CompressionKind::None, Pooling::Sum)
        });
        let q8 = FrozenModel::freeze(&model, Precision::Q8);
        let sets: Vec<Vec<u32>> = (0..64u32)
            .map(|i| (0..2 + i % 7).map(|j| (i * 131 + j * 17 + 3) % 1000).collect())
            .collect();
        let scores = q8.predict_batch(&sets);
        let mut distinct: Vec<u32> = scores.iter().map(|s| s.to_bits()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() > 48, "scores too uniform to pin: {}", distinct.len());
        // FNV-1a over the score bits, one 32-bit word per step.
        let fold = scores.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, s| {
            (h ^ s.to_bits() as u64).wrapping_mul(0x100_0000_01b3)
        });
        assert_eq!(fold, 15_580_012_876_577_225_122, "q8 score bits moved");
    }

    /// The q8 input quantizer as first written, with the saturating
    /// `as i32` cast and a sequential min/max: the reference the
    /// vectorizable [`quantize_row`] must match bit for bit.
    fn quantize_row_reference(x: &[f32], qx: &mut [u8]) -> (f32, i32) {
        let (mut lo, mut hi) = (0.0f32, 0.0f32);
        for &v in x {
            lo = if v < lo { v } else { lo };
            hi = if v > hi { v } else { hi };
        }
        let sx = (hi - lo) / 255.0;
        if sx <= 0.0 || !sx.is_finite() {
            qx.iter_mut().for_each(|q| *q = 0);
            return (0.0, 0);
        }
        let inv = 1.0 / sx;
        let z = (-lo * inv + 0.5) as i32;
        let zf = z as f32;
        for (i, q) in qx.iter_mut().enumerate() {
            *q = match x.get(i) {
                Some(&v) => ((v * inv + zf + 0.5) as i32).clamp(0, 255) as u8,
                None => z as u8,
            };
        }
        (sx, z)
    }

    #[test]
    fn quantizer_matches_the_saturating_cast_reference() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const SPECIAL: [f32; 9] =
            [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, 1e-40, -1e-40, 1e30, -1e30];
        let mut rng = StdRng::seed_from_u64(35);
        for row in 0..12_000 {
            let len = rng.gen_range(1..600usize);
            let spread = [1e-3f32, 1.0, 1e6][row % 3];
            let mut x: Vec<f32> =
                (0..len).map(|_| rng.gen_range(-spread..spread)).collect();
            // Half the rows carry specials (NaN, ±inf, ±0, subnormals,
            // ±1e30) at random positions; many of those rows degenerate to
            // the all-zero encoding, the rest must clamp identically.
            if row % 2 == 1 {
                for _ in 0..rng.gen_range(1..4usize) {
                    let at = rng.gen_range(0..len);
                    x[at] = SPECIAL[rng.gen_range(0..SPECIAL.len())];
                }
            }
            let padded = len.div_ceil(4) * 4;
            let (mut got, mut want) = (vec![0u8; padded], vec![0u8; padded]);
            let (gs, gz) = quantize_row(&x, &mut got);
            let (ws, wz) = quantize_row_reference(&x, &mut want);
            assert_eq!((gs.to_bits(), gz), (ws.to_bits(), wz), "row {row}: (sx, z)");
            assert_eq!(got, want, "row {row}: codes");
        }
    }
}
