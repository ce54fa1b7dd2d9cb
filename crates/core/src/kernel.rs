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
//! * f32/f16 dense layers run [`setlearn_nn::gemm::gemm`], the one
//!   register-tiled, ISA-dispatched forward GEMM that training runs too —
//!   so frozen f32 is bit-identical to the training path by construction;
//! * per-thread reusable scratch arenas, so steady-state serving allocates
//!   nothing per batch beyond the output vector.
//!
//! On top of the layout sits the precision choice ([`Precision`]): `f32`
//! keeps the training weights bit-for-bit, `f16` rounds every weight
//! through IEEE binary16 at freeze time and serves from the dequantized f32
//! layout (exactly [`crate::quantize::quantize_in_place`] semantics), and
//! `q8` serves embeddings as per-row affine `u8` codes and dense layers as
//! per-column symmetric `i8` codes with dynamically quantized `u8` inputs —
//! an exact integer accumulation (AVX-512 VNNI `vpdpbusd` where available,
//! bit-equal portable emulation elsewhere) finished in f32. The ISA items
//! ([`KernelIsa`], [`kernel_isa`], …) live in `setlearn-nn` and are
//! re-exported here.

use crate::compress::CompressionSpec;
use crate::model::{pool_rows, DeepSets, Pooling};
use crate::quantize::{f16_bits_to_f32, f32_to_f16_bits};
use serde::{Deserialize, Serialize};
use setlearn_nn::hash_embedding::hash_bucket;
use setlearn_nn::{Activation, Dense};
use std::cell::RefCell;
use std::fmt;
use std::str::FromStr;
use std::sync::OnceLock;

pub use setlearn_nn::gemm::{detect_kernel_isa, kernel_isa, set_kernel_isa, KernelIsa};
use setlearn_nn::gemm::{gemm, ACC_BLOCKS, KERNEL_BLOCK};

/// Numeric precision a structure serves at. Chosen at `train` time and
/// recorded in the checkpoint; every reader serves at the recorded value.
/// Serialized by variant name (`"F32"`/`"F16"`/`"Q8"`) in JSON checkpoints;
/// the CLI-facing [`FromStr`]/[`fmt::Display`] forms are lowercase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Precision {
    /// Serve the training weights unchanged. Bit-identical to the scalar
    /// reference path.
    #[default]
    F32,
    /// Round every weight through IEEE binary16 at freeze time, serve from
    /// the dequantized f32 layout. Same speed as `F32`, half the checkpoint.
    F16,
    /// 8-bit weights: embeddings as per-row affine `u8` codes, dense layers
    /// as per-column symmetric `i8` codes driven by dynamically quantized
    /// `u8` inputs through an exact integer accumulation, finished in f32
    /// (biases stay f32). Quarter-size weights, and the dense hot loop does
    /// four multiply-adds per byte lane.
    Q8,
}

impl Precision {
    /// All precisions, in ascending compression order.
    pub const ALL: [Precision; 3] = [Precision::F32, Precision::F16, Precision::Q8];

    /// Stable single-byte encoding for binary checkpoint headers.
    pub fn to_byte(self) -> u8 {
        match self {
            Precision::F32 => 0,
            Precision::F16 => 1,
            Precision::Q8 => 2,
        }
    }

    /// Decodes [`Precision::to_byte`]; `None` for bytes written by a future
    /// revision.
    pub fn from_byte(b: u8) -> Option<Precision> {
        match b {
            0 => Some(Precision::F32),
            1 => Some(Precision::F16),
            2 => Some(Precision::Q8),
            _ => None,
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Precision::F32 => "f32",
            Precision::F16 => "f16",
            Precision::Q8 => "q8",
        })
    }
}

impl FromStr for Precision {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "f32" => Ok(Precision::F32),
            "f16" => Ok(Precision::F16),
            "q8" => Ok(Precision::Q8),
            other => Err(format!("unknown precision '{other}' (expected f32, f16 or q8)")),
        }
    }
}

/// An embedding table frozen at a given precision, row-major `rows x dim`.
#[derive(Debug)]
enum FrozenTable {
    /// Full-precision rows (also holds the f16 path after dequantize-on-load).
    F32(Vec<f32>),
    /// Per-row affine codes: `value = min[r] + scale[r] * q[r*dim + j]`.
    Q8 { q: Vec<u8>, scale: Vec<f32>, min: Vec<f32> },
}

impl FrozenTable {
    fn freeze(values: &[f32], rows: usize, dim: usize, precision: Precision) -> FrozenTable {
        debug_assert_eq!(values.len(), rows * dim);
        match precision {
            Precision::F32 => FrozenTable::F32(values.to_vec()),
            Precision::F16 => FrozenTable::F32(round_f16(values)),
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

fn round_f16(values: &[f32]) -> Vec<f32> {
    values.iter().map(|&w| f16_bits_to_f32(f32_to_f16_bits(w))).collect()
}

/// The element encoder re-laid-out for contiguous gathering.
#[derive(Debug)]
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
#[derive(Debug)]
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
#[derive(Debug)]
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

/// Register-lane width of the quantizer's min/max and rounding loops.
const Q_LANES: usize = 16;

/// Quantizes one input row to asymmetric `u8` (`x ≈ sx·(qx − z)`), padding
/// `qx[x.len()..]` with the zero-point so padded lanes encode 0.0. Returns
/// `(sx, z)`; a constant-zero row returns `(0.0, 0)` with all-zero codes.
///
/// The range always includes 0.0 (post-ReLU rows are mostly zero and the
/// zero-point must represent them exactly), the min/max reduction runs
/// [`Q_LANES`] independent compare-select lanes (plain comparisons — the
/// NaN-propagation contract of `f32::min`/`max` would serialize it), and
/// rounding is `+0.5`-truncate on values biased non-negative by `z`.
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
    // Split the zero-point padding off first: `codes` is exactly `x.len()`
    // wide, so the chunked iterators below stay in lockstep.
    let (codes, pad) = qx.split_at_mut(x.len());
    let mut xc = x.chunks_exact(Q_LANES);
    let mut qc = codes.chunks_exact_mut(Q_LANES);
    for (c, qs) in xc.by_ref().zip(qc.by_ref()) {
        for (q, &v) in qs.iter_mut().zip(c) {
            *q = ((v * inv + zf + 0.5) as i32).clamp(0, 255) as u8;
        }
    }
    for (q, &v) in qc.into_remainder().iter_mut().zip(xc.remainder()) {
        *q = ((v * inv + zf + 0.5) as i32).clamp(0, 255) as u8;
    }
    pad.iter_mut().for_each(|q| *q = z as u8);
    (sx, z)
}

/// One frozen dense layer: weights + f32 bias + activation.
#[derive(Debug)]
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
            Precision::F16 => (FrozenWeights::F32(round_f16(&w.value)), round_f16(&b.value)),
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
                qx.resize(p.k4 * 4, 0);
                idot.clear();
                idot.resize(self.out_dim, 0);
                match kernel_isa() {
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: dispatch is gated on CPUID detection (or an
                    // explicitly lowered override), so the required features
                    // are present.
                    KernelIsa::Avx512Vnni => unsafe {
                        self.rows_q8_vnni(p, input, out, qx, idot)
                    },
                    _ => self.rows_q8_generic(p, input, out, qx, idot),
                }
            }
        }
    }

    /// Portable q8 rows: the same u8·i8 → i32 quad reduction the VNNI path
    /// executes, expressed as plain integer loops. Exact in `i32`, so its
    /// results are bitwise-equal to [`FrozenLayer::rows_q8_vnni`].
    fn rows_q8_generic(
        &self,
        p: &PackedQ8,
        input: &[f32],
        out: &mut [f32],
        qx: &mut [u8],
        idot: &mut [i32],
    ) {
        let n = self.out_dim;
        for (x, out_row) in input.chunks_exact(self.in_dim).zip(out.chunks_exact_mut(n)) {
            let (sx, z) = quantize_row(x, qx);
            idot.iter_mut().for_each(|v| *v = 0);
            for (quad, xq) in p.pack.chunks_exact(n * 4).zip(qx.chunks_exact(4)) {
                for (acc, wq) in idot.iter_mut().zip(quad.chunks_exact(4)) {
                    let mut s = 0i32;
                    for (&xv, &wv) in xq.iter().zip(wq) {
                        s += xv as i32 * wv as i32;
                    }
                    *acc += s;
                }
            }
            self.q8_epilogue(p, sx, z, idot, out_row);
        }
    }

    /// VNNI q8 rows: `vpdpbusd` accumulates each input quad into 16 output
    /// columns per lane group, [`ACC_BLOCKS`] independent accumulators deep
    /// (the instruction's latency would serialize a single chain).
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
        use std::arch::x86_64::*;
        let n = self.out_dim;
        let nb = n / KERNEL_BLOCK;
        let nb4 = nb / ACC_BLOCKS * ACC_BLOCKS;
        for (x, out_row) in input.chunks_exact(self.in_dim).zip(out.chunks_exact_mut(n)) {
            let (sx, z) = quantize_row(x, qx);
            let mut b = 0;
            // SAFETY: `p.pack` is `[k4][n][4]` bytes, so for quad `t` the
            // loads at `t*n*4 + b*64 .. +64` stay inside the quad's row while
            // `(b + ACC_BLOCKS) * KERNEL_BLOCK <= n` (resp. `b + 1 <= nb`);
            // `idot` holds `n` i32, covering the stores at `b*16 .. b*16+64`.
            while b < nb4 {
                let mut a0 = _mm512_setzero_si512();
                let mut a1 = _mm512_setzero_si512();
                let mut a2 = _mm512_setzero_si512();
                let mut a3 = _mm512_setzero_si512();
                for (t, xq) in qx.chunks_exact(4).enumerate() {
                    let xb = _mm512_set1_epi32(i32::from_le_bytes([xq[0], xq[1], xq[2], xq[3]]));
                    let base = p.pack.as_ptr().add(t * n * 4 + b * 64);
                    a0 = _mm512_dpbusd_epi32(a0, xb, _mm512_loadu_si512(base as *const _));
                    a1 = _mm512_dpbusd_epi32(a1, xb, _mm512_loadu_si512(base.add(64) as *const _));
                    a2 = _mm512_dpbusd_epi32(a2, xb, _mm512_loadu_si512(base.add(128) as *const _));
                    a3 = _mm512_dpbusd_epi32(a3, xb, _mm512_loadu_si512(base.add(192) as *const _));
                }
                let dst = idot.as_mut_ptr().add(b * KERNEL_BLOCK);
                _mm512_storeu_si512(dst as *mut _, a0);
                _mm512_storeu_si512(dst.add(16) as *mut _, a1);
                _mm512_storeu_si512(dst.add(32) as *mut _, a2);
                _mm512_storeu_si512(dst.add(48) as *mut _, a3);
                b += ACC_BLOCKS;
            }
            while b < nb {
                let mut acc = _mm512_setzero_si512();
                for (t, xq) in qx.chunks_exact(4).enumerate() {
                    let xb = _mm512_set1_epi32(i32::from_le_bytes([xq[0], xq[1], xq[2], xq[3]]));
                    let wq = _mm512_loadu_si512(p.pack.as_ptr().add(t * n * 4 + b * 64) as *const _);
                    acc = _mm512_dpbusd_epi32(acc, xb, wq);
                }
                _mm512_storeu_si512(idot.as_mut_ptr().add(b * KERNEL_BLOCK) as *mut _, acc);
                b += 1;
            }
            // Sub-block tail columns, scalar integer (identical arithmetic).
            for (j, d) in idot.iter_mut().enumerate().skip(nb * KERNEL_BLOCK) {
                let mut acc = 0i32;
                for (t, xq) in qx.chunks_exact(4).enumerate() {
                    let wq = &p.pack[t * n * 4 + j * 4..t * n * 4 + j * 4 + 4];
                    for (&xv, &wv) in xq.iter().zip(wq) {
                        acc += xv as i32 * wv as i32;
                    }
                }
                *d = acc;
            }
            self.q8_epilogue(p, sx, z, idot, out_row);
        }
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
    /// q8 path: quantized input row (`k4 * 4` u8 codes).
    qx: Vec<u8>,
    /// q8 path: per-column integer dot products.
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
/// workers. It intentionally does *not* track later mutations of the source
/// model; holders (the task wrappers) re-freeze after weight changes.
#[derive(Debug)]
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

    /// Parallel batch scoring with the exact splitting rule of
    /// [`DeepSets::predict_batch_parallel`] (so results are chunk-for-chunk
    /// identical to the scalar path).
    pub fn predict_batch_parallel<S: AsRef<[u32]> + Sync>(
        &self,
        sets: &[S],
        threads: usize,
    ) -> Vec<f32> {
        assert!(threads > 0, "need at least one thread");
        if sets.is_empty() {
            return Vec::new();
        }
        if threads == 1 || sets.len() < 2 * threads {
            return self.predict_batch(sets);
        }
        let chunk = sets.len().div_ceil(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = sets
                .chunks(chunk)
                .map(|part| scope.spawn(move || self.predict_batch(part)))
                .collect();
            let mut out = Vec::with_capacity(sets.len());
            for h in handles {
                out.extend(h.join().expect("prediction worker panicked"));
            }
            out
        })
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

/// Lazily frozen kernel slot for a task wrapper: freezes on first use, is
/// skipped by serde, and clones to an empty slot (the clone re-freezes on
/// its own first query).
///
/// Holders must [`KernelCell::reset`] whenever the underlying model's
/// weights may have changed (`model_mut`, quantization, weight hot-swap) —
/// the cell cannot observe mutations itself.
#[derive(Default)]
pub struct KernelCell(OnceLock<FrozenModel>);

impl KernelCell {
    /// An empty (not yet frozen) cell.
    pub fn new() -> KernelCell {
        KernelCell(OnceLock::new())
    }

    /// The frozen kernel, freezing `model` at `precision` on first use.
    pub fn get_or_freeze(&self, model: &DeepSets, precision: Precision) -> &FrozenModel {
        self.0.get_or_init(|| FrozenModel::freeze(model, precision))
    }

    /// Drops any frozen kernel so the next query re-freezes from the current
    /// weights.
    pub fn reset(&mut self) {
        self.0 = OnceLock::new();
    }

    /// The frozen kernel, if one exists.
    pub fn get(&self) -> Option<&FrozenModel> {
        self.0.get()
    }
}

impl Clone for KernelCell {
    fn clone(&self) -> KernelCell {
        // A frozen model is a pure function of (weights, precision); the
        // clone re-freezes lazily instead of copying the layout.
        KernelCell::new()
    }
}

impl fmt::Debug for KernelCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.get() {
            Some(k) => write!(f, "KernelCell(frozen {})", k.precision()),
            None => f.write_str("KernelCell(empty)"),
        }
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
    fn f16_freeze_matches_quantize_in_place() {
        let model = DeepSets::new(config(CompressionKind::Optimal { ns: 2 }, Pooling::Sum));
        let frozen = FrozenModel::freeze(&model, Precision::F16);
        let mut rounded = model.clone();
        crate::quantize::quantize_in_place(&mut rounded);
        let sets = sets();
        assert_eq!(frozen.predict_batch(&sets), rounded.predict_batch(&sets));
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
    fn parallel_matches_serial() {
        let model = DeepSets::new(config(CompressionKind::Optimal { ns: 2 }, Pooling::Sum));
        let frozen = FrozenModel::freeze(&model, Precision::Q8);
        let sets = sets();
        let serial = frozen.predict_batch(&sets);
        for threads in [1, 2, 4, 7] {
            assert_eq!(frozen.predict_batch_parallel(&sets, threads), serial, "{threads}");
        }
        assert!(frozen.predict_batch_parallel::<Vec<u32>>(&[], 4).is_empty());
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
    fn precision_strings_and_bytes_round_trip() {
        for p in Precision::ALL {
            assert_eq!(p.to_string().parse::<Precision>().unwrap(), p);
            assert_eq!(Precision::from_byte(p.to_byte()), Some(p));
        }
        assert!("f64".parse::<Precision>().is_err());
        assert_eq!(Precision::from_byte(9), None);
        // The vendored serde stub serializes unit variants by name.
        assert_eq!(serde_json::to_string(&Precision::Q8).unwrap(), "\"Q8\"");
    }

    /// Every supported ISA must produce bitwise-identical scores: f32 vs the
    /// scalar reference, q8 vs the portable integer emulation. One test (not
    /// one per ISA) because the selected ISA is process-global.
    #[test]
    fn all_supported_isas_agree_bitwise() {
        let detected = detect_kernel_isa();
        let model = DeepSets::new(config(CompressionKind::None, Pooling::Sum));
        let scalar = model.predict_batch(&sets());
        let f32k = FrozenModel::freeze(&model, Precision::F32);
        let q8k = FrozenModel::freeze(&model, Precision::Q8);
        set_kernel_isa(KernelIsa::Generic).unwrap();
        let q8_reference = q8k.predict_batch(&sets());
        for isa in [KernelIsa::Generic, KernelIsa::Avx2, KernelIsa::Avx512, KernelIsa::Avx512Vnni]
        {
            if isa > detected {
                assert!(set_kernel_isa(isa).is_err(), "{isa} should be unavailable");
                continue;
            }
            set_kernel_isa(isa).unwrap();
            assert_eq!(kernel_isa(), isa);
            assert_eq!(f32k.predict_batch(&sets()), scalar, "{isa}: f32 diverged");
            assert_eq!(q8k.predict_batch(&sets()), q8_reference, "{isa}: q8 diverged");
        }
        set_kernel_isa(detected).unwrap();
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

    #[test]
    fn kernel_cell_clones_empty_and_refreezes() {
        let model = DeepSets::new(config(CompressionKind::None, Pooling::Sum));
        let cell = KernelCell::new();
        let p = cell.get_or_freeze(&model, Precision::F16).predict_one(&[1, 2]);
        let copy = cell.clone();
        assert!(copy.get().is_none(), "clone must not share the frozen kernel");
        assert_eq!(copy.get_or_freeze(&model, Precision::F16).predict_one(&[1, 2]), p);
    }
}
