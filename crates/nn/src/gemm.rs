//! The one f32 dense forward GEMM, shared by training and serving.
//!
//! DeepSets applies φ to every element independently, so training
//! ([`crate::Dense::forward`]), `predict_batch` ([`crate::Dense::predict`])
//! and the frozen serving kernel all compute the same `[rows × in]·[in × out]`
//! product. [`gemm`] is that product, with bias and activation fused per
//! row; there is no second f32 dense loop to keep in sync with it, so frozen
//! f32 serving equals training by construction.
//!
//! * Output columns are walked in 64-wide register tiles of
//!   [`ACC_BLOCKS`] fixed-width [`KERNEL_BLOCK`]-lane accumulator blocks that
//!   stay in vector registers across the whole reduction
//!   (`chunks_exact`-shaped slices, so the autovectorizer sees exact trip
//!   counts and no bounds checks in the hot loop). The columns left over
//!   (< 64) run through **one** ikj pass over the input — one zero-skip
//!   branch per input feature, not one per 16-lane block; a single leftover
//!   column (the scalar output layer) keeps its accumulator in a register.
//! * Per output element the accumulation order over the input is plain
//!   `ikj` order from `0.0`, zero inputs are skipped, and no FMA contraction
//!   is introduced — so every ISA compilation gives the same bits.
//! * Runtime ISA dispatch ([`KernelIsa`]): the loop is compiled per
//!   instruction set (`#[target_feature]`) and selected once per process,
//!   so a baseline build still runs AVX2 code on capable hosts.
//!   `SETLEARN_KERNEL_ISA` (or [`set_kernel_isa`]) clamps it down for
//!   training and serving alike.

use crate::activation::Activation;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU8, Ordering};

/// Fixed inner-loop block width of the dense kernels. Sixteen `f32` lanes
/// fill one 512-bit vector register (two 256-bit ones on AVX2); fixed-width
/// accumulator blocks of this size give the autovectorizer exact trip counts
/// with no bounds checks in the hot loop.
pub const KERNEL_BLOCK: usize = 16;

/// Independent accumulator blocks kept in flight per output tile. Four
/// [`KERNEL_BLOCK`]-lane blocks give four independent dependency chains (the
/// vector add/`vpdpbusd` latency is ~4 cycles, so fewer chains leave the
/// ports idle) while still fitting comfortably in the register file.
pub const ACC_BLOCKS: usize = 4;

/// Output columns computed per register tile.
const TILE: usize = KERNEL_BLOCK * ACC_BLOCKS;

/// Instruction set the dense kernels dispatch to. Detected once per process
/// from CPUID, overridable downward via the `SETLEARN_KERNEL_ISA` environment
/// variable or [`set_kernel_isa`] (useful for A/B benchmarks and for forcing
/// the portable path in tests).
///
/// Every level computes the same result: [`gemm`] keeps one operation order
/// on every ISA (bit-identical outputs), and the q8 integer path is exact in
/// i32 regardless of how it is vectorized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum KernelIsa {
    /// Portable Rust loops, autovectorized at the build's baseline target.
    Generic,
    /// 256-bit AVX2 compilations of the same loops.
    Avx2,
    /// 512-bit AVX-512 (F/BW/VL) compilations of the same loops.
    Avx512,
    /// AVX-512 plus VNNI: q8 uses `vpdpbusd` u8·i8 integer dot products.
    Avx512Vnni,
}

impl KernelIsa {
    /// Every level, narrowest first.
    const ALL: [KernelIsa; 4] =
        [KernelIsa::Generic, KernelIsa::Avx2, KernelIsa::Avx512, KernelIsa::Avx512Vnni];

    fn from_u8(b: u8) -> Option<KernelIsa> {
        KernelIsa::ALL.get(b as usize).copied()
    }
}

impl fmt::Display for KernelIsa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            KernelIsa::Generic => "generic",
            KernelIsa::Avx2 => "avx2",
            KernelIsa::Avx512 => "avx512",
            KernelIsa::Avx512Vnni => "avx512vnni",
        })
    }
}

impl FromStr for KernelIsa {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.to_ascii_lowercase();
        KernelIsa::ALL.into_iter().find(|isa| isa.to_string() == s).ok_or_else(|| {
            format!("unknown kernel ISA '{s}' (expected generic, avx2, avx512 or avx512vnni)")
        })
    }
}

/// Widest [`KernelIsa`] this CPU supports.
pub fn detect_kernel_isa() -> KernelIsa {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx512vl")
        {
            if is_x86_feature_detected!("avx512vnni") {
                return KernelIsa::Avx512Vnni;
            }
            return KernelIsa::Avx512;
        }
        if is_x86_feature_detected!("avx2") {
            return KernelIsa::Avx2;
        }
    }
    KernelIsa::Generic
}

/// Selected ISA; `u8::MAX` means "not yet resolved".
static KERNEL_ISA: AtomicU8 = AtomicU8::new(u8::MAX);

/// The ISA the dense kernels currently dispatch to. Resolved on first use:
/// `SETLEARN_KERNEL_ISA` if set (clamped to what the CPU supports; unknown
/// values are ignored), otherwise [`detect_kernel_isa`].
pub fn kernel_isa() -> KernelIsa {
    if let Some(isa) = KernelIsa::from_u8(KERNEL_ISA.load(Ordering::Relaxed)) {
        return isa;
    }
    let detected = detect_kernel_isa();
    let isa = match std::env::var("SETLEARN_KERNEL_ISA") {
        Ok(v) => match v.parse::<KernelIsa>() {
            Ok(requested) => requested.min(detected),
            Err(_) => detected,
        },
        Err(_) => detected,
    };
    KERNEL_ISA.store(isa as u8, Ordering::Relaxed);
    isa
}

/// Forces the dense kernels onto `isa`. Fails if the CPU does not support it;
/// lowering (e.g. to [`KernelIsa::Generic`] for a differential test) always
/// succeeds.
pub fn set_kernel_isa(isa: KernelIsa) -> Result<(), String> {
    let detected = detect_kernel_isa();
    if isa > detected {
        return Err(format!("kernel ISA {isa} unavailable (CPU supports up to {detected})"));
    }
    KERNEL_ISA.store(isa as u8, Ordering::Relaxed);
    Ok(())
}

/// `out = activation(input · w + bias)`, row by row.
///
/// `w` is a borrowed row-major `[k × n]` buffer (one row per *input*
/// feature), `input` is `[rows × k]` and `out` is `[rows × n]`; `rows` and
/// `k` follow from the slice lengths. Every element of `out` is written.
///
/// # Panics
/// If the slice lengths do not describe such a product.
pub fn gemm(
    input: &[f32],
    w: &[f32],
    n: usize,
    bias: Option<&[f32]>,
    activation: Activation,
    out: &mut [f32],
) {
    let shaped = n > 0 && w.len().is_multiple_of(n) && out.len().is_multiple_of(n);
    assert!(shaped, "gemm shape mismatch");
    let k = w.len() / n;
    assert_eq!(input.len(), out.len() / n * k, "gemm shape mismatch");
    if let Some(b) = bias {
        assert_eq!(b.len(), n, "gemm bias length mismatch");
    }
    match kernel_isa() {
        // SAFETY: dispatch is gated on CPUID detection (or an explicitly
        // lowered override). AVX-512 hosts also run the AVX2 compilation:
        // two 256-bit lanes per block measure consistently faster here
        // than LLVM's 512-bit lowering of the same loops, and identical
        // op order means identical bits either way.
        #[cfg(target_arch = "x86_64")]
        KernelIsa::Avx2 | KernelIsa::Avx512 | KernelIsa::Avx512Vnni => unsafe {
            gemm_avx2(input, w, k, n, bias, activation, out)
        },
        _ => gemm_rows(input, w, k, n, bias, activation, out),
    }
}

/// [`gemm_rows`] compiled for AVX2 (never FMA, so bits match the generic
/// build).
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_avx2(
    input: &[f32],
    w: &[f32],
    k: usize,
    n: usize,
    bias: Option<&[f32]>,
    activation: Activation,
    out: &mut [f32],
) {
    gemm_rows(input, w, k, n, bias, activation, out);
}

/// The row kernel behind [`gemm`]: [`TILE`]-wide register tiles, then one
/// ikj pass over the leftover columns; bias and activation per row.
#[inline(always)]
fn gemm_rows(
    input: &[f32],
    w: &[f32],
    k: usize,
    n: usize,
    bias: Option<&[f32]>,
    activation: Activation,
    out: &mut [f32],
) {
    let tiled = n / TILE * TILE;
    for (r, out_row) in out.chunks_exact_mut(n).enumerate() {
        let in_row = &input[r * k..(r + 1) * k];
        for j0 in (0..tiled).step_by(TILE) {
            let mut acc = [[0.0f32; KERNEL_BLOCK]; ACC_BLOCKS];
            for (kk, &a) in in_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let w_tile = &w[kk * n + j0..kk * n + j0 + TILE];
                for (ab, wb) in acc.iter_mut().zip(w_tile.chunks_exact(KERNEL_BLOCK)) {
                    for (o, &wv) in ab.iter_mut().zip(wb) {
                        *o += a * wv;
                    }
                }
            }
            for (ob, ab) in out_row[j0..j0 + TILE].chunks_exact_mut(KERNEL_BLOCK).zip(&acc) {
                ob.copy_from_slice(ab);
            }
        }
        match &mut out_row[tiled..] {
            [] => {}
            // One leftover column (every ρ head's scalar output layer): the
            // same pass with its accumulator in a register.
            [o] => {
                let mut acc = 0.0f32;
                for (kk, &a) in in_row.iter().enumerate() {
                    if a != 0.0 {
                        acc += a * w[kk * n + tiled];
                    }
                }
                *o = acc;
            }
            tail => {
                tail.fill(0.0);
                for (kk, &a) in in_row.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    for (o, &wv) in tail.iter_mut().zip(&w[kk * n + tiled..(kk + 1) * n]) {
                        *o += a * wv;
                    }
                }
            }
        }
        if let Some(b) = bias {
            for (o, &bv) in out_row.iter_mut().zip(b) {
                *o += bv;
            }
        }
        activation.apply_slice(out_row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook definition, deliberately independent of [`gemm`]'s
    /// loop structure: per output element, `0.0 + Σ_k a·w` in k order over
    /// the nonzero inputs, then bias, then activation.
    fn naive(
        input: &[f32],
        w: &[f32],
        k: usize,
        n: usize,
        bias: &[f32],
        activation: Activation,
    ) -> Vec<f32> {
        let rows = input.len() / k;
        let mut out = vec![0.0f32; rows * n];
        for i in 0..rows {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    let a = input[i * k + kk];
                    if a != 0.0 {
                        acc += a * w[kk * n + j];
                    }
                }
                out[i * n + j] = activation.apply(acc + bias[j]);
            }
        }
        out
    }

    /// Deterministic pseudo-random values in `[-1, 1)`, about half of them
    /// exactly zero when `zeros` is set.
    fn values(len: usize, seed: u64, zeros: bool) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                if zeros && s & 1 == 0 {
                    0.0
                } else {
                    ((s >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
                }
            })
            .collect()
    }

    /// Bitwise equality to the naive reference at every out width class
    /// (sub-block, one block, two blocks, one tile, tile + tail, many
    /// tiles), ~50 % zero inputs, under every ISA this CPU supports. One
    /// test because the selected ISA is process-global.
    #[test]
    fn gemm_matches_naive_reference_bitwise_on_every_isa() {
        use Activation::{Relu, Sigmoid, Tanh};
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let detected = detect_kernel_isa();
        for isa in KernelIsa::ALL {
            if isa > detected {
                assert!(set_kernel_isa(isa).is_err(), "{isa} should be unavailable");
                continue;
            }
            set_kernel_isa(isa).unwrap();
            for (seed, n) in [1usize, 13, 16, 32, 64, 65, 77, 512].into_iter().enumerate() {
                for (k, rows, activation) in [(8, 5, Relu), (33, 3, Sigmoid), (1, 2, Tanh)] {
                    let seed = seed as u64 * 31 + k as u64;
                    let input = values(rows * k, seed, true);
                    let w = values(k * n, seed + 1, false);
                    let bias = values(n, seed + 2, false);
                    let want = naive(&input, &w, k, n, &bias, activation);
                    let mut got = vec![f32::NAN; rows * n];
                    gemm(&input, &w, n, Some(&bias), activation, &mut got);
                    let shape = format!("{isa}: {rows}x{k}·{k}x{n} {activation:?}");
                    assert_eq!(bits(&got), bits(&want), "{shape}");
                }
            }
        }
        set_kernel_isa(detected).unwrap();
    }

    #[test]
    fn kernel_isa_strings_round_trip() {
        for isa in KernelIsa::ALL {
            assert_eq!(isa.to_string().parse::<KernelIsa>().unwrap(), isa);
            assert_eq!(KernelIsa::from_u8(isa as u8), Some(isa));
        }
        assert!("sse9".parse::<KernelIsa>().is_err());
        assert!(KernelIsa::Generic < KernelIsa::Avx2);
        assert!(KernelIsa::Avx512 < KernelIsa::Avx512Vnni);
    }
}
