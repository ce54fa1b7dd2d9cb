//! IEEE 754 half-precision rounding for `abl_quantize`.
//!
//! The serving kernels run at f32 or q8 only. This module keeps the f16
//! arithmetic the ablation needs: what a cardinality model would predict if
//! every weight were stored as a half float, and how many bytes that storage
//! would take. No file is ever written in this format. The conversion is
//! hand-rolled (round-to-nearest-even) since the workspace carries no
//! half-float dependency.

use setlearn::model::DeepSets;

/// Converts an `f32` to IEEE 754 binary16 bits (round to nearest even,
/// overflow to ±inf, subnormals flushed correctly).
fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let frac = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf / NaN.
        let nan = if frac != 0 { 0x0200 } else { 0 };
        return sign | 0x7c00 | nan;
    }
    // Re-bias: f32 bias 127, f16 bias 15.
    let new_exp = exp - 127 + 15;
    if new_exp >= 0x1f {
        return sign | 0x7c00; // overflow -> inf
    }
    if new_exp <= 0 {
        // Subnormal or underflow to zero.
        if new_exp < -10 {
            return sign;
        }
        let mantissa = frac | 0x0080_0000; // implicit leading 1
        let shift = (14 - new_exp) as u32;
        let half = 1u32 << (shift - 1);
        let mut m = mantissa >> shift;
        // Round to nearest even.
        let rem = mantissa & ((1 << shift) - 1);
        if rem > half || (rem == half && (m & 1) == 1) {
            m += 1;
        }
        return sign | m as u16;
    }
    let mut out = sign | ((new_exp as u16) << 10) | ((frac >> 13) as u16);
    // Round to nearest even on the 13 dropped bits.
    let rem = frac & 0x1fff;
    if rem > 0x1000 || (rem == 0x1000 && (out & 1) == 1) {
        out = out.wrapping_add(1); // may carry into the exponent — correct
    }
    out
}

/// Converts IEEE 754 binary16 bits back to `f32`.
fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = ((bits & 0x8000) as u32) << 16;
    let exp = ((bits >> 10) & 0x1f) as u32;
    let frac = (bits & 0x03ff) as u32;
    let out = if exp == 0 {
        if frac == 0 {
            sign
        } else {
            // Subnormal: normalize.
            let mut e = 127 - 15 + 1;
            let mut f = frac;
            while f & 0x0400 == 0 {
                f <<= 1;
                e -= 1;
            }
            sign | ((e as u32) << 23) | ((f & 0x03ff) << 13)
        }
    } else if exp == 0x1f {
        sign | 0x7f80_0000 | (frac << 13)
    } else {
        sign | ((exp + 127 - 15) << 23) | (frac << 13)
    };
    f32::from_bits(out)
}

/// Rounds every weight of a model (embeddings, dense weights and biases)
/// through f16 and back, in place: the model an f16 save/load cycle would
/// leave.
pub fn round_weights_to_f16(model: &mut DeepSets) {
    let rounded: Vec<Vec<f32>> = model
        .weight_buffers()
        .iter()
        .map(|buf| buf.iter().map(|&w| f16_bits_to_f32(f32_to_f16_bits(w))).collect())
        .collect();
    model.load_weight_buffers(&rounded).expect("same shapes");
}

/// Bytes the model's weights would take stored as f16 (half the f32
/// footprint).
pub fn f16_size_bytes(model: &DeepSets) -> usize {
    model.num_params() * 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use setlearn::model::DeepSetsConfig;

    #[test]
    fn known_values_roundtrip_exactly() {
        for v in [0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0, 0.25] {
            let back = f16_bits_to_f32(f32_to_f16_bits(v));
            assert_eq!(back, v, "{v}");
        }
    }

    #[test]
    fn specials() {
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7c00);
        assert_eq!(f32_to_f16_bits(f32::NEG_INFINITY), 0xfc00);
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        // Overflow saturates to inf.
        assert_eq!(f32_to_f16_bits(1e9), 0x7c00);
        // Tiny values flush toward signed zero.
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1e-30)), 0.0);
    }

    #[test]
    fn relative_error_is_small_in_the_weight_range() {
        // Model weights live in roughly [-2, 2].
        let mut worst = 0.0f32;
        for i in 1..4000 {
            let v = (i as f32 / 1000.0) - 2.0;
            if v == 0.0 {
                continue;
            }
            let back = f16_bits_to_f32(f32_to_f16_bits(v));
            worst = worst.max(((back - v) / v).abs());
        }
        assert!(worst < 1e-3, "worst relative error {worst}");
    }

    #[test]
    fn subnormal_roundtrip() {
        // Smallest positive f16 subnormal ≈ 5.96e-8.
        let v = f16_bits_to_f32(0x0001);
        assert!(v > 0.0);
        assert_eq!(f32_to_f16_bits(v), 0x0001);
    }

    #[test]
    fn rounded_model_predictions_stay_close() {
        let model = DeepSets::new(DeepSetsConfig::clsm(2_000));
        let mut q16 = model.clone();
        round_weights_to_f16(&mut q16);
        for q in [&[1u32, 2][..], &[1_999u32][..], &[3u32, 30, 300][..]] {
            let a = model.predict_one(q);
            let b = q16.predict_one(q);
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
        assert_eq!(f16_size_bytes(&model) * 2, model.size_bytes());
    }
}
