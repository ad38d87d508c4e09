//! The discretized torus `T = Z_{2^64}` interpreted as `[0, 1)`.
//!
//! `u64` is the torus word of every ciphertext type and of this module,
//! whatever the precision a layer works at: a value held at `w < 64` bits
//! (the ring layer at set I, every key-switch key row — precision rule in
//! `params.rs`) lives in the top `w` bits of the word, so encoding,
//! decoding and the wrapping arithmetic here do not change with `w`.

/// `1/8` on the torus — the canonical boolean-gate plaintext magnitude.
pub const ONE_EIGHTH: u64 = 1u64 << 61;

/// Maps a real in `[-0.5, 0.5)` (or any real, taken mod 1) onto the torus.
pub fn torus_from_f64(x: f64) -> u64 {
    let frac = x - x.floor();
    // Multiply by 2^64 without overflowing f64→u64 conversion at 1.0.
    let scaled = frac * 18_446_744_073_709_551_616.0;
    if scaled >= 18_446_744_073_709_551_615.0 {
        0
    } else {
        scaled as u64
    }
}

/// Maps a torus element to its centered real representative in
/// `[-0.5, 0.5)`.
pub fn torus_to_f64(t: u64) -> f64 {
    let v = t as f64 / 18_446_744_073_709_551_616.0;
    if v >= 0.5 {
        v - 1.0
    } else {
        v
    }
}

/// Encodes a message `m ∈ [0, space)` at the center of its torus sector.
pub fn encode_message(m: u64, space: u64) -> u64 {
    assert!(
        space.is_power_of_two() && m < space,
        "message {m} out of range for torus space {space}"
    );
    m.wrapping_mul(u64::MAX / space + 1)
}

/// Decodes to the nearest sector of a `space`-sector torus.
pub fn decode_message(t: u64, space: u64) -> u64 {
    assert!(space.is_power_of_two(), "torus space {space} must be a power of two");
    let sector = u64::MAX / space + 1; // 2^64 / space
    let half = sector / 2;
    t.wrapping_add(half) / sector % space
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_round_trip() {
        for x in [-0.5, -0.25, 0.0, 0.125, 0.49] {
            let t = torus_from_f64(x);
            assert!((torus_to_f64(t) - x).abs() < 1e-15, "x = {x}");
        }
    }

    #[test]
    fn wrapping_semantics() {
        assert_eq!(torus_from_f64(0.25), torus_from_f64(1.25));
        assert_eq!(torus_from_f64(-0.75), torus_from_f64(0.25));
    }

    #[test]
    fn message_encode_decode() {
        for space in [2u64, 4, 8, 16] {
            for m in 0..space {
                let t = encode_message(m, space);
                assert_eq!(decode_message(t, space), m, "space {space} m {m}");
                // Robust to noise up to a quarter sector.
                let noise = (u64::MAX / space) / 4;
                assert_eq!(decode_message(t.wrapping_add(noise), space), m);
                assert_eq!(decode_message(t.wrapping_sub(noise), space), m);
            }
        }
    }

    #[test]
    fn one_eighth_is_eighth() {
        assert_eq!(ONE_EIGHTH, encode_message(1, 8));
    }
}
