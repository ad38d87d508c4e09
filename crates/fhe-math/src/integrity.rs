//! Cheap per-limb integrity checksums for RNS data.
//!
//! Alchemist's scratchpads and HBM links (181 mm² of SRAM + 2×HBM2) are
//! exactly the structures that suffer bit upsets in deployed silicon; the
//! software mirror is a rolling checksum over every residue limb of a
//! ciphertext, *sealed* at construction and *verified* at scheme-API
//! boundaries. The fault-injection campaign (`crates/faultsim`) measures
//! the detection power this buys: any corruption of a single limb after
//! sealing is guaranteed to change the checksum (see below), so a
//! checksum-protected ciphertext can never silently carry a bit-flip
//! across an API boundary.
//!
//! # Guarantee
//!
//! Limbs are dealt round-robin onto four independent lanes. Each lane is a
//! polynomial `h_l = Σ mix(limb_k) · M^(e_k)` over `Z/2^64` in an **odd**
//! (hence invertible) multiplier `M`, where `mix` is the splitmix64
//! finalizer — a bijection on `u64`; the lanes are then folded into one
//! word as `Σ h_l · F^(3−l)` with a second odd multiplier `F`. Changing one
//! limb changes its mixed value by some `δ ≠ 0`, which changes exactly one
//! lane by `δ · M^e` and the digest by `δ · M^e · F^(3−l) ≠ 0`, because
//! `M` and `F` are units. Any *single-limb* corruption (one or many
//! bit-flips inside one limb) is therefore detected with certainty, not
//! merely with high probability; multi-limb corruptions are detected
//! unless they collide in the full 64-bit state (~2⁻⁶⁴). The fewer than
//! four trailing limbs of a length not divisible by four roll serially
//! into the folded word, each again through a power of `M`; the running
//! state enters lane 0, so the digest stays sensitive to channel order.
//!
//! # Cost model
//!
//! Sealing/verifying is one mix + one multiply-add per limb — `O(L·n)`
//! with a constant far below a single NTT butterfly stage; the four lanes
//! exist so those multiply-adds overlap instead of forming one serial
//! dependency chain through the whole ciphertext. It is still on
//! the hot path of every evaluator call, so [`set_checksum_enabled`] flips
//! a process-global runtime switch: the kernel bench binaries start with
//! checksums disabled so their baselines stay checksum-free
//! (`bench_kernels --checksum` opts in).

use crate::{MathError, RnsPoly};
use std::sync::atomic::{AtomicBool, Ordering};

/// Process-global runtime switch.
static CHECKSUM_ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether ciphertext checksums are currently active (the runtime switch,
/// default on).
#[inline]
pub fn checksum_enabled() -> bool {
    CHECKSUM_ENABLED.load(Ordering::Relaxed)
}

/// Turns ciphertext sealing/verification on or off at runtime
/// (process-global). Benchmarks disable it so hot-path measurements stay
/// checksum-free; the fault campaign re-enables it per configuration.
pub fn set_checksum_enabled(on: bool) {
    CHECKSUM_ENABLED.store(on, Ordering::Relaxed);
}

/// splitmix64 finalizer: a bijective 64-bit mix (same constants the
/// conformance fuzzer's PRNG is pinned to by published vectors).
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Odd multiplier for the rolling combine (invertible mod 2^64), so a
/// change at any limb position propagates to the final state.
const ROLL: u64 = 0x9E37_79B9_7F4A_7C15 | 1;

/// Odd multiplier folding the four lanes of [`roll_limbs`] into one word.
const FOLD: u64 = 0xD6E8_FEB8_6659_FD93;

/// Rolling digest over a sequence of limbs, order-sensitive: four
/// interleaved lanes (limb `k` rolls into lane `k mod 4`; `h` seeds lane 0)
/// folded with [`FOLD`], then the `< 4` trailing limbs rolled serially.
#[inline]
fn roll_limbs(h: u64, limbs: &[u64]) -> u64 {
    let mut lanes = [h, 0, 0, 0];
    let quads = limbs.chunks_exact(4);
    let tail = quads.remainder();
    for quad in quads {
        for (lane, &x) in lanes.iter_mut().zip(quad) {
            *lane = lane.wrapping_mul(ROLL).wrapping_add(mix64(x));
        }
    }
    let folded = lanes.iter().fold(0u64, |acc, &lane| acc.wrapping_mul(FOLD).wrapping_add(lane));
    tail.iter().fold(folded, |acc, &x| acc.wrapping_mul(ROLL).wrapping_add(mix64(x)))
}

/// Checksum of a set of RNS polynomials (e.g. the `(c0, c1)` pair of a
/// ciphertext): covers every residue limb of every channel, the channel
/// structure, and the domain, in order. Pure function of the data —
/// independent of the runtime switch, so harnesses can always compute it.
pub fn rns_checksum(polys: &[&RnsPoly]) -> u64 {
    let mut h = 0xA1C4_0E57_u64; // domain-separation constant
    for p in polys {
        h = h.wrapping_mul(ROLL).wrapping_add(mix64(p.num_channels() as u64));
        h = h.wrapping_mul(ROLL).wrapping_add(mix64(p.domain() as u64));
        for c in p.channels() {
            h = roll_limbs(h, c.coeffs());
        }
    }
    h
}

/// Seals data: returns its checksum when checksums are active, `None`
/// otherwise. A `None` seal is "never sealed" — verification skips it.
pub fn seal(polys: &[&RnsPoly]) -> Option<u64> {
    if checksum_enabled() {
        Some(rns_checksum(polys))
    } else {
        None
    }
}

/// Verifies previously sealed data: recomputes the checksum and compares.
/// Skips silently when the data was never sealed (`seal.is_none()`) or
/// checksums are currently disabled.
///
/// # Errors
///
/// Returns [`MathError::IntegrityViolation`] on mismatch, tagged with
/// `context` (the API boundary that caught the corruption).
pub fn verify(
    polys: &[&RnsPoly],
    seal: Option<u64>,
    context: &'static str,
) -> Result<(), MathError> {
    if !checksum_enabled() {
        return Ok(());
    }
    match seal {
        Some(expect) if rns_checksum(polys) != expect => {
            Err(MathError::IntegrityViolation { context })
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_ntt_primes, Modulus, Poly, RnsPoly};

    fn sample_poly() -> RnsPoly {
        let qs = generate_ntt_primes(30, 16, 2).unwrap();
        let channels = qs
            .iter()
            .map(|&q| {
                let m = Modulus::new(q).unwrap();
                let coeffs: Vec<u64> = (0..16).map(|i| (i as u64 * 7 + 3) % q).collect();
                Poly::from_coeffs(coeffs, m).unwrap()
            })
            .collect();
        RnsPoly::from_channels(channels).unwrap()
    }

    #[test]
    fn every_single_bit_flip_changes_the_checksum() {
        let p = sample_poly();
        let base = rns_checksum(&[&p]);
        for ch in 0..p.num_channels() {
            for idx in 0..p.n() {
                for bit in 0..30 {
                    let mut q = p.clone();
                    let coeffs = q.channels_mut()[ch].coeffs_mut();
                    coeffs[idx] ^= 1 << bit;
                    assert_ne!(
                        rns_checksum(&[&q]),
                        base,
                        "undetected flip at ch={ch} idx={idx} bit={bit}"
                    );
                }
            }
        }
    }

    #[test]
    fn limb_swap_is_detected() {
        let p = sample_poly();
        let base = rns_checksum(&[&p]);
        let mut q = p.clone();
        let coeffs = q.channels_mut()[0].coeffs_mut();
        coeffs.swap(3, 5);
        assert_ne!(rns_checksum(&[&q]), base, "position swap must change the rolling digest");
    }

    #[test]
    fn verify_round_trip_and_mismatch() {
        set_checksum_enabled(true);
        let p = sample_poly();
        let s = seal(&[&p]);
        assert!(s.is_some());
        verify(&[&p], s, "test").unwrap();
        let mut q = p.clone();
        q.channels_mut()[1].coeffs_mut()[0] ^= 1;
        let err = verify(&[&q], s, "test").unwrap_err();
        assert_eq!(err, MathError::IntegrityViolation { context: "test" });
        // Unsealed data never fails verification.
        verify(&[&q], None, "test").unwrap();
    }
}
