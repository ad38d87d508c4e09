//! Bootstrapped boolean gates.
//!
//! Each binary gate is one linear combination of `±1/8`-encoded inputs
//! followed by a gate bootstrap (sign extraction) — the canonical TFHE
//! recipe. `NOT` is free (negation).

use crate::keys::ServerKey;
use crate::lwe::LweCiphertext;
use crate::torus::ONE_EIGHTH;
use crate::TfheError;

fn check(server: &ServerKey, cts: &[&LweCiphertext]) -> Result<(), TfheError> {
    for ct in cts {
        if ct.dim() != server.params().lwe_dim {
            return Err(TfheError::Mismatch {
                detail: format!(
                    "ciphertext dimension {} != parameter n {}",
                    ct.dim(),
                    server.params().lwe_dim
                ),
            });
        }
    }
    Ok(())
}

/// NAND: `bootstrap(1/8 − a − b)`.
///
/// # Errors
///
/// Returns [`TfheError::Mismatch`] on dimension disagreement.
pub fn nand(
    server: &ServerKey,
    a: &LweCiphertext,
    b: &LweCiphertext,
) -> Result<LweCiphertext, TfheError> {
    check(server, &[a, b])?;
    telemetry::count_named("tfhe.gate.nand", 1);
    let lin = LweCiphertext::trivial(ONE_EIGHTH, a.dim()).sub(a).sub(b);
    Ok(server.bootstrap_to_bit(&lin))
}

/// AND: `bootstrap(−1/8 + a + b)`.
///
/// # Errors
///
/// Returns [`TfheError::Mismatch`] on dimension disagreement.
pub fn and(
    server: &ServerKey,
    a: &LweCiphertext,
    b: &LweCiphertext,
) -> Result<LweCiphertext, TfheError> {
    check(server, &[a, b])?;
    telemetry::count_named("tfhe.gate.and", 1);
    let lin = a.add(b).add_constant(ONE_EIGHTH.wrapping_neg());
    Ok(server.bootstrap_to_bit(&lin))
}

/// OR: `bootstrap(1/8 + a + b)`.
///
/// # Errors
///
/// Returns [`TfheError::Mismatch`] on dimension disagreement.
pub fn or(
    server: &ServerKey,
    a: &LweCiphertext,
    b: &LweCiphertext,
) -> Result<LweCiphertext, TfheError> {
    check(server, &[a, b])?;
    telemetry::count_named("tfhe.gate.or", 1);
    let lin = a.add(b).add_constant(ONE_EIGHTH);
    Ok(server.bootstrap_to_bit(&lin))
}

/// NOR: `bootstrap(−1/8 − a − b)`.
///
/// # Errors
///
/// Returns [`TfheError::Mismatch`] on dimension disagreement.
pub fn nor(
    server: &ServerKey,
    a: &LweCiphertext,
    b: &LweCiphertext,
) -> Result<LweCiphertext, TfheError> {
    check(server, &[a, b])?;
    telemetry::count_named("tfhe.gate.nor", 1);
    let lin = a.add(b).neg().add_constant(ONE_EIGHTH.wrapping_neg());
    Ok(server.bootstrap_to_bit(&lin))
}

/// XOR: `bootstrap(1/4 + 2(a + b))`.
///
/// # Errors
///
/// Returns [`TfheError::Mismatch`] on dimension disagreement.
pub fn xor(
    server: &ServerKey,
    a: &LweCiphertext,
    b: &LweCiphertext,
) -> Result<LweCiphertext, TfheError> {
    check(server, &[a, b])?;
    telemetry::count_named("tfhe.gate.xor", 1);
    let sum = a.add(b);
    let doubled = sum.add(&sum);
    let lin = doubled.add_constant(ONE_EIGHTH.wrapping_mul(2));
    Ok(server.bootstrap_to_bit(&lin))
}

/// XNOR: `bootstrap(−1/4 − 2(a + b))`.
///
/// # Errors
///
/// Returns [`TfheError::Mismatch`] on dimension disagreement.
pub fn xnor(
    server: &ServerKey,
    a: &LweCiphertext,
    b: &LweCiphertext,
) -> Result<LweCiphertext, TfheError> {
    check(server, &[a, b])?;
    telemetry::count_named("tfhe.gate.xnor", 1);
    let sum = a.add(b);
    let doubled = sum.add(&sum).neg();
    let lin = doubled.add_constant(ONE_EIGHTH.wrapping_mul(2).wrapping_neg());
    Ok(server.bootstrap_to_bit(&lin))
}

/// NOT: negation — no bootstrap needed.
pub fn not(a: &LweCiphertext) -> LweCiphertext {
    telemetry::count_named("tfhe.gate.not", 1);
    a.neg()
}

/// MAJORITY(a, b, c): with `±1/8` encodings the sum `a + b + c` lies in
/// `{±3/8, ±1/8}` and its sign *is* the majority — a single bootstrap.
///
/// # Errors
///
/// Returns [`TfheError::Mismatch`] on dimension disagreement.
pub fn majority(
    server: &ServerKey,
    a: &LweCiphertext,
    b: &LweCiphertext,
    c: &LweCiphertext,
) -> Result<LweCiphertext, TfheError> {
    check(server, &[a, b, c])?;
    telemetry::count_named("tfhe.gate.majority", 1);
    Ok(server.bootstrap_to_bit(&a.add(b).add(c)))
}

/// MUX(c, a, b) = (c AND a) OR (NOT c AND b), three bootstraps.
///
/// # Errors
///
/// Returns [`TfheError::Mismatch`] on dimension disagreement.
pub fn mux(
    server: &ServerKey,
    c: &LweCiphertext,
    a: &LweCiphertext,
    b: &LweCiphertext,
) -> Result<LweCiphertext, TfheError> {
    telemetry::count_named("tfhe.gate.mux", 1);
    let t = and(server, c, a)?;
    let f = and(server, &not(c), b)?;
    or(server, &t, &f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_keys, TfheParams};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn all_binary_gate_truth_tables() {
        let mut rng = ChaCha8Rng::seed_from_u64(30);
        let (client, server) = generate_keys(&TfheParams::toy(), &mut rng).unwrap();
        for (x, y) in [(false, false), (false, true), (true, false), (true, true)] {
            let a = client.encrypt_bit(x, &mut rng);
            let b = client.encrypt_bit(y, &mut rng);
            assert_eq!(client.decrypt_bit(&nand(&server, &a, &b).unwrap()), !(x && y));
            assert_eq!(client.decrypt_bit(&and(&server, &a, &b).unwrap()), x && y);
            assert_eq!(client.decrypt_bit(&or(&server, &a, &b).unwrap()), x || y);
            assert_eq!(client.decrypt_bit(&nor(&server, &a, &b).unwrap()), !(x || y));
            assert_eq!(client.decrypt_bit(&xor(&server, &a, &b).unwrap()), x ^ y);
            assert_eq!(client.decrypt_bit(&xnor(&server, &a, &b).unwrap()), !(x ^ y));
            assert_eq!(client.decrypt_bit(&not(&a)), !x);
        }
    }

    #[test]
    fn mux_selects() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let (client, server) = generate_keys(&TfheParams::toy(), &mut rng).unwrap();
        for sel in [true, false] {
            let c = client.encrypt_bit(sel, &mut rng);
            let a = client.encrypt_bit(true, &mut rng);
            let b = client.encrypt_bit(false, &mut rng);
            let out = mux(&server, &c, &a, &b).unwrap();
            assert_eq!(client.decrypt_bit(&out), sel);
        }
    }

    #[test]
    fn majority_truth_table() {
        let mut rng = ChaCha8Rng::seed_from_u64(34);
        let (client, server) = generate_keys(&TfheParams::toy(), &mut rng).unwrap();
        for bits in 0u8..8 {
            let (x, y, z) = (bits & 1 == 1, bits & 2 == 2, bits & 4 == 4);
            let a = client.encrypt_bit(x, &mut rng);
            let b = client.encrypt_bit(y, &mut rng);
            let c = client.encrypt_bit(z, &mut rng);
            let m = majority(&server, &a, &b, &c).unwrap();
            let expect = (x as u8 + y as u8 + z as u8) >= 2;
            assert_eq!(client.decrypt_bit(&m), expect, "{x} {y} {z}");
        }
    }

    #[test]
    fn nand_at_paper_parameter_set_i() {
        // One gate at the realistic Matcha/Concrete-style parameters
        // (n = 630, N = 1024): exercises the production-size NTT path.
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let (client, server) = generate_keys(&TfheParams::set_i(), &mut rng).unwrap();
        let a = client.encrypt_bit(true, &mut rng);
        let b = client.encrypt_bit(false, &mut rng);
        assert!(client.decrypt_bit(&nand(&server, &a, &b).unwrap()));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        let (_, server) = generate_keys(&TfheParams::toy(), &mut rng).unwrap();
        let bad = LweCiphertext::trivial(0, 3);
        assert!(nand(&server, &bad, &bad).is_err());
    }
}
