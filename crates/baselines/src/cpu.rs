//! Live CPU reference measurements using this workspace's own software
//! implementations — the "CPU" column of Table 7 and the Concrete row of
//! Fig. 6(b), measured on the build machine (single thread).
//!
//! At the paper's parameters (`N = 2^16, L = 44`) a software `Cmult` takes
//! seconds, so the table binaries measure a handful of iterations; unit
//! tests use reduced parameters to validate the harness.

use fhe_ckks::{CkksContext, CkksError, CkksParams, Encoder, Evaluator, RelinKey, SecretKey};
use fhe_tfhe::{generate_keys, TfheError, TfheParams};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Which CKKS basic operation to measure (Table 7 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkksOp {
    /// Plaintext multiplication.
    Pmult,
    /// Homomorphic addition.
    Hadd,
    /// Hybrid key switch.
    Keyswitch,
    /// Ciphertext multiplication (with relinearization + rescale).
    Cmult,
    /// Slot rotation.
    Rotation,
}

impl CkksOp {
    /// All Table 7 rows, in order.
    pub fn all() -> [CkksOp; 5] {
        [CkksOp::Pmult, CkksOp::Hadd, CkksOp::Keyswitch, CkksOp::Cmult, CkksOp::Rotation]
    }

    /// Row label.
    pub fn label(&self) -> &'static str {
        match self {
            CkksOp::Pmult => "Pmult",
            CkksOp::Hadd => "Hadd",
            CkksOp::Keyswitch => "Keyswitch",
            CkksOp::Cmult => "Cmult",
            CkksOp::Rotation => "Rotation",
        }
    }
}

/// Measures one CKKS op on this machine; returns seconds per operation.
///
/// # Errors
///
/// Propagates scheme errors (key generation, evaluation).
pub fn measure_ckks_op(
    params: CkksParams,
    op: CkksOp,
    iterations: usize,
) -> Result<f64, CkksError> {
    let ctx = CkksContext::new(params)?;
    let mut rng = ChaCha8Rng::seed_from_u64(1234);
    let sk = SecretKey::generate(&ctx, &mut rng)?;
    let enc = Encoder::new(&ctx);
    let ev = Evaluator::new(&ctx);
    let values: Vec<f64> = (0..enc.slots().min(64)).map(|i| (i as f64) * 0.01).collect();
    let pt = enc.encode(&values)?;
    let ct = sk.encrypt(&ctx, &pt, &mut rng)?;

    let rlk = match op {
        CkksOp::Cmult => Some(RelinKey::generate(&ctx, &sk, &mut rng)?),
        _ => None,
    };
    let gk = match op {
        CkksOp::Rotation | CkksOp::Keyswitch => {
            Some(fhe_ckks::GaloisKeys::generate(&ctx, &sk, &[1], false, &mut rng)?)
        }
        _ => None,
    };

    let start = Instant::now();
    for _ in 0..iterations.max(1) {
        match op {
            CkksOp::Pmult => {
                let _ = ev.mul_plain(&ct, &pt)?;
            }
            CkksOp::Hadd => {
                let _ = ev.add(&ct, &ct)?;
            }
            CkksOp::Keyswitch => {
                // A rotation without the automorphism ≈ one raw key switch.
                let key = gk
                    .as_ref()
                    .and_then(|g| g.rotation_key(1))
                    .ok_or(CkksError::MissingKey { detail: "rotation key".into() })?;
                let _ = ev.keyswitch_core(ct.c1(), key, ct.level())?;
            }
            CkksOp::Cmult => {
                let r = rlk.as_ref().expect("generated above");
                let _ = ev.rescale(&ev.mul(&ct, &ct, r)?)?;
            }
            CkksOp::Rotation => {
                let g = gk.as_ref().expect("generated above");
                let _ = ev.rotate(&ct, 1, g)?;
            }
        }
    }
    Ok(start.elapsed().as_secs_f64() / iterations.max(1) as f64)
}

/// Measures gate-bootstrapped TFHE PBS throughput on this machine
/// (seconds per bootstrap).
///
/// # Errors
///
/// Propagates scheme errors.
pub fn measure_tfhe_pbs(params: TfheParams, iterations: usize) -> Result<f64, TfheError> {
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let (client, server) = generate_keys(&params, &mut rng)?;
    let ct = client.encrypt_bit(true, &mut rng);
    let start = Instant::now();
    for _ in 0..iterations.max(1) {
        let _ = server.bootstrap_to_bit(&ct);
    }
    Ok(start.elapsed().as_secs_f64() / iterations.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ckks_measurements_run_at_toy_params() {
        let params = CkksParams::toy().unwrap();
        for op in CkksOp::all() {
            let t = measure_ckks_op(params.clone(), op, 2).unwrap();
            assert!(t > 0.0 && t < 10.0, "{}: {t} s", op.label());
        }
    }

    #[test]
    fn tfhe_measurement_runs_at_toy_params() {
        let t = measure_tfhe_pbs(TfheParams::toy(), 2).unwrap();
        assert!(t > 0.0 && t < 10.0, "PBS {t} s");
    }

    #[test]
    fn cheap_ops_are_faster_than_keyswitch() {
        let params = CkksParams::small().unwrap();
        let hadd = measure_ckks_op(params.clone(), CkksOp::Hadd, 3).unwrap();
        let ks = measure_ckks_op(params, CkksOp::Keyswitch, 3).unwrap();
        assert!(hadd < ks, "Hadd {hadd} s vs Keyswitch {ks} s");
    }
}
