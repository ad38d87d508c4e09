//! `cross_threshold`: the paper's §1 scenario at real TFHE size.
//!
//! Two encrypted integer scores are added on CKKS (`N = 2^11`, 33-bit
//! `q_0`, `Δ = 2^30`, so `q_0/Δ = 8` torus sectors), dropped to level 0,
//! switched onto the TFHE key without decryption, and thresholded
//! (`sum ≥ 3`) by a programmable bootstrap at parameter set I. Blind
//! rotation does nearly all the work; the bridge is the cross-scheme
//! boundary no other workload reaches; the CKKS side is negligible, so a
//! Bconv or key-switch change must not move this workload.

use std::time::Duration;

use fhe_ckks::{Ciphertext, CkksContext, CkksParams, Encoder, Evaluator, SecretKey};
use fhe_tfhe::{generate_keys, ClientKey, ServerKey, TfheParams};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use scheme_bridge::CkksToTfheBridge;

use super::{run_units, Slice, Workload};
use crate::spans::Tracer;

/// Encrypted operand pairs the units cycle through.
const PAIRS: usize = 8;
/// The decision the LUT computes.
const THRESHOLD: u64 = 3;

/// Seconds the two slow key generations of one set-up took.
#[derive(Clone, Copy)]
pub struct KeygenTimes {
    pub tfhe_s: f64,
    pub bridge_s: f64,
}

pub struct CrossThreshold {
    pub ctx: CkksContext,
    pub ckks_sk: SecretKey,
    pub client: ClientKey,
    pub server: ServerKey,
    pub bridge: CkksToTfheBridge,
    pub keygen: KeygenTimes,
    /// `(a + b, Enc(a), Enc(b))`.
    pairs: Vec<(u64, Ciphertext, Ciphertext)>,
}

impl CrossThreshold {
    /// Both schemes' keys, the bridge key and the encrypted operands.
    pub fn setup(seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let params = CkksParams::with_first_prime_bits(1 << 11, 2, 1, 30, 33).expect("bridge ring");
        let ctx = CkksContext::new(params).expect("context");
        let ckks_sk = SecretKey::generate(&ctx, &mut rng).expect("ckks secret key");
        let t = std::time::Instant::now();
        let (client, server) = generate_keys(&TfheParams::set_i(), &mut rng).expect("tfhe keys");
        let tfhe_s = t.elapsed().as_secs_f64();
        let t = std::time::Instant::now();
        let bridge = CkksToTfheBridge::new(&ctx, &ckks_sk, &client, &mut rng).expect("bridge key");
        let bridge_s = t.elapsed().as_secs_f64();
        let enc = Encoder::new(&ctx);
        let encrypt = |m: u64, rng: &mut ChaCha8Rng| {
            let pt = enc.encode(&vec![m as f64; enc.slots()]).expect("encode score");
            ckks_sk.encrypt(&ctx, &pt, rng).expect("encrypt score")
        };
        let pairs = (0..PAIRS)
            .map(|_| {
                // 1 ≤ a + b ≤ 3: sums stay in the lower half of the 8
                // sectors, and off sector 0, whose boundary with the
                // negacyclic upper half flips the LUT sign under noise.
                let sum = rng.gen_range(1..=3u64);
                let a = rng.gen_range(0..=sum);
                (sum, encrypt(a, &mut rng), encrypt(sum - a, &mut rng))
            })
            .collect();
        let keygen = KeygenTimes { tfhe_s, bridge_s };
        CrossThreshold { ctx, ckks_sk, client, server, bridge, keygen, pairs }
    }

    /// One pipeline; `true` when the decrypted decision is right.
    fn pipeline(&self, unit: u64, tr: &mut Tracer) -> bool {
        let ev = Evaluator::new(&self.ctx);
        let (sum, a, b) = &self.pairs[unit as usize % PAIRS];
        let space = self.bridge.message_space();
        let root = tr.open("cross_threshold.pipeline", unit);
        let total = tr.scope("fhe_ckks.add", unit, || ev.add(a, b)).expect("add");
        let total = tr.scope("fhe_ckks.level_down", unit, || ev.level_down(&total, 0));
        let total = total.expect("level down");
        let lwe = tr.scope("bridge.switch", unit, || self.bridge.switch(&self.ctx, &total, 0));
        let lwe = lwe.expect("switch");
        let decision = tr.scope("fhe_tfhe.bootstrap_with_lut", unit, || {
            self.server.bootstrap_with_lut(&lwe, space, |m| u64::from(m >= THRESHOLD))
        });
        tr.close(root);
        let flag = self.client.decrypt_message(&decision.expect("bootstrap"), space) == 1;
        flag == (*sum >= THRESHOLD)
    }
}

impl Workload for CrossThreshold {
    const SLICES: usize = 5;

    fn warm_up(&mut self) {
        self.pipeline(0, &mut Tracer::new(false));
    }

    fn slice(&mut self, budget: Duration, tr: &mut Tracer) -> Slice {
        run_units(budget, |unit| self.pipeline(unit, tr))
    }
}
