//! `ckks_mlp`: encrypted two-layer inference on the library alone.
//!
//! The `MlpModel::infer_encrypted` graph — BSGS linear layer, bias,
//! square with relinearisation and rescale, BSGS linear layer, bias — at
//! `N = 2^12, L = 6, dnum = 3, Δ = 2^36`, with two banded 16-diagonal
//! layers. `fhe-math` kernels (NTT, Modup/Moddown, element-wise) and the
//! `fhe-ckks` key switch and hoisting do all the work and `service` does
//! none, so a kernel or allocation win shows here and nowhere on
//! `serve_*`.

use std::time::Duration;

use fhe_ckks::linear::LinearTransform;
use fhe_ckks::{
    Ciphertext, CkksContext, CkksParams, Complex64, Encoder, Evaluator, GaloisKeys, RelinKey,
    SecretKey,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use super::{run_units, Slice, Workload};
use crate::spans::Tracer;

/// Nonzero diagonals per layer.
const DIAGONALS: usize = 16;
/// Distinct encrypted inputs the units cycle through.
const INPUTS: usize = 4;
/// Largest slot error accepted against the cleartext reference.
const MAX_ERROR: f64 = 1e-3;

/// The ring the `mlp` per-layer rows are measured on.
pub fn params() -> CkksParams {
    CkksParams::new(1 << 12, 6, 3, 36).expect("mlp ring parameters construct")
}

/// A banded layer with `DIAGONALS` diagonals of entries in `±0.5/DIAGONALS`.
fn banded_layer(slots: usize, rng: &mut ChaCha8Rng) -> LinearTransform {
    let scale = 1.0 / DIAGONALS as f64;
    LinearTransform::from_diagonals(
        slots,
        (0..DIAGONALS).map(|d| {
            let diag =
                (0..slots).map(|_| Complex64::new(rng.gen_range(-0.5..0.5) * scale, 0.0)).collect();
            (d, diag)
        }),
    )
    .expect("diagonals match the slot count")
}

pub struct CkksMlp {
    ctx: CkksContext,
    sk: SecretKey,
    rlk: RelinKey,
    gk: GaloisKeys,
    w1: LinearTransform,
    b1: Vec<f64>,
    w2: LinearTransform,
    b2: Vec<f64>,
    inputs: Vec<(Vec<f64>, Ciphertext)>,
    /// Largest slot error of the inferences verified so far.
    pub max_error: f64,
}

impl CkksMlp {
    /// Context, keys, weights and encrypted inputs, all from `seed`.
    pub fn setup(seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let ctx = CkksContext::new(params()).expect("context");
        let sk = SecretKey::generate(&ctx, &mut rng).expect("secret key");
        let rlk = RelinKey::generate(&ctx, &sk, &mut rng).expect("relin key");
        let slots = ctx.n() / 2;
        let w1 = banded_layer(slots, &mut rng);
        let w2 = banded_layer(slots, &mut rng);
        let mut rotations = w1.required_rotations_bsgs();
        rotations.extend(w2.required_rotations_bsgs());
        rotations.sort_unstable();
        rotations.dedup();
        let gk = GaloisKeys::generate(&ctx, &sk, &rotations, false, &mut rng).expect("galois keys");
        let bias = |rng: &mut ChaCha8Rng| (0..slots).map(|_| rng.gen_range(-0.1..0.1)).collect();
        let (b1, b2) = (bias(&mut rng), bias(&mut rng));
        let enc = Encoder::new(&ctx);
        let inputs = (0..INPUTS)
            .map(|_| {
                let x: Vec<f64> = (0..slots).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let pt = enc.encode(&x).expect("encode input");
                let ct = sk.encrypt(&ctx, &pt, &mut rng).expect("encrypt input");
                (x, ct)
            })
            .collect();
        CkksMlp { ctx, sk, rlk, gk, w1, b1, w2, b2, inputs, max_error: 0.0 }
    }

    /// One encrypted inference, every public call wrapped in a span.
    fn infer(&self, unit: u64, tr: &mut Tracer) -> Ciphertext {
        let enc = Encoder::new(&self.ctx);
        let ev = Evaluator::new(&self.ctx);
        let ct = &self.inputs[unit as usize % INPUTS].1;
        let root = tr.open("ckks_mlp.infer", unit);
        let h = tr.scope("fhe_ckks.linear.apply_bsgs", unit, || {
            self.w1.apply_bsgs(&ev, &enc, ct, &self.gk)
        });
        let h = h.expect("layer 1");
        let b1 =
            tr.scope("fhe_ckks.encode_at", unit, || enc.encode_at(&self.b1, h.level(), h.scale()));
        let h = tr.scope("fhe_ckks.add_plain", unit, || ev.add_plain(&h, &b1.expect("bias 1")));
        let h = h.expect("add bias 1");
        let sq =
            tr.scope("fhe_ckks.square_relin", unit, || ev.square(&h, &self.rlk)).expect("square");
        let h2 = tr.scope("fhe_ckks.rescale", unit, || ev.rescale(&sq)).expect("rescale");
        let out = tr.scope("fhe_ckks.linear.apply_bsgs", unit, || {
            self.w2.apply_bsgs(&ev, &enc, &h2, &self.gk)
        });
        let out = out.expect("layer 2");
        let b2 = tr.scope("fhe_ckks.encode_at", unit, || {
            enc.encode_at(&self.b2, out.level(), out.scale())
        });
        let out = tr.scope("fhe_ckks.add_plain", unit, || ev.add_plain(&out, &b2.expect("bias 2")));
        tr.close(root);
        out.expect("add bias 2")
    }

    /// `w2·(w1·x + b1)² + b2` in the clear.
    fn reference(&self, x: &[f64]) -> Vec<f64> {
        let layer = |t: &LinearTransform, b: &[f64], v: &[f64]| -> Vec<f64> {
            let v: Vec<Complex64> = v.iter().map(|&x| Complex64::new(x, 0.0)).collect();
            t.apply_reference(&v).into_iter().zip(b).map(|(z, &bi)| z.re + bi).collect()
        };
        let h: Vec<f64> = layer(&self.w1, &self.b1, x).iter().map(|&v| v * v).collect();
        layer(&self.w2, &self.b2, &h)
    }

    /// Decrypts `out` and returns its largest slot error against the
    /// reference for input `unit`.
    fn error_of(&self, unit: u64, out: &Ciphertext) -> f64 {
        let enc = Encoder::new(&self.ctx);
        let got = enc.decode(&self.sk.decrypt(out).expect("decrypt")).expect("decode");
        let want = self.reference(&self.inputs[unit as usize % INPUTS].0);
        want.iter().zip(&got).map(|(w, g)| (w - g).abs()).fold(0.0, f64::max)
    }
}

impl Workload for CkksMlp {
    // Three inferences a slice: in an episode (see `workloads`) the lowest
    // slice p95 spread 2.6 % over eight runs with three, 10.9 % with seven.
    const SLICES: usize = 25;

    fn warm_up(&mut self) {
        self.infer(0, &mut Tracer::new(false));
    }

    fn slice(&mut self, budget: Duration, tr: &mut Tracer) -> Slice {
        let mut last = None;
        let mut slice = run_units(budget, |unit| {
            last = Some((unit, self.infer(unit, tr)));
            true
        });
        // Decrypting costs a seventh of an inference, so one inference
        // per slice is checked, outside the timed units.
        let (unit, out) = last.expect("ran at least one inference");
        let error = self.error_of(unit, &out);
        self.max_error = self.max_error.max(error);
        if error > MAX_ERROR {
            slice.failed += 1;
        }
        slice
    }
}
