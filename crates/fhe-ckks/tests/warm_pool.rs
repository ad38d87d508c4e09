//! A warmed-up key switch draws every buffer it needs from this thread's
//! scratch pool: stage 1's coefficient copies and converted digits, the
//! `Q·P` accumulator and the close's conversion buffer. A result keeps the
//! accumulator's pooled channels and the close tops the pool up with new
//! ones, so a repeated `rotate_hoisted` misses nothing. A BSGS layer holds
//! far more at once — its babies in `Q·P` beside the final accumulator, a
//! giant's `c1` half and its stage 1, 115 buffers at level 6 — and tops the
//! pool up to that, inside its cap, so a repeated `apply_bsgs` misses
//! nothing either.
//!
//! Its own binary with one test: `scratch_stats` is process-wide.

use fhe_ckks::linear::LinearTransform;
use fhe_ckks::{CkksContext, CkksParams, Complex64, Encoder, Evaluator, GaloisKeys, SecretKey};
use fhe_math::scratch_stats;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn warmed_hoisted_rotations_and_layers_miss_nothing_at_the_mlp_ring() {
    let ctx = CkksContext::new(CkksParams::new(1 << 12, 6, 3, 36).unwrap()).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(19);
    let sk = SecretKey::generate(&ctx, &mut rng).unwrap();
    let enc = Encoder::new(&ctx);
    let ev = Evaluator::new(&ctx);
    // The `ckks_mlp` layer shape: 16 banded diagonals, g = 4, babies
    // {1, 2, 3}, giants {4, 8, 12}.
    let layer = LinearTransform::from_diagonals(
        enc.slots(),
        (0..16).map(|d| (d, vec![Complex64::new(0.5 / (d + 1) as f64, 0.0); enc.slots()])),
    )
    .unwrap();
    let gk =
        GaloisKeys::generate(&ctx, &sk, &layer.required_rotations_bsgs(), false, &mut rng).unwrap();
    let values: Vec<f64> = (0..enc.slots()).map(|j| (j % 9) as f64 / 8.0 - 0.5).collect();
    let top = sk.encrypt(&ctx, &enc.encode(&values).unwrap(), &mut rng).unwrap();
    for level in [6, 4] {
        let ct = ev.level_down(&top, level).unwrap();
        let hoisted = || drop(ev.rotate_hoisted(&ct, &[1, 2, 3], &gk).unwrap());
        let bsgs = || drop(layer.apply_bsgs(&ev, &enc, &ct, &gk).unwrap());
        for (name, call) in [("rotate_hoisted", &hoisted as &dyn Fn()), ("apply_bsgs", &bsgs)] {
            call();
            let warm = scratch_stats();
            for _ in 0..3 {
                call();
            }
            let after = scratch_stats();
            assert_eq!(after.misses, warm.misses, "a warmed {name} drew a buffer at level {level}");
            assert!(after.hits > warm.hits);
        }
    }
}
