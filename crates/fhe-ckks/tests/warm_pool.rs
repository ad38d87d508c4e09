//! A warmed-up key switch draws every buffer it needs from this thread's
//! scratch pool: stage 1's coefficient copies and converted digits, the
//! `Q·P` accumulator and the close's conversion buffer. A result keeps the
//! accumulator's pooled channels and the close tops the pool up with new
//! ones, so a repeated `rotate_hoisted` misses nothing.
//!
//! Its own binary with one test: `scratch_stats` is process-wide, and the
//! thread cap is pinned to one so no parallel worker's short-lived pool
//! runs.

use fhe_ckks::{CkksContext, CkksParams, Encoder, Evaluator, GaloisKeys, SecretKey};
use fhe_math::{par, scratch_stats};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn a_warmed_rotate_hoisted_misses_nothing_at_the_mlp_ring() {
    par::set_max_threads(1);
    let ctx = CkksContext::new(CkksParams::new(1 << 12, 6, 3, 36).unwrap()).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(19);
    let sk = SecretKey::generate(&ctx, &mut rng).unwrap();
    let gk = GaloisKeys::generate(&ctx, &sk, &[1, 2, 3], false, &mut rng).unwrap();
    let enc = Encoder::new(&ctx);
    let ev = Evaluator::new(&ctx);
    let values: Vec<f64> = (0..enc.slots()).map(|j| (j % 9) as f64 / 8.0 - 0.5).collect();
    let top = sk.encrypt(&ctx, &enc.encode(&values).unwrap(), &mut rng).unwrap();
    for level in [6, 4] {
        let ct = ev.level_down(&top, level).unwrap();
        let hoisted = || drop(ev.rotate_hoisted(&ct, &[1, 2, 3], &gk).unwrap());
        hoisted();
        let warm = scratch_stats();
        for _ in 0..3 {
            hoisted();
        }
        let after = scratch_stats();
        assert_eq!(after.misses, warm.misses, "a warmed call drew a buffer at level {level}");
        assert!(after.hits > warm.hits);
    }
}
