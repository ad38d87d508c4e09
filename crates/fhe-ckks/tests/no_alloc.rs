//! Allocation budgets of the CKKS calls a served request is made of, held
//! exactly.
//!
//! Counted with the tracking global allocator (`telemetry::alloc`) on one
//! warmed-up call — the fixture and the `mul + rescale`, `encode` and
//! `decode` numbers are the `ckks_*` rows
//! `bench_kernels --smoke --alloc-profile` prints. The `apply_bsgs` row is a
//! layer whose diagonals are already encoded (`linear.rs`): a call that
//! encoded its nine diagonals again would add nine encodes to it. Every
//! channel buffer it works in — the `Q·P` babies, inner sum and
//! accumulator, stage 1 — comes from the scratch pool and goes back to it;
//! the only channel-sized allocations are the six 2 KB buffers that top the
//! pool back up behind the result's `2(c − 1)` channels.
//! Equality, no slack: a count that moves, up or down, is a change to the
//! hot path's memory behaviour and edits the number here in the same PR.

use fhe_ckks::linear::LinearTransform;
use fhe_ckks::{
    CkksContext, CkksParams, Complex64, Encoder, Evaluator, GaloisKeys, RelinKey, SecretKey,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use telemetry::alloc::alloc_delta;

/// `(allocations, bytes requested)` of one call of `f` after one warm-up.
fn steady_state<R>(mut f: impl FnMut() -> R) -> (u64, u64) {
    f();
    let (_, d) = alloc_delta(&mut f);
    (d.allocs, d.bytes)
}

#[test]
fn warmed_up_calls_allocate_exactly_their_budget() {
    let ctx = CkksContext::new(CkksParams::new(256, 3, 2, 36).unwrap()).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let sk = SecretKey::generate(&ctx, &mut rng).unwrap();
    let rlk = RelinKey::generate(&ctx, &sk, &mut rng).unwrap();
    let enc = Encoder::new(&ctx);
    let ev = Evaluator::new(&ctx);
    let values: Vec<f64> = (0..ctx.n() / 2).map(|j| ((j % 7) as f64 - 3.0) * 0.25).collect();
    let pt = enc.encode(&values).unwrap();
    let ca = sk.encrypt(&ctx, &pt, &mut rng).unwrap();
    let cb = sk.encrypt(&ctx, &pt, &mut rng).unwrap();
    // Nine real diagonals: g = 3, babies {1, 2}, giants {3, 6}.
    let layer = LinearTransform::from_diagonals(
        values.len(),
        (0..9).map(|d| (d, vec![Complex64::new(0.1 / (d + 1) as f64, 0.0); values.len()])),
    )
    .unwrap();
    let gk =
        GaloisKeys::generate(&ctx, &sk, &layer.required_rotations_bsgs(), false, &mut rng).unwrap();

    let measured = [
        ("mul + rescale", steady_state(|| ev.rescale(&ev.mul(&ca, &cb, &rlk).unwrap()).unwrap())),
        ("apply_bsgs", steady_state(|| layer.apply_bsgs(&ev, &enc, &ca, &gk).unwrap())),
        ("encode", steady_state(|| enc.encode(&values).unwrap())),
        ("decode", steady_state(|| enc.decode(&pt).unwrap())),
    ];
    assert_eq!(
        measured,
        [
            ("mul + rescale", (50, 68_480)),
            ("apply_bsgs", (50, 20_744)),
            ("encode", (8, 14_592)),
            ("decode", (8, 12_576)),
        ]
    );
}
