//! Model = implementation: the evaluator performs exactly the channel
//! transforms its stage diagram states (`eval.rs` module header), and where
//! every digit is full that is the count `metaop::counts::keyswitch`
//! charges: `c + β(t−α) + 2t`.
//!
//! With `c = level + 1`, `K` special primes, `t = c + K` and `β` occupied
//! digits, one key switch is `c` inverse + `β·t − c` forward (stage 1) and
//! `2K` inverse + `2c` forward (stage 3); an automorphism is a gather and
//! costs none.
//!
//! For a whole inference (the `ckks_mlp` graph) the evaluator's tally is the
//! sum of its operations' budgets on every call, and the weights' encodes —
//! which the model does not charge — are paid by the first call only
//! (`ckks.encode.forward`; `linear.rs`).
//!
//! Its own test binary: the telemetry handle is process-global.

use fhe_ckks::linear::LinearTransform;
use fhe_ckks::{
    CkksContext, CkksParams, Complex64, Encoder, Evaluator, GaloisKeys, RelinKey, SecretKey,
};
use metaop::counts::{keyswitch, ntt_counts, CkksCountParams};
use rand::SeedableRng;

/// `(forward, inverse)` transforms of stage 1 and of stage 3 at `level`.
fn stages(ctx: &CkksContext, level: usize) -> ((u64, u64), (u64, u64)) {
    let (c, k) = (level as u64 + 1, ctx.k_len() as u64);
    let beta = ctx.digits_at_level(level).len() as u64;
    ((beta * (c + k) - c, c), (2 * c, 2 * k))
}

#[test]
fn evaluator_records_the_modelled_transform_counts() {
    let tel = telemetry::Telemetry::enabled();
    assert!(telemetry::install(tel.clone()), "this binary installs the only handle");
    // The `ckks_mlp` benchmark ring: N = 2^12, L = 6, dnum = 3 (α = K = 3).
    let (n, l_max, dnum) = (1usize << 12, 6usize, 3usize);
    let ctx = CkksContext::new(CkksParams::new(n, l_max, dnum, 36).unwrap()).unwrap();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(15);
    let sk = SecretKey::generate(&ctx, &mut rng).unwrap();
    let rlk = RelinKey::generate(&ctx, &sk, &mut rng).unwrap();
    let enc = Encoder::new(&ctx);
    let ev = Evaluator::new(&ctx);
    let slots = enc.slots();

    // Sixteen banded diagonals: g = 4, babies {1, 2, 3}, giants {4, 8, 12}.
    let layer = LinearTransform::from_diagonals(
        slots,
        (0..16).map(|d| (d, vec![Complex64::new(1.0 / (d + 1) as f64, 0.0); slots])),
    )
    .unwrap();
    assert_eq!(layer.required_rotations_bsgs(), vec![1, 2, 3, 4, 8, 12]);
    let gk =
        GaloisKeys::generate(&ctx, &sk, &layer.required_rotations_bsgs(), true, &mut rng).unwrap();
    let values: Vec<f64> = (0..slots).map(|j| (j % 5) as f64 * 0.1).collect();
    let top = sk.encrypt(&ctx, &enc.encode(&values).unwrap(), &mut rng).unwrap();

    // `(forward, inverse)` transforms recorded while `op` runs.
    let recorded = |op: &mut dyn FnMut()| {
        let before = tel.snapshot();
        op();
        let after = tel.snapshot();
        let delta = |name: &str| after.named_counter(name) - before.named_counter(name);
        (delta("ckks.ntt.forward"), delta("ckks.ntt.inverse"))
    };

    let mut full_levels = 0;
    for level in 0..=l_max {
        let ct = ev.level_down(&top, level).unwrap();
        let ((fwd1, inv1), (fwd3, inv3)) = stages(&ctx, level);
        let one_switch = (fwd1 + fwd3, inv1 + inv3);

        let mut op = || drop(ev.keyswitch_core(ct.c1(), rlk.switch_key(), level).unwrap());
        assert_eq!(recorded(&mut op), one_switch, "keyswitch_core at level {level}");
        // The automorphism is a permutation: a rotation is one key switch.
        let mut op = || drop(ev.rotate(&ct, 1, &gk).unwrap());
        assert_eq!(recorded(&mut op), one_switch, "rotate at level {level}");
        let mut op = || drop(ev.conjugate(&ct, &gk).unwrap());
        assert_eq!(recorded(&mut op), one_switch, "conjugate at level {level}");

        // A hoisted group of r rotations: one shared stage 1, r·2t after.
        let r = 3;
        let mut op = || drop(ev.rotate_hoisted(&ct, &[1, 2, 3], &gk).unwrap());
        let hoisted = (fwd1 + r * fwd3, inv1 + r * inv3);
        assert_eq!(recorded(&mut op), hoisted, "rotate_hoisted at level {level}");

        if level > 0 {
            let mut op = || drop(ev.mul(&ct, &ct, &rlk).unwrap());
            assert_eq!(recorded(&mut op), one_switch, "mul at level {level}");
            let mut op = || drop(ev.rescale(&ct).unwrap());
            assert_eq!(recorded(&mut op), (2 * level as u64, 2), "rescale at level {level}");

            // A BSGS layer, double-hoisted: the three babies share one
            // stage 1 (`S = β·t`) and stay in `Q·P`, with no close of their
            // own; each of the three giant rotations pays one Moddown of
            // its inner sum's `c1` half onto `Q_level` (`K` inverse, `c`
            // forward) and a stage 1 of it (`S`); one ModDown·Rescale closes
            // the whole sum — `q_level` joins `P`, so it is still `2t`
            // (`2(c − 1)` forward, `2(K + 1)` inverse) and the rescale
            // costs nothing: `S + 3·(K + c + S) + 2t = 4S + 5t`.
            let mut op = || drop(layer.apply_bsgs(&ev, &enc, &ct, &gk).unwrap());
            let (c, k) = (level as u64 + 1, ctx.k_len() as u64);
            let close = (2 * level as u64, 2 * (k + 1));
            assert_eq!(close.0 + close.1, fwd3 + inv3, "the fused close is 2t");
            let giant = (c + fwd1, k + inv1);
            let bsgs = (fwd1 + 3 * giant.0 + close.0, inv1 + 3 * giant.1 + close.1);
            let (s, t) = (fwd1 + inv1, c + k);
            assert_eq!(bsgs.0 + bsgs.1, 4 * s + 5 * t);
            assert_eq!(recorded(&mut op), bsgs, "apply_bsgs at level {level}");
        }

        // Where every occupied digit is full, the count algebra agrees.
        let c = level + 1;
        let alpha = (l_max + 1).div_ceil(dnum);
        if c % alpha == 0 {
            let p = CkksCountParams {
                n: n as u64,
                l_max: l_max as u64,
                level: level as u64,
                dnum: dnum as u64,
            };
            assert_eq!(ctx.k_len() as u64, p.k(), "the model's K = α convention");
            let modelled = keyswitch(&p).ntt.original / ntt_counts(n as u64).original;
            assert_eq!(one_switch.0 + one_switch.1, modelled, "metaop keyswitch at level {level}");
            full_levels += 1;
        }
    }
    assert_eq!(full_levels, 2, "levels 2 and 5 have only full digits");

    // The `ckks_mlp` graph: layer, bias, square, rescale, layer, bias, on
    // two fresh layers (`layer` above is already encoded at level 6).
    let banded = || {
        LinearTransform::from_diagonals(
            slots,
            (0..16).map(|d| (d, vec![Complex64::new(0.03 / (d + 1) as f64, 0.0); slots])),
        )
        .unwrap()
    };
    let (w1, w2) = (banded(), banded());
    let bias = vec![0.05; slots];
    let mut encodes = Vec::new();
    for inference in 0..3 {
        let before = tel.snapshot();
        let h = w1.apply_bsgs(&ev, &enc, &top, &gk).unwrap();
        let h = ev.add_plain(&h, &enc.encode_at(&bias, h.level(), h.scale()).unwrap()).unwrap();
        let h = ev.rescale(&ev.square(&h, &rlk).unwrap()).unwrap();
        let out = w2.apply_bsgs(&ev, &enc, &h, &gk).unwrap();
        let b2 = enc.encode_at(&bias, out.level(), out.scale()).unwrap();
        assert_eq!(ev.add_plain(&out, &b2).unwrap().level(), 3);
        let after = tel.snapshot();
        let delta = |name: &str| after.named_counter(name) - before.named_counter(name);
        // 170 + 104 for the layers at levels 6 and 4 (`4S + 5t`: S = 30,
        // t = 10 and S = 16, t = 8), 36 + 12 for the square and its
        // rescale at level 5.
        let evaluator = delta("ckks.ntt.forward") + delta("ckks.ntt.inverse");
        assert_eq!(evaluator, 322, "evaluator transforms of inference {inference}");
        encodes.push(delta("ckks.encode.forward"));
    }
    // Once per layer, the twelve diagonals of a nonzero baby offset on
    // `Q_level ∪ P` and the four of offset 0 on `Q_level` alone (lifted by
    // `P`, no `P` images): 12·10 + 4·7 at level 6, 12·8 + 4·5 at level 4.
    // The biases' 6 + 4 are the caller's.
    assert_eq!(encodes, [274, 10, 10], "a cached layer encodes nothing");
}
