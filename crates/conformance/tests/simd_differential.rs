//! SIMD-vs-scalar differential sweep.
//!
//! The vector kernels promise *bit-identical* output to the always-compiled
//! scalar fallback. This file checks that promise two ways:
//!
//! 1. every conformance fuzz family passes with the scalar backend forced
//!    (the per-family tests in `conformance.rs` already cover the
//!    auto-dispatched backend, and each family compares exact values
//!    against an independent oracle, so passing under both backends pins
//!    the canonical outputs to the same bits), and
//! 2. a direct raw-output diff of the lazy/canonical NTT entry points and
//!    the element-wise RNS ops, backend against backend, including the
//!    `[0, 2q)` lazy intermediates the oracle never sees.
//!
//! Everything lives in ONE `#[test]` because `set_force_scalar` is a
//! process-global switch and the libtest harness runs sibling tests
//! concurrently.

use conformance::{case_budget, default_seed, run_family, Family, SplitMix64};
use fhe_math::simd::{active_backend, set_force_scalar};
use fhe_math::{generate_ntt_primes, Modulus, NttTable, Poly, RnsBasis, RnsContext};

/// Runs `f` once per backend and returns both results (scalar first).
/// Restores the auto-dispatched backend afterwards even on panic.
fn per_backend<T>(mut f: impl FnMut() -> T) -> (T, T) {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            set_force_scalar(false);
        }
    }
    let _restore = Restore;
    set_force_scalar(true);
    let scalar = f();
    set_force_scalar(false);
    let auto = f();
    (scalar, auto)
}

fn draws(seed: u64, count: usize, bound: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..count).map(|_| rng.below(bound)).collect()
}

#[test]
fn simd_and_scalar_paths_are_bit_identical() {
    // Part 1: every fuzz family, scalar backend forced. A reduced budget
    // keeps the combined sweep under the per-family tests' wall time.
    let seed = default_seed();
    let cases = case_budget(250);
    {
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                set_force_scalar(false);
            }
        }
        let _restore = Restore;
        set_force_scalar(true);
        assert_eq!(active_backend().name(), "scalar");
        for family in Family::ALL {
            if let Err(repro) = run_family(family, seed, cases) {
                panic!("scalar-backend conformance failure: {repro}");
            }
        }
    }

    // Part 2: raw-output diffs, lazy intermediates included.
    for n in [64usize, 256, 4096] {
        let q = Modulus::new(generate_ntt_primes(50, n, 1).unwrap()[0]).unwrap();
        let table = NttTable::new(q, n).unwrap();
        let data = draws(0xD1FF_0000 ^ n as u64, n, q.value());

        let (s, v) = per_backend(|| {
            let mut a = data.clone();
            table.forward_lazy(&mut a);
            a
        });
        assert_eq!(s, v, "forward_lazy diverges at n={n}");

        let lazy = s;
        let (s, v) = per_backend(|| {
            let mut a = lazy.clone();
            table.inverse_lazy(&mut a);
            a
        });
        assert_eq!(s, v, "inverse_lazy diverges at n={n}");

        let (s, v) = per_backend(|| {
            let mut a = data.clone();
            table.forward(&mut a);
            table.inverse(&mut a);
            a
        });
        assert_eq!(s, v, "canonical round trip diverges at n={n}");
        assert_eq!(v, data, "round trip is not the identity at n={n}");

        // Element-wise RNS ops through the Poly layer.
        let pa = Poly::from_coeffs(data.clone(), q).unwrap();
        let pb = Poly::from_coeffs(draws(0xD1FF_0001 ^ n as u64, n, q.value()), q).unwrap();
        let (s, v) = per_backend(|| {
            let sum = pa.add(&pb).unwrap();
            let diff = pa.sub(&pb).unwrap();
            let prod = pa.mul(&pb, &table).unwrap();
            let neg = pa.neg();
            let scaled = pa.scalar_mul(0x1234_5678);
            (sum, diff, prod, neg, scaled)
        });
        assert_eq!(s, v, "element-wise Poly ops diverge at n={n}");
    }

    // Moddown end to end (the fused `(a-b)·w` kernel), both backends.
    {
        let n = 512;
        let moduli: Vec<Modulus> = generate_ntt_primes(50, n, 4)
            .unwrap()
            .into_iter()
            .map(|p| Modulus::new(p).unwrap())
            .collect();
        let values: Vec<Vec<u64>> = moduli
            .iter()
            .enumerate()
            .map(|(c, m)| draws(0xD1FF_0002 + c as u64, n, m.value()))
            .collect();
        let ctx = RnsContext::new(n, RnsBasis::new(moduli).unwrap()).unwrap();
        let q_refs: Vec<&[u64]> = values[..2].iter().map(Vec::as_slice).collect();
        let p_refs: Vec<&[u64]> = values[2..].iter().map(Vec::as_slice).collect();
        let (s, v) = per_backend(|| ctx.moddown(&q_refs, &p_refs, &[0, 1], &[2, 3]).unwrap());
        assert_eq!(s, v, "moddown diverges between backends");
    }
}
