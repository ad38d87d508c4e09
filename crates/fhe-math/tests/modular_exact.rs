//! The branch-free canonical operations — `Modulus::{add, sub, neg,
//! mul_shoup, reduce_2q}` and the `Poly` passes over the `simd` slices —
//! against a `u128` reference at the operands where a conditional
//! subtraction decides: 0, 1, q − 1, a = b, a + b = q, and a Shoup product
//! that lands on q. `Modulus::reduce_u128` — the Meta-OP's `R` step, two
//! wide multiplications — against `u128 %` at every shipped modulus width,
//! at its edges and on a million random words each. Plus `sample_uniform`
//! against the draws `gen_range(0..q)` makes, value for value and stream
//! word for word.

use fhe_math::{generate_ntt_primes, sample_uniform, Modulus, NttTable, Poly};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One NTT prime of each width the schemes use, the widest allowed last.
fn moduli() -> Vec<Modulus> {
    [30u32, 36, 50, 61]
        .iter()
        .map(|&bits| {
            let q = generate_ntt_primes(bits, 1 << 4, 1).unwrap()[0];
            assert_eq!(64 - q.leading_zeros(), bits);
            Modulus::new(q).unwrap()
        })
        .collect()
}

/// Canonical operands around every decision point of a conditional
/// subtraction.
fn edges(q: u64) -> Vec<u64> {
    vec![0, 1, 2, q / 2 - 1, q / 2, q / 2 + 1, q - 2, q - 1]
}

/// Every ordered pair of edge operands, plus every `(a, q − a)`.
fn pairs(q: u64) -> Vec<(u64, u64)> {
    let e = edges(q);
    let mut out: Vec<(u64, u64)> = e.iter().flat_map(|&a| e.iter().map(move |&b| (a, b))).collect();
    out.extend(e.iter().filter(|&&a| a != 0).map(|&a| (a, q - a)));
    out
}

fn reference_mul(a: u64, b: u64, q: u64) -> u64 {
    (u128::from(a) * u128::from(b) % u128::from(q)) as u64
}

#[test]
fn modulus_ops_match_the_u128_reference_at_the_edges() {
    for m in moduli() {
        let q = m.value();
        for (a, b) in pairs(q) {
            let (wa, wb, wq) = (u128::from(a), u128::from(b), u128::from(q));
            assert_eq!(m.add(a, b), ((wa + wb) % wq) as u64, "add {a} {b} mod {q}");
            assert_eq!(m.sub(a, b), ((wa + wq - wb) % wq) as u64, "sub {a} {b} mod {q}");
            assert_eq!(m.mul_shoup(a, m.shoup(b)), reference_mul(a, b, q), "{a}·{b} mod {q}");
        }
        for a in edges(q) {
            assert_eq!(m.neg(a), ((u128::from(q) - u128::from(a)) % u128::from(q)) as u64);
            assert_eq!(m.reduce_2q(a), a);
            assert_eq!(m.reduce_2q(a + q), a, "reduce_2q {} mod {q}", a + q);
        }
    }
}

#[test]
fn a_shoup_product_landing_on_q_reduces_to_zero() {
    // `q·w` is 0 mod q and its lazy Shoup product is exactly `q` — the one
    // value the final conditional subtraction must take to 0, not keep.
    for m in moduli() {
        let q = m.value();
        for w in edges(q).into_iter().filter(|&w| w != 0) {
            let ws = m.shoup(w);
            assert_eq!(m.mul_shoup_lazy(q, ws), q, "lazy q·{w} mod {q}");
            assert_eq!(m.reduce_2q(m.mul_shoup_lazy(q, ws)), 0);
            // The canonical slice pass accepts any input word.
            let mut p = Poly::from_coeffs(vec![0; 8], m).unwrap();
            p.coeffs_mut().copy_from_slice(&[q, 0, 1, q - 1, q, 2 * q - 1, q + 1, 3]);
            let got = p.scalar_mul(w);
            let want: Vec<u64> = p.coeffs().iter().map(|&x| reference_mul(x % q, w, q)).collect();
            assert_eq!(got.coeffs(), want, "scalar_mul by {w} mod {q}");
        }
    }
}

#[test]
fn poly_slice_passes_match_the_u128_reference_at_the_edges() {
    for m in moduli() {
        let q = m.value();
        // Lengths that are not a multiple of any unrolling the compiler
        // might pick.
        let (a, b): (Vec<u64>, Vec<u64>) = pairs(q).into_iter().unzip();
        let (wq, n) = (u128::from(q), a.len());
        let pa = Poly::from_coeffs(a.clone(), m).unwrap();
        let pb = Poly::from_coeffs(b.clone(), m).unwrap();
        let sum: Vec<u64> =
            (0..n).map(|i| ((u128::from(a[i]) + u128::from(b[i])) % wq) as u64).collect();
        assert_eq!(pa.add(&pb).unwrap().coeffs(), sum, "add mod {q}");
        let diff: Vec<u64> =
            (0..n).map(|i| ((u128::from(a[i]) + wq - u128::from(b[i])) % wq) as u64).collect();
        assert_eq!(pa.sub(&pb).unwrap().coeffs(), diff, "sub mod {q}");
        let neg: Vec<u64> = a.iter().map(|&x| ((wq - u128::from(x)) % wq) as u64).collect();
        assert_eq!(pa.neg().coeffs(), neg, "neg mod {q}");
        for w in edges(q) {
            let want: Vec<u64> = a.iter().map(|&x| reference_mul(x, w, q)).collect();
            assert_eq!(pa.scalar_mul(w).coeffs(), want, "scalar_mul by {w} mod {q}");
        }

        // `[0, 2q)` → canonical, through a lazy forward transform's output.
        let table = NttTable::new(m, 16).unwrap();
        let mut lazy = Poly::from_coeffs(vec![0; 16], m).unwrap();
        lazy.to_ntt_lazy(&table);
        let words = [0, 1, q - 1, q, q + 1, 2 * q - 2, 2 * q - 1, q / 2, q + q / 2, 7, 0, q, 1];
        let words: Vec<u64> = words.iter().copied().cycle().take(16).collect();
        lazy.coeffs_mut().copy_from_slice(&words);
        lazy.normalize();
        let want: Vec<u64> = words.iter().map(|&x| x % q).collect();
        assert_eq!(lazy.coeffs(), want, "normalize mod {q}");
    }
}

/// One modulus of every width the library ships: the 30-bit toy ring, the
/// 33- and 36-bit CKKS chains, the 60-bit special / TFHE primes, and the
/// widest a `Modulus` accepts.
fn shipped_moduli() -> Vec<Modulus> {
    let mut out: Vec<Modulus> = [30u32, 33, 36, 60]
        .iter()
        .map(|&bits| Modulus::new(generate_ntt_primes(bits, 1 << 4, 1).unwrap()[0]).unwrap())
        .collect();
    out.push(Modulus::new((1 << 61) - 1).unwrap());
    out
}

#[test]
fn reduce_u128_is_u128_remainder_at_every_shipped_width() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0a1c_4e57);
    for m in shipped_moduli() {
        let q = u128::from(m.value());
        // The folds' edges (2^64 splits the two halves), the products the
        // element-wise passes reduce, and the largest lazy MAC sum: eight
        // products of a `[0, 2q)` by a canonical operand.
        let edges = [
            0,
            q - 1,
            q,
            2 * q - 1,
            (1 << 64) - 1,
            1 << 64,
            (q - 1) * (q - 1),
            8 * (2 * q - 1) * (q - 1),
        ];
        for x in edges.into_iter().chain([u128::MAX]) {
            assert_eq!(u128::from(m.reduce_u128(x)), x % q, "{x} mod {q}");
        }
        for i in 0..1_000_000u32 {
            let word = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
            // Alternate the full range with the ranges the kernels produce.
            let x = match i % 3 {
                0 => word,
                1 => word % (q * q),
                _ => word % (8 * (2 * q - 1) * (q - 1) + 1),
            };
            assert_eq!(u128::from(m.reduce_u128(x)), x % q, "{x} mod {q}");
        }
        for x in [0, 1, q as u64 - 1, q as u64, u64::MAX] {
            assert_eq!(u128::from(m.reduce(x)), u128::from(x) % q, "{x} mod {q}");
        }
    }
}

/// The integer-range rule written out on its own: Lemire's multiply-shift,
/// redrawing products whose low word falls below `2^64 mod q`.
fn lemire(rng: &mut ChaCha8Rng, q: u64) -> u64 {
    let zone = q.wrapping_neg() % q;
    loop {
        let m = u128::from(rng.next_u64()) * u128::from(q);
        if m as u64 >= zone {
            return (m >> 64) as u64;
        }
    }
}

#[test]
fn sample_uniform_draws_what_gen_range_draws() {
    let toy = generate_ntt_primes(30, 1 << 6, 1).unwrap()[0];
    for q in [3u64, toy, (1 << 61) - 1] {
        for seed in [0u64, 7, 0x0a1c_4e57] {
            let n = 1000;
            let mut a = ChaCha8Rng::seed_from_u64(seed);
            let mut b = a.clone();
            let mut c = a.clone();
            let got = sample_uniform(q, n, &mut a);
            let by_range: Vec<u64> = (0..n).map(|_| b.gen_range(0..q)).collect();
            let by_rule: Vec<u64> = (0..n).map(|_| lemire(&mut c, q)).collect();
            assert_eq!(got, by_range, "q {q} seed {seed}");
            assert_eq!(got, by_rule, "q {q} seed {seed}");
            assert!(got.iter().all(|&x| x < q));
            // The stream is left where the per-draw calls leave it.
            assert_eq!(a.get_word_pos(), b.get_word_pos(), "q {q} seed {seed}");
            assert_eq!(a.get_word_pos(), c.get_word_pos(), "q {q} seed {seed}");
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
