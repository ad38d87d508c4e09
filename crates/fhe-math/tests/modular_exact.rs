//! The branch-free canonical operations — `Modulus::{add, sub, neg,
//! mul_shoup, reduce_2q}` and the `Poly` passes over the `simd` slices —
//! against a `u128` reference at the operands where a conditional
//! subtraction decides: 0, 1, q − 1, a = b, a + b = q, and a Shoup product
//! that lands on q. `Modulus::reduce_u128` — the Meta-OP's `R` step, two
//! wide multiplications — against `u128 %` at every shipped modulus width,
//! at its edges and on a million random words each. Plus the samplers:
//! `sample_uniform` and `sample_ternary` against the draws `gen_range`
//! makes, value for value and stream word for word; `GaussianSampler`
//! against the libm Box–Muller, and its `round_to_i64` against
//! `f64::round` then `as i64` at ties, the 2^52 and ±2^63 edges, ±0, NaN
//! and ±∞. And the `rand_chacha` keystream against a test-local one-block
//! ChaCha8: several seeds, the word-13 carry, `set_stream` at every offset,
//! a `u64` straddling a refill, a clone, and the word position throughout.

use fhe_math::{
    generate_ntt_primes, round_to_i64, sample_ternary, sample_uniform, GaussianSampler, Modulus,
    NttTable, Poly,
};
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

#[test]
fn sample_ternary_draws_what_gen_range_draws() {
    for seed in [0u64, 7, 0x0a1c_4e57] {
        let mut a = ChaCha8Rng::seed_from_u64(seed);
        let mut b = a.clone();
        let got = sample_ternary(3000, &mut a);
        let by_range: Vec<i64> = (0..3000).map(|_| b.gen_range(-1..=1)).collect();
        assert_eq!(got, by_range, "seed {seed}");
        assert_eq!(a.get_word_pos(), b.get_word_pos(), "seed {seed}");
    }
}

/// The rounding `GaussianSampler` used to spell with libm.
fn libm_rounded(x: f64) -> i64 {
    x.round() as i64
}

#[test]
fn round_to_i64_is_libm_round_then_cast_for_every_kind_of_f64() {
    let two52 = (1u64 << 52) as f64;
    let two63 = 9_223_372_036_854_775_808.0f64;
    let mut xs = vec![
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        f64::EPSILON,
        0.5f64.next_down(),
        0.5f64.next_up(),
        f64::MAX,
        f64::MIN,
    ];
    // ±k.5 ties, and their neighbours, up to where halves stop existing.
    for k in (0..64).map(|b| 1u64 << b).chain(0..100).chain([(1 << 52) - 1, (1 << 51) + 3]) {
        let tie = k as f64 + 0.5;
        xs.extend([tie, tie.next_down(), tie.next_up(), k as f64]);
    }
    // Around 2^52 (the last halves below, integers above), 2^53, and ±2^63
    // where the cast saturates, plus everything past it.
    for edge in [two52, 2.0 * two52, two63, 2.0 * two63, 1e300] {
        let mut x = edge;
        for _ in 0..8 {
            xs.push(x);
            x = x.next_down();
        }
        let mut x = edge;
        for _ in 0..8 {
            x = x.next_up();
            xs.push(x);
        }
    }
    let negated: Vec<f64> = xs.iter().map(|x| -x).collect();
    xs.extend(negated);
    // And a million random bit patterns (every exponent), then a million
    // Gaussian-sized values.
    let mut rng = ChaCha8Rng::seed_from_u64(29);
    xs.extend((0..1_000_000).map(|_| f64::from_bits(rng.next_u64())));
    xs.extend((0..1_000_000).map(|_| rng.gen_range(-1e6..1e6)));
    for x in xs {
        assert_eq!(round_to_i64(x), libm_rounded(x), "{x:e} ({:#018x})", x.to_bits());
    }
}

#[test]
fn gaussian_samples_equal_the_libm_box_muller() {
    for sigma in [0.0, 1e-3, 3.2, 3.19 * 1024.0, 2.0f64.powi(-25) * 2.0f64.powi(64), 1e30] {
        let mut a = ChaCha8Rng::seed_from_u64(31);
        let mut b = a.clone();
        let got = GaussianSampler::new(sigma).sample_vec(20_000, &mut a);
        let by_formula: Vec<i64> = (0..20_000)
            .map(|_| {
                if sigma == 0.0 {
                    return 0;
                }
                let u1: f64 = b.gen_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = b.gen_range(0.0..1.0);
                let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                libm_rounded(g * sigma)
            })
            .collect();
        assert_eq!(got, by_formula, "sigma {sigma}");
        assert_eq!(a.get_word_pos(), b.get_word_pos(), "sigma {sigma}");
    }
}

/// A one-block ChaCha8 written from RFC 7539 §2.1–2.3 (8 rounds, a 64-bit
/// block counter in words 12–13, the stream in words 14–15), sharing no
/// code with the `rand_chacha` stand-in. `counter` names the block after
/// the buffered one and `index` runs to 16, so `counter · 16 + index` is
/// the word position the stand-in has always reported.
#[derive(Clone)]
struct ReferenceChaCha8 {
    key: [u32; 8],
    counter: u64,
    stream: u64,
    block: [u32; 16],
    index: usize,
}

impl ReferenceChaCha8 {
    fn new(seed: u64) -> Self {
        // The stand-in's key: the rand_core PCG32 expansion of `seed`.
        let mut state = seed;
        let key = std::array::from_fn(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(11634580027462260723);
            ((((state >> 18) ^ state) >> 27) as u32).rotate_right((state >> 59) as u32)
        });
        ReferenceChaCha8 { key, counter: 0, stream: 0, block: [0; 16], index: 16 }
    }

    fn chacha8_block(&self, counter: u64) -> [u32; 16] {
        fn qr(x: &mut [u32; 16], [a, b, c, d]: [usize; 4]) {
            x[a] = x[a].wrapping_add(x[b]);
            x[d] = (x[d] ^ x[a]).rotate_left(16);
            x[c] = x[c].wrapping_add(x[d]);
            x[b] = (x[b] ^ x[c]).rotate_left(12);
            x[a] = x[a].wrapping_add(x[b]);
            x[d] = (x[d] ^ x[a]).rotate_left(8);
            x[c] = x[c].wrapping_add(x[d]);
            x[b] = (x[b] ^ x[c]).rotate_left(7);
        }
        let mut input = [0u32; 16];
        input[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
        input[4..12].copy_from_slice(&self.key);
        input[12..].copy_from_slice(&[
            counter as u32,
            (counter >> 32) as u32,
            self.stream as u32,
            (self.stream >> 32) as u32,
        ]);
        let mut x = input;
        for _round_pair in 0..4 {
            for lanes in [[0, 4, 8, 12], [1, 5, 9, 13], [2, 6, 10, 14], [3, 7, 11, 15]] {
                qr(&mut x, lanes);
            }
            for lanes in [[0, 5, 10, 15], [1, 6, 11, 12], [2, 7, 8, 13], [3, 4, 9, 14]] {
                qr(&mut x, lanes);
            }
        }
        std::array::from_fn(|i| x[i].wrapping_add(input[i]))
    }

    fn next_u32(&mut self) -> u32 {
        if self.index == 16 {
            self.block = self.chacha8_block(self.counter);
            self.counter = self.counter.wrapping_add(1);
            self.index = 0;
        }
        self.index += 1;
        self.block[self.index - 1]
    }

    fn next_u64(&mut self) -> u64 {
        u64::from(self.next_u32()) | (u64::from(self.next_u32()) << 32)
    }

    fn set_stream(&mut self, stream: u64) {
        self.stream = stream;
        if self.index < 16 {
            self.block = self.chacha8_block(self.counter.wrapping_sub(1));
        }
    }

    fn set_word_pos(&mut self, word: u128) {
        self.block = self.chacha8_block((word >> 4) as u64);
        self.counter = ((word >> 4) as u64).wrapping_add(1);
        self.index = (word % 16) as usize;
    }

    fn word_pos(&self) -> u128 {
        u128::from(self.counter) * 16 + self.index as u128
    }
}

/// Draws `words` words one at a time from both and checks each and the
/// word position after it.
fn same_words(rng: &mut ChaCha8Rng, reference: &mut ReferenceChaCha8, words: usize, what: &str) {
    for w in 0..words {
        assert_eq!(rng.next_u32(), reference.next_u32(), "{what}: word {w}");
        assert_eq!(rng.get_word_pos(), reference.word_pos(), "{what}: position after word {w}");
    }
}

#[test]
fn keystream_equals_an_independent_one_block_chacha8() {
    // Several seeds over 16 refills of 64 words; the position before the
    // first draw too.
    for seed in [0u64, 1, 7, 0x0a1c_4e57, u64::MAX] {
        let (mut rng, mut reference) =
            (ChaCha8Rng::seed_from_u64(seed), ReferenceChaCha8::new(seed));
        assert_eq!(rng.get_word_pos(), reference.word_pos(), "seed {seed}: fresh");
        same_words(&mut rng, &mut reference, 1024, &format!("seed {seed}"));
    }

    // A block counter crossing 2^32: word 13 takes the carry, inside one
    // refill and across refills, from every offset of a block.
    for offset in 0..16u128 {
        let start = 16 * ((1u128 << 32) - 3) + offset;
        let (mut rng, mut reference) = (ChaCha8Rng::seed_from_u64(3), ReferenceChaCha8::new(3));
        rng.set_word_pos(start);
        reference.set_word_pos(start);
        assert_eq!(rng.get_word_pos(), reference.word_pos(), "2^32 carry from word {start}");
        same_words(&mut rng, &mut reference, 200, &format!("2^32 carry from word {start}"));
    }

    // `set_stream` after every number of words across two refills: the
    // stream switches at the same word, and the position is kept.
    for drawn in 0..=130 {
        let (mut rng, mut reference) = (ChaCha8Rng::seed_from_u64(5), ReferenceChaCha8::new(5));
        same_words(&mut rng, &mut reference, drawn, "before set_stream");
        rng.set_stream(1);
        reference.set_stream(1);
        assert_eq!(rng.get_word_pos(), reference.word_pos(), "set_stream after {drawn} words");
        same_words(&mut rng, &mut reference, 150, &format!("set_stream after {drawn} words"));
    }

    // Interleaved 32- and 64-bit draws: with an odd word consumed, every
    // 32nd `next_u64` straddles a refill.
    let (mut rng, mut reference) = (ChaCha8Rng::seed_from_u64(9), ReferenceChaCha8::new(9));
    for step in 0..600 {
        if step % 7 == 0 {
            assert_eq!(rng.next_u32(), reference.next_u32(), "next_u32 at step {step}");
        } else {
            assert_eq!(rng.next_u64(), reference.next_u64(), "next_u64 at step {step}");
        }
        assert_eq!(rng.get_word_pos(), reference.word_pos(), "position after step {step}");
    }

    // A clone taken mid-buffer continues as the original does.
    let (mut rng, mut reference) = (ChaCha8Rng::seed_from_u64(11), ReferenceChaCha8::new(11));
    same_words(&mut rng, &mut reference, 37, "before the clone");
    let (mut fork, mut fork_reference) = (rng.clone(), reference.clone());
    same_words(&mut rng, &mut reference, 300, "original after the clone");
    same_words(&mut fork, &mut fork_reference, 300, "clone");
}
