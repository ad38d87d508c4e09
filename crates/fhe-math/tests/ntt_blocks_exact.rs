//! The register-blocked NTT against the textbook eager loops, bit for bit,
//! at every block schedule.
//!
//! `log n` runs 3..=14, which covers every residue mod 3 (no radix-4 pass,
//! one, two) on both sides of `n = 2^12`, the single-block transform
//! (`n = 8`) and the one size whose last forward / first inverse pass is
//! radix-4 (`n = 16`). Three modulus widths: 31 bits (a 32-bit TFHE ring
//! prime), 36 (a CKKS scale prime) and 61 (the width limit, where the
//! `[0, 4q)` headroom is tightest). Four inputs: a canonical ramp, and the
//! extremes of the accepted `[0, 2q)` range, constant and alternating.

use fhe_math::{generate_ntt_primes, Modulus, NttTable};

/// Textbook Cooley–Tukey loop, canonical reduction after every butterfly.
fn eager_forward(t: &NttTable, a: &mut [u64]) {
    let m = t.modulus();
    let n = a.len();
    let mut gap = n;
    let mut groups = 1usize;
    while groups < n {
        gap /= 2;
        for i in 0..groups {
            let s = t.psi_rev()[groups + i];
            let j1 = 2 * i * gap;
            for j in j1..j1 + gap {
                let u = a[j];
                let v = m.mul_shoup(a[j + gap], s);
                a[j] = m.add(u, v);
                a[j + gap] = m.sub(u, v);
            }
        }
        groups *= 2;
    }
}

/// Textbook Gentleman–Sande loop with the separate `N^{-1}` scaling pass.
fn eager_inverse(t: &NttTable, a: &mut [u64]) {
    let m = t.modulus();
    let n = a.len();
    let mut gap = 1usize;
    let mut groups = n / 2;
    while groups >= 1 {
        for i in 0..groups {
            let s = t.psi_inv_rev()[groups + i];
            let j1 = 2 * i * gap;
            for j in j1..j1 + gap {
                let u = a[j];
                let v = a[j + gap];
                a[j] = m.add(u, v);
                a[j + gap] = m.mul_shoup(m.sub(u, v), s);
            }
        }
        gap *= 2;
        groups /= 2;
    }
    for x in a.iter_mut() {
        *x = m.mul_shoup(*x, t.n_inv());
    }
}

fn inputs(n: usize, q: u64) -> [(&'static str, Vec<u64>); 4] {
    let top = 2 * q - 1;
    [
        ("ramp", (0..n as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % q).collect()),
        ("all q-1", vec![q - 1; n]),
        ("all 2q-1", vec![top; n]),
        ("alternating 0 / 2q-1", (0..n).map(|i| if i % 2 == 0 { 0 } else { top }).collect()),
    ]
}

#[test]
fn every_block_schedule_matches_the_eager_transform_bit_for_bit() {
    for log_n in 3..=14u32 {
        let n = 1usize << log_n;
        for bits in [31u32, 36, 61] {
            let q = Modulus::new(generate_ntt_primes(bits, n, 1).expect("NTT prime")[0]).unwrap();
            assert_eq!(q.bits(), bits);
            let t = NttTable::new(q, n).unwrap();
            let two_q = 2 * q.value();
            for (name, input) in inputs(n, q.value()) {
                let at = format!("log n = {log_n}, {bits}-bit q, input {name}");
                let canonical: Vec<u64> = input.iter().map(|&x| q.reduce_2q(x)).collect();

                let mut want = canonical.clone();
                eager_forward(&t, &mut want);
                let mut got = input.clone();
                t.forward(&mut got);
                assert_eq!(got, want, "forward, {at}");
                let mut lazy = input.clone();
                t.forward_lazy(&mut lazy);
                assert!(lazy.iter().all(|&x| x < two_q), "forward_lazy breached 2q, {at}");
                lazy.iter_mut().for_each(|x| *x = q.reduce_2q(*x));
                assert_eq!(lazy, want, "forward_lazy, {at}");

                // The forward output inverts to the (canonical) input.
                t.inverse(&mut got);
                assert_eq!(got, canonical, "inverse ∘ forward, {at}");

                let mut want = canonical.clone();
                eager_inverse(&t, &mut want);
                let mut got = input.clone();
                t.inverse(&mut got);
                assert_eq!(got, want, "inverse, {at}");
                let mut lazy = input.clone();
                t.inverse_lazy(&mut lazy);
                assert!(lazy.iter().all(|&x| x < two_q), "inverse_lazy breached 2q, {at}");
                lazy.iter_mut().for_each(|x| *x = q.reduce_2q(*x));
                assert_eq!(lazy, want, "inverse_lazy, {at}");

                t.forward(&mut got);
                assert_eq!(got, canonical, "forward ∘ inverse, {at}");
            }
        }
    }
}
