//! Differential fast-vs-oracle conformance sweep.
//!
//! Each test fuzzes one kernel family with the global seed
//! (`ALCHEMIST_FUZZ_SEED`, default [`conformance::fuzz::DEFAULT_SEED`])
//! and the default 1000-case budget (`ALCHEMIST_FUZZ_CASES` overrides).
//! A failure prints a one-line repro tuple; see README §"Reproducing a
//! fuzz failure".

use conformance::{case_budget, default_seed, oracle, run_family, Family, SplitMix64};
use fhe_math::{generate_ntt_primes, Modulus, Poly, RnsPoly};

fn draws(seed: u64, count: usize, bound: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..count).map(|_| rng.below(bound)).collect()
}

fn sweep(family: Family) {
    let seed = default_seed();
    let cases = case_budget(1000);
    if let Err(repro) = run_family(family, seed, cases) {
        panic!("conformance failure: {repro}");
    }
}

#[test]
fn ntt_family_matches_oracle() {
    sweep(Family::Ntt);
}

#[test]
fn conv_family_matches_oracle() {
    sweep(Family::Conv);
}

#[test]
fn bconv_family_matches_oracle() {
    sweep(Family::Bconv);
}

#[test]
fn modup_family_matches_oracle() {
    sweep(Family::Modup);
}

#[test]
fn moddown_family_matches_oracle() {
    sweep(Family::Moddown);
}

#[test]
fn rescale_family_matches_oracle() {
    sweep(Family::Rescale);
}

#[test]
fn reconstruct_family_matches_oracle() {
    sweep(Family::Reconstruct);
}

/// Detection-power check: the differential harness is only useful if the
/// oracle actually flags corrupted fast-path output. Corrupt one NTT
/// coefficient and one Bconv residue and verify both are caught.
#[test]
fn oracle_detects_injected_corruption() {
    let n = 64;
    let q = generate_ntt_primes(36, n, 1).unwrap()[0];
    let m = Modulus::new(q).unwrap();
    let table = fhe_math::NttTable::new(m, n).unwrap();
    let a = draws(0xBAD_5EED, n, q);
    let mut fwd = a.clone();
    table.forward(&mut fwd);
    assert_eq!(fwd[7], oracle::ntt_point(&a, q, table.psi(), 7));
    let corrupted = m.add(fwd[7], 1);
    assert_ne!(corrupted, oracle::ntt_point(&a, q, table.psi(), 7));

    let moduli = generate_ntt_primes(36, n, 3).unwrap();
    let orc = oracle::BconvOracle::new(&moduli[..2]);
    let xs = [123_456, 654_321];
    let basis = fhe_math::RnsBasis::new(moduli.iter().map(|&p| Modulus::new(p).unwrap()).collect())
        .unwrap();
    let ctx = fhe_math::RnsContext::new(n, basis).unwrap();
    let plan = ctx.bconv(&[0, 1], &[2]).unwrap();
    let cols: Vec<Vec<u64>> = xs.iter().map(|&x| vec![x; n]).collect();
    let refs: Vec<&[u64]> = cols.iter().map(|v| v.as_slice()).collect();
    let fast = plan.apply(&refs);
    orc.check(&xs, &moduli[2..], &[fast[0][0]]).expect("uncorrupted output must pass");
    let bad = Modulus::new(moduli[2]).unwrap().add(fast[0][0], 1);
    orc.check(&xs, &moduli[2..], &[bad]).expect_err("corrupted output must be flagged");
}

/// The conformance case for the moddown/CRT exactness invariant
/// (`assert_eq!(rem, 0)` in `RnsPoly::crt_coefficient`): the fast
/// reconstruction must agree with the independent oracle CRT on every
/// coefficient, including the boundary residues.
#[test]
fn crt_coefficient_matches_oracle_reconstruction() {
    let n = 32;
    let moduli_vals = {
        let mut v = generate_ntt_primes(36, n, 2).unwrap();
        v.extend(generate_ntt_primes(50, n, 2).unwrap());
        v
    };
    let moduli: Vec<Modulus> = moduli_vals.iter().map(|&q| Modulus::new(q).unwrap()).collect();

    let channels: Vec<Poly> = moduli
        .iter()
        .enumerate()
        .map(|(i, &m)| {
            let mut coeffs = draws(0x5EED_C127 + i as u64, n, m.value());
            // Boundary residues in the first coefficients.
            coeffs[0] = 0;
            coeffs[1] = m.value() - 1;
            coeffs[2] = m.value() / 2;
            Poly::from_coeffs(coeffs, m).unwrap()
        })
        .collect();
    let poly = RnsPoly::from_channels(channels).unwrap();

    for idx in 0..n {
        let xs: Vec<u64> = (0..moduli.len()).map(|c| poly.channel(c).coeffs()[idx]).collect();
        let want = oracle::crt_reconstruct(&xs, &moduli_vals);
        assert_eq!(poly.crt_coefficient(idx), want, "coefficient {idx}");
    }
}
