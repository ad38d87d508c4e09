//! Deterministic seeded property-fuzz runner.
//!
//! Every case is a pure function of `(seed, family, case index)`: the
//! global seed comes from `ALCHEMIST_FUZZ_SEED` (default
//! [`DEFAULT_SEED`]), the per-case generator is a splitmix64 stream, and a
//! failure is reported as a one-line [`Repro`] tuple
//! (`op=… seed=… case=… n=… moduli=[…]`) that pins the case exactly —
//! re-running [`run_case`] with the printed seed and case index
//! reproduces it bit-for-bit on any host.
//!
//! Case distribution per family: sizes sweep `n ∈ {8…2¹³}` weighted
//! toward small rings (the oracle is quadratic), channel counts sweep
//! 1…6 per side, moduli mix 36-bit primes (paper S1) with the full
//! 20…60-bit range, and coefficient draws inject the adversarial values
//! `0`, `1`, `q−1`, `⌊q/2⌋`, `⌊q/2⌋+1` plus all-zero / all-max / impulse
//! polynomials. The first few case indices of each family are *forced*
//! heavy configurations (largest `n`, maximum channel counts, dnum edge
//! splits) so they are exercised regardless of seed. The `reconstruct`
//! family has no ring: each case draws a chain of 1…8 primes of 30…61
//! bits and checks every prefix of it on the forced integers
//! `0, 1, ⌊Q/2⌋, ⌊Q/2⌋+1, Q−1` plus uniform residue draws.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use fhe_ckks::{Ciphertext, CkksContext, CkksParams, Evaluator};
use fhe_math::{
    generate_ntt_primes, MixedRadix, Modulus, NttTable, Poly, RnsBasis, RnsContext, RnsPoly, UBig,
};

use crate::oracle;

/// Default global fuzz seed when `ALCHEMIST_FUZZ_SEED` is unset.
pub const DEFAULT_SEED: u64 = 0xA1C4_0E57_5EED_0001;

/// The global fuzz seed: `ALCHEMIST_FUZZ_SEED` (decimal or `0x…` hex) or
/// [`DEFAULT_SEED`].
///
/// # Panics
///
/// Panics if the variable is set but unparseable — a silently ignored
/// seed would make a "reproduction" run meaningless.
pub fn default_seed() -> u64 {
    match std::env::var("ALCHEMIST_FUZZ_SEED") {
        Ok(s) => parse_u64(&s).unwrap_or_else(|| panic!("unparseable ALCHEMIST_FUZZ_SEED {s:?}")),
        Err(_) => DEFAULT_SEED,
    }
}

/// Per-family case budget: `ALCHEMIST_FUZZ_CASES` or `default`.
///
/// # Panics
///
/// Panics if the variable is set but unparseable.
pub fn case_budget(default: u64) -> u64 {
    match std::env::var("ALCHEMIST_FUZZ_CASES") {
        Ok(s) => parse_u64(&s).unwrap_or_else(|| panic!("unparseable ALCHEMIST_FUZZ_CASES {s:?}")),
        Err(_) => default,
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// splitmix64 (Steele–Lea–Flood): the simplest PRNG with a full-period
/// 64-bit state and excellent mixing; chosen so a repro tuple pins the
/// byte stream with no library version dependence.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, bound)` via multiply-shift (deterministic; the
    /// ~2⁻⁶⁴ modulo bias is irrelevant for fuzzing).
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// One-line reproduction tuple for a failed case. `Display` prints the
/// exact tuple to feed back into [`run_case`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repro {
    /// Kernel family name.
    pub op: &'static str,
    /// Global seed the run used.
    pub seed: u64,
    /// Case index within the family.
    pub case: u64,
    /// Ring degree of the failing case.
    pub n: usize,
    /// Moduli of the failing case (source before destination for
    /// conversions).
    pub moduli: Vec<u64>,
    /// What mismatched.
    pub detail: String,
}

impl fmt::Display for Repro {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "op={} seed={:#018x} case={} n={} moduli={:?}: {}",
            self.op, self.seed, self.case, self.n, self.moduli, self.detail
        )
    }
}

/// The kernel families the fuzzer covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Forward/lazy/inverse negacyclic NTT vs the DFT-style point oracle.
    Ntt,
    /// NTT-based polynomial product vs schoolbook negacyclic convolution.
    Conv,
    /// Fast base conversion (paper Eq. 1) vs the exact integer sum.
    Bconv,
    /// Modup (Eq. 2) with dnum-style digit splits.
    Modup,
    /// Moddown (Eq. 3) vs the exact `(X − s)/P` reference.
    Moddown,
    /// CKKS rescale vs the exact `(X − r)/q_L` reference.
    Rescale,
    /// Mixed-radix (Garner) reconstruction vs the exact CRT integer:
    /// digits, sign, magnitude and `f64` views.
    Reconstruct,
}

impl Family {
    /// All families, in the order tests run them.
    pub const ALL: [Family; 7] = [
        Family::Ntt,
        Family::Conv,
        Family::Bconv,
        Family::Modup,
        Family::Moddown,
        Family::Rescale,
        Family::Reconstruct,
    ];

    /// Stable name used in repro tuples.
    pub fn name(self) -> &'static str {
        match self {
            Family::Ntt => "ntt",
            Family::Conv => "conv",
            Family::Bconv => "bconv",
            Family::Modup => "modup",
            Family::Moddown => "moddown",
            Family::Rescale => "rescale",
            Family::Reconstruct => "reconstruct",
        }
    }

    fn tag(self) -> u64 {
        // Fixed per-family stream separators (arbitrary odd constants).
        match self {
            Family::Ntt => 0x6E74_7401,
            Family::Conv => 0x636F_6E76,
            Family::Bconv => 0x6263_6F6E,
            Family::Modup => 0x6D6F_6475,
            Family::Moddown => 0x6D6F_6464,
            Family::Rescale => 0x7265_7363,
            Family::Reconstruct => 0x7265_636F,
        }
    }
}

/// Derives the per-case generator: families get decorrelated streams and
/// every case is independently seeded, so a pinned `(seed, case)` pair
/// replays without running earlier cases.
fn case_rng(seed: u64, family: Family, case: u64) -> SplitMix64 {
    let mut mixer = SplitMix64::new(seed ^ family.tag().wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let a = mixer.next_u64();
    SplitMix64::new(a ^ case.wrapping_mul(0xD134_2543_DE82_EF95))
}

/// Runs `cases` consecutive cases of one family.
///
/// # Errors
///
/// Returns the [`Repro`] tuple of the first failing case.
pub fn run_family(family: Family, seed: u64, cases: u64) -> Result<(), Box<Repro>> {
    for case in 0..cases {
        run_case(family, seed, case)?;
    }
    Ok(())
}

/// Runs one case, identified exactly by `(family, seed, case)`.
///
/// # Errors
///
/// Returns the [`Repro`] tuple on any fast-vs-oracle mismatch.
pub fn run_case(family: Family, seed: u64, case: u64) -> Result<(), Box<Repro>> {
    let rng = case_rng(seed, family, case);
    match family {
        Family::Ntt => ntt_case(rng, seed, case),
        Family::Conv => conv_case(rng, seed, case),
        Family::Bconv => bconv_case(rng, seed, case),
        Family::Modup => modup_case(rng, seed, case),
        Family::Moddown => moddown_case(rng, seed, case),
        Family::Rescale => rescale_case(rng, seed, case),
        Family::Reconstruct => reconstruct_case(rng, seed, case),
    }
}

// ---------------------------------------------------------------------------
// Shared draws

/// Prime cache: `generate_ntt_primes` searches downward deterministically,
/// so prefixes are stable and one growing list per `(bits, n)` serves every
/// requested count.
fn primes(bits: u32, n: usize, count: usize) -> Vec<u64> {
    type PrimeCache = Mutex<HashMap<(u32, usize), Vec<u64>>>;
    static CACHE: OnceLock<PrimeCache> = OnceLock::new();
    let mut map = CACHE.get_or_init(|| Mutex::new(HashMap::new())).lock().unwrap();
    let entry = map.entry((bits, n)).or_default();
    if entry.len() < count {
        *entry = generate_ntt_primes(bits, n, count)
            .unwrap_or_else(|e| panic!("no {count} NTT primes of {bits} bits at n={n}: {e}"));
    }
    entry[..count].to_vec()
}

/// CKKS context cache keyed by the (deterministic) parameter tuple.
fn ckks_context(n: usize, max_level: usize, dnum: usize) -> Arc<CkksContext> {
    type CtxCache = Mutex<HashMap<(usize, usize, usize), Arc<CkksContext>>>;
    static CACHE: OnceLock<CtxCache> = OnceLock::new();
    let mut map = CACHE.get_or_init(|| Mutex::new(HashMap::new())).lock().unwrap();
    map.entry((n, max_level, dnum))
        .or_insert_with(|| {
            let params = CkksParams::new(n, max_level, dnum, 30)
                .unwrap_or_else(|e| panic!("params(n={n}, L={max_level}, dnum={dnum}): {e}"));
            Arc::new(CkksContext::new(params).unwrap_or_else(|e| panic!("context: {e}")))
        })
        .clone()
}

/// Ring sizes weighted toward the oracle-friendly small end, capped at
/// `max`. The sweep still reaches 2¹³ through the weighted tail and the
/// forced heavy cases.
fn draw_size(rng: &mut SplitMix64, max: usize) -> usize {
    const SMALL: [usize; 6] = [8, 16, 32, 64, 128, 256];
    const MID: [usize; 2] = [512, 1024];
    const LARGE: [usize; 3] = [2048, 4096, 8192];
    let r = rng.below(100);
    let pick = if r < 85 {
        SMALL[rng.below(6) as usize]
    } else if r < 97 {
        MID[rng.below(2) as usize]
    } else {
        LARGE[rng.below(3) as usize]
    };
    pick.min(max)
}

/// Modulus widths: 36-bit (paper S1) twice as likely, the rest spanning
/// the supported range; narrow 20-bit primes only at tiny n where enough
/// exist.
fn draw_bits(rng: &mut SplitMix64, n: usize) -> u32 {
    const WIDE: [u32; 8] = [36, 36, 40, 45, 50, 52, 55, 60];
    if n <= 64 && rng.below(10) == 0 {
        20
    } else {
        WIDE[rng.below(WIDE.len() as u64) as usize]
    }
}

/// Draws `count` distinct basis moduli for degree `n`: a multiset of bit
/// widths resolves to distinct primes (same-width draws take consecutive
/// primes from the deterministic downward search; different widths occupy
/// disjoint ranges).
fn draw_basis(rng: &mut SplitMix64, n: usize, count: usize) -> Vec<u64> {
    let picks: Vec<u32> = (0..count).map(|_| draw_bits(rng, n)).collect();
    basis_of_widths(&picks, n)
}

/// Distinct NTT primes for degree `n`, one per requested bit width.
fn basis_of_widths(picks: &[u32], n: usize) -> Vec<u64> {
    let mut by_width: HashMap<u32, Vec<u64>> = HashMap::new();
    for &w in picks {
        let need = picks.iter().filter(|&&p| p == w).count();
        by_width.entry(w).or_insert_with(|| primes(w, n, need));
    }
    let mut next: HashMap<u32, usize> = HashMap::new();
    picks
        .iter()
        .map(|&w| {
            let i = next.entry(w).or_insert(0);
            let p = by_width[&w][*i];
            *i += 1;
            p
        })
        .collect()
}

/// Adversarial coefficient draw: whole-vector specials (all-zero, all-max,
/// impulse) with small probability, otherwise uniform with boundary values
/// (`0`, `1`, `q−1`, `⌊q/2⌋`, `⌊q/2⌋+1`) salted in.
fn draw_coeffs(rng: &mut SplitMix64, n: usize, q: u64) -> Vec<u64> {
    let special = |rng: &mut SplitMix64| -> u64 {
        match rng.below(5) {
            0 => 0,
            1 => 1 % q,
            2 => q - 1,
            3 => q / 2,
            _ => (q / 2 + 1) % q,
        }
    };
    match rng.below(24) {
        0 => vec![0; n],
        1 => vec![q - 1; n],
        2 => {
            let mut v = vec![0; n];
            let pos = rng.below(n as u64) as usize;
            v[pos] = special(rng).max(1);
            v
        }
        _ => (0..n).map(|_| if rng.below(16) == 0 { special(rng) } else { rng.below(q) }).collect(),
    }
}

/// Coefficient indices to check against the per-point oracle: all of them
/// for tiny rings, boundary indices plus a random sample otherwise.
fn sample_indices(rng: &mut SplitMix64, n: usize, extra: usize) -> Vec<usize> {
    if n <= 64 {
        return (0..n).collect();
    }
    let mut idx = vec![0, 1, n / 2, n - 1];
    for _ in 0..extra {
        idx.push(rng.below(n as u64) as usize);
    }
    idx.sort_unstable();
    idx.dedup();
    idx
}

fn repro(
    family: Family,
    seed: u64,
    case: u64,
    n: usize,
    moduli: &[u64],
    detail: String,
) -> Box<Repro> {
    Box::new(Repro { op: family.name(), seed, case, n, moduli: moduli.to_vec(), detail })
}

// ---------------------------------------------------------------------------
// Families

fn ntt_case(mut rng: SplitMix64, seed: u64, case: u64) -> Result<(), Box<Repro>> {
    // Forced heavy cases: the largest rings regardless of seed.
    let (n, bits) = match case {
        0 => (8192, 36),
        1 => (4096, 60),
        _ => {
            let n = draw_size(&mut rng, 8192);
            (n, draw_bits(&mut rng, n))
        }
    };
    let q = primes(bits, n, 1)[0];
    let fam = Family::Ntt;
    let fail = |detail: String| repro(fam, seed, case, n, &[q], detail);
    let table = NttTable::new(Modulus::new(q).expect("generated prime is valid"), n)
        .map_err(|e| fail(format!("table construction: {e}")))?;
    if !oracle::is_primitive_2nth_root(table.psi(), n, q) {
        return Err(fail(format!("psi={} is not a primitive 2n-th root", table.psi())));
    }
    let a = draw_coeffs(&mut rng, n, q);

    let mut fwd = a.clone();
    table.forward(&mut fwd);
    // forward_lazy emits Harvey residues in [0, 2q); every value must
    // reduce to the canonical forward output with one conditional
    // subtraction.
    let mut lazy = a.clone();
    table.forward_lazy(&mut lazy);
    if let Some(i) = lazy.iter().position(|&y| y >= 2 * q) {
        return Err(fail(format!("forward_lazy[{i}]={} breaches 2q={}", lazy[i], 2 * q)));
    }
    let lazy_canon: Vec<u64> = lazy.iter().map(|&y| if y >= q { y - q } else { y }).collect();
    if fwd != lazy_canon {
        let i = fwd.iter().zip(&lazy_canon).position(|(x, y)| x != y).unwrap();
        return Err(fail(format!("forward vs normalized forward_lazy differ at index {i}")));
    }
    // Same contract for the lazy inverse.
    let mut ilazy = fwd.clone();
    table.inverse_lazy(&mut ilazy);
    if let Some(i) = ilazy.iter().position(|&y| y >= 2 * q) {
        return Err(fail(format!("inverse_lazy[{i}]={} breaches 2q={}", ilazy[i], 2 * q)));
    }
    let ilazy_canon: Vec<u64> = ilazy.iter().map(|&y| if y >= q { y - q } else { y }).collect();
    if ilazy_canon != a {
        let i = ilazy_canon.iter().zip(&a).position(|(x, y)| x != y).unwrap();
        return Err(fail(format!("normalized inverse_lazy round trip differs at index {i}")));
    }

    for j in sample_indices(&mut rng, n, 21) {
        let want = oracle::ntt_point(&a, q, table.psi(), j);
        if fwd[j] != want {
            return Err(fail(format!("forward[{j}]={} oracle={want}", fwd[j])));
        }
    }

    let mut inv = fwd.clone();
    table.inverse(&mut inv);
    if inv != a {
        let i = inv.iter().zip(&a).position(|(x, y)| x != y).unwrap();
        return Err(fail(format!("inverse round trip differs at index {i}")));
    }
    for i in sample_indices(&mut rng, n, 4).into_iter().take(8) {
        let want = oracle::intt_point(&fwd, q, table.psi(), i);
        if a[i] != want {
            return Err(fail(format!("intt oracle[{i}]={want} expected {}", a[i])));
        }
    }
    Ok(())
}

fn conv_case(mut rng: SplitMix64, seed: u64, case: u64) -> Result<(), Box<Repro>> {
    // Schoolbook is O(n²): cap random draws at 256, force one 512 case.
    let (n, bits) = match case {
        0 => (512, 36),
        _ => {
            let n = draw_size(&mut rng, 256);
            (n, draw_bits(&mut rng, n))
        }
    };
    let q = primes(bits, n, 1)[0];
    let fam = Family::Conv;
    let fail = |detail: String| repro(fam, seed, case, n, &[q], detail);
    let m = Modulus::new(q).expect("generated prime is valid");
    let table = NttTable::new(m, n).map_err(|e| fail(format!("table construction: {e}")))?;
    let a = draw_coeffs(&mut rng, n, q);
    let b = draw_coeffs(&mut rng, n, q);

    // Fast path: forward NTT both, Barrett pointwise product, inverse.
    let mut fa = a.clone();
    table.forward(&mut fa);
    let mut fb = b.clone();
    table.forward(&mut fb);
    let mut fast: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| m.mul(x, y)).collect();
    table.inverse(&mut fast);

    let want = oracle::negacyclic_convolution(&a, &b, q);
    if fast != want {
        let i = fast.iter().zip(&want).position(|(x, y)| x != y).unwrap();
        return Err(fail(format!(
            "NTT product differs from schoolbook at coeff {i}: fast={} oracle={}",
            fast[i], want[i]
        )));
    }
    Ok(())
}

/// Checks one fast conversion output against [`oracle::BconvOracle`] at
/// sampled coefficients.
fn check_bconv_output(
    rng: &mut SplitMix64,
    src_vals: &[Vec<u64>],
    src_moduli: &[u64],
    dst_moduli: &[u64],
    fast: &[Vec<u64>],
    n: usize,
) -> Result<(), String> {
    let orc = oracle::BconvOracle::new(src_moduli);
    for s in sample_indices(rng, n, 28) {
        let xs: Vec<u64> = src_vals.iter().map(|ch| ch[s]).collect();
        let got: Vec<u64> = fast.iter().map(|ch| ch[s]).collect();
        orc.check(&xs, dst_moduli, &got).map_err(|e| format!("coeff {s}: {e}"))?;
    }
    Ok(())
}

fn bconv_case(mut rng: SplitMix64, seed: u64, case: u64) -> Result<(), Box<Repro>> {
    let (n, src_cnt, dst_cnt) = match case {
        // Forced: maximum channel counts on a mid ring, and a 2¹³ ring.
        0 => (2048, 6, 6),
        1 => (8192, 3, 2),
        _ => {
            let n = draw_size(&mut rng, 1024);
            (n, 1 + rng.below(6) as usize, 1 + rng.below(6) as usize)
        }
    };
    let moduli = draw_basis(&mut rng, n, src_cnt + dst_cnt);
    let fam = Family::Bconv;
    let fail = |detail: String| repro(fam, seed, case, n, &moduli, detail);
    let basis = RnsBasis::new(moduli.iter().map(|&q| Modulus::new(q).unwrap()).collect())
        .map_err(|e| fail(format!("basis: {e}")))?;
    let ctx = RnsContext::new(n, basis).map_err(|e| fail(format!("context: {e}")))?;
    let src_idx: Vec<usize> = (0..src_cnt).collect();
    let dst_idx: Vec<usize> = (src_cnt..src_cnt + dst_cnt).collect();
    let plan = ctx.bconv(&src_idx, &dst_idx).map_err(|e| fail(format!("plan: {e}")))?;

    let src_vals: Vec<Vec<u64>> =
        (0..src_cnt).map(|i| draw_coeffs(&mut rng, n, moduli[i])).collect();
    let refs: Vec<&[u64]> = src_vals.iter().map(|v| v.as_slice()).collect();
    let fast = plan.apply(&refs);

    check_bconv_output(&mut rng, &src_vals, &moduli[..src_cnt], &moduli[src_cnt..], &fast, n)
        .map_err(fail)?;
    Ok(())
}

fn modup_case(mut rng: SplitMix64, seed: u64, case: u64) -> Result<(), Box<Repro>> {
    let (n, q_cnt, p_cnt) = match case {
        // Forced dnum edge split: 5 q-channels, alpha 2 → short last digit.
        0 => (1024, 5, 3),
        _ => {
            let n = draw_size(&mut rng, 1024);
            (n, 2 + rng.below(5) as usize, 1 + rng.below(3) as usize)
        }
    };
    let moduli = draw_basis(&mut rng, n, q_cnt + p_cnt);
    let fam = Family::Modup;
    let fail = |detail: String| repro(fam, seed, case, n, &moduli, detail);
    let basis = RnsBasis::new(moduli.iter().map(|&q| Modulus::new(q).unwrap()).collect())
        .map_err(|e| fail(format!("basis: {e}")))?;
    let ctx = RnsContext::new(n, basis).map_err(|e| fail(format!("context: {e}")))?;

    // dnum-style digit split of the q channels: contiguous alpha-sized
    // digits, converting one digit onto everything else. A non-dividing
    // alpha exercises the short final digit (the dnum edge case).
    let alpha = if case == 0 { 2 } else { 1 + rng.below(q_cnt as u64) as usize };
    let digits: Vec<Vec<usize>> =
        (0..q_cnt).collect::<Vec<_>>().chunks(alpha).map(|c| c.to_vec()).collect();
    let digit = if case == 0 { digits.len() - 1 } else { rng.below(digits.len() as u64) as usize };
    let src_idx = digits[digit].clone();
    let dst_idx: Vec<usize> = (0..q_cnt + p_cnt).filter(|i| !src_idx.contains(i)).collect();

    let src_vals: Vec<Vec<u64>> =
        src_idx.iter().map(|&i| draw_coeffs(&mut rng, n, moduli[i])).collect();
    let refs: Vec<&[u64]> = src_vals.iter().map(|v| v.as_slice()).collect();
    let fast = ctx.modup(&refs, &src_idx, &dst_idx).map_err(|e| fail(format!("modup: {e}")))?;

    // The allocation-free twin must produce identical output even into
    // dirty, wrongly-sized buffers.
    let mut reused: Vec<Vec<u64>> = (0..dst_idx.len()).map(|_| vec![7u64; 3]).collect();
    ctx.modup_into(&refs, &src_idx, &dst_idx, &mut reused)
        .map_err(|e| fail(format!("modup_into: {e}")))?;
    if fast != reused {
        return Err(fail("modup and modup_into outputs differ".into()));
    }

    let src_moduli: Vec<u64> = src_idx.iter().map(|&i| moduli[i]).collect();
    let dst_moduli: Vec<u64> = dst_idx.iter().map(|&i| moduli[i]).collect();
    check_bconv_output(&mut rng, &src_vals, &src_moduli, &dst_moduli, &fast, n).map_err(fail)?;
    Ok(())
}

fn moddown_case(mut rng: SplitMix64, seed: u64, case: u64) -> Result<(), Box<Repro>> {
    let (n, q_cnt, p_cnt) = match case {
        // Forced: widest split on a mid ring.
        0 => (2048, 5, 3),
        _ => {
            let n = draw_size(&mut rng, 1024);
            (n, 1 + rng.below(5) as usize, 1 + rng.below(3) as usize)
        }
    };
    let moduli = draw_basis(&mut rng, n, q_cnt + p_cnt);
    let fam = Family::Moddown;
    let fail = |detail: String| repro(fam, seed, case, n, &moduli, detail);
    let basis = RnsBasis::new(moduli.iter().map(|&q| Modulus::new(q).unwrap()).collect())
        .map_err(|e| fail(format!("basis: {e}")))?;
    let ctx = RnsContext::new(n, basis).map_err(|e| fail(format!("context: {e}")))?;
    let q_idx: Vec<usize> = (0..q_cnt).collect();
    let p_idx: Vec<usize> = (q_cnt..q_cnt + p_cnt).collect();

    let q_vals: Vec<Vec<u64>> = (0..q_cnt).map(|i| draw_coeffs(&mut rng, n, moduli[i])).collect();
    let p_vals: Vec<Vec<u64>> =
        (0..p_cnt).map(|i| draw_coeffs(&mut rng, n, moduli[q_cnt + i])).collect();
    let q_refs: Vec<&[u64]> = q_vals.iter().map(|v| v.as_slice()).collect();
    let p_refs: Vec<&[u64]> = p_vals.iter().map(|v| v.as_slice()).collect();
    let fast =
        ctx.moddown(&q_refs, &p_refs, &q_idx, &p_idx).map_err(|e| fail(format!("moddown: {e}")))?;

    for s in sample_indices(&mut rng, n, 28) {
        let xq: Vec<u64> = q_vals.iter().map(|ch| ch[s]).collect();
        let xp: Vec<u64> = p_vals.iter().map(|ch| ch[s]).collect();
        let want = oracle::moddown_reference(&xq, &xp, &moduli[..q_cnt], &moduli[q_cnt..]);
        for k in 0..q_cnt {
            if fast[k][s] != want[k] {
                return Err(fail(format!(
                    "coeff {s} q-channel {k}: fast={} oracle={}",
                    fast[k][s], want[k]
                )));
            }
        }
    }

    // The NTT-domain twin: on NTT(q), NTT(p) it must leave NTT(fast) in
    // place, bit for bit, at every coefficient.
    let transformed = |vals: &[Vec<u64>], first: usize, inverse: bool| -> Vec<Vec<u64>> {
        let mut out = vals.to_vec();
        for (k, ch) in out.iter_mut().enumerate() {
            if inverse {
                ctx.table(first + k).inverse(ch);
            } else {
                ctx.table(first + k).forward(ch);
            }
        }
        out
    };
    let (mut q_ntt, mut p_ntt) =
        (transformed(&q_vals, 0, false), transformed(&p_vals, q_cnt, false));
    ctx.moddown_plan(&q_idx, &p_idx)
        .and_then(|plan| {
            let (q_tables, p_tables) = ctx.tables().split_at(q_cnt);
            plan.apply_ntt_into(q_tables, p_tables, &mut q_ntt, &mut p_ntt)
        })
        .map_err(|e| fail(format!("apply_ntt_into: {e}")))?;
    if transformed(&q_ntt, 0, true) != fast {
        return Err(fail("apply_ntt_into differs from NTT(apply_into(INTT ..))".into()));
    }

    // A quarter of the cases also run the fused ModDown·Rescale a CKKS
    // context builds per level: `q_top` joins `P` as one more source and the
    // result lands on `q_0..q_{top−1}`. `top` is drawn below the last `q`
    // channel too, so the sources' tables are not one contiguous run.
    if case % 4 != 3 || q_cnt < 2 {
        return Ok(());
    }
    let top = 1 + rng.below(q_cnt as u64 - 1) as usize;
    let q_fused: Vec<usize> = (0..top).collect();
    let p_fused: Vec<usize> = std::iter::once(top).chain(p_idx.iter().copied()).collect();
    let mut q_ntt = transformed(&q_vals[..top], 0, false);
    let mut p_ntt = transformed(&q_vals[top..=top], top, false);
    p_ntt.extend(transformed(&p_vals, q_cnt, false));
    let p_tables: Vec<&NttTable> = p_fused.iter().map(|&c| ctx.table(c)).collect();
    ctx.moddown_plan(&q_fused, &p_fused)
        .and_then(|plan| {
            plan.apply_ntt_into(&ctx.tables()[..top], &p_tables, &mut q_ntt, &mut p_ntt)
        })
        .map_err(|e| fail(format!("fused apply_ntt_into (q_top = {top}): {e}")))?;
    let got = transformed(&q_ntt, 0, true);
    let p_moduli: Vec<u64> = p_fused.iter().map(|&c| moduli[c]).collect();
    for s in sample_indices(&mut rng, n, 28) {
        let xq: Vec<u64> = q_vals[..top].iter().map(|ch| ch[s]).collect();
        let xp: Vec<u64> =
            std::iter::once(q_vals[top][s]).chain(p_vals.iter().map(|ch| ch[s])).collect();
        let want = oracle::moddown_reference(&xq, &xp, &moduli[..top], &p_moduli);
        for k in 0..top {
            if got[k][s] != want[k] {
                return Err(fail(format!(
                    "fused close (q_top = {top}) coeff {s} q-channel {k}: fast={} oracle={}",
                    got[k][s], want[k]
                )));
            }
        }
    }
    Ok(())
}

fn rescale_case(mut rng: SplitMix64, seed: u64, case: u64) -> Result<(), Box<Repro>> {
    let (n, max_level, dnum) = match case {
        // Forced max-level chain on the largest rescale ring.
        0 => (512, 6, 7),
        _ => {
            const SIZES: [usize; 6] = [16, 32, 64, 128, 256, 512];
            let n = SIZES[rng.below(5) as usize + usize::from(rng.below(10) == 0)];
            let max_level = 1 + rng.below(6) as usize;
            (n, max_level, 1 + rng.below(max_level as u64 + 1) as usize)
        }
    };
    let ctx = ckks_context(n, max_level, dnum);
    let level = max_level;
    let moduli: Vec<u64> = ctx.level_moduli(level).iter().map(|m| m.value()).collect();
    let fam = Family::Rescale;
    let fail = |detail: String| repro(fam, seed, case, n, &moduli, detail);

    let mk_poly = |rng: &mut SplitMix64| -> RnsPoly {
        let channels: Vec<Poly> = (0..=level)
            .map(|c| {
                let m = ctx.level_moduli(level)[c];
                Poly::from_ntt(draw_coeffs(rng, n, m.value()), m).expect("canonical draw")
            })
            .collect();
        RnsPoly::from_channels(channels).expect("consistent channels")
    };
    let c0 = mk_poly(&mut rng);
    let c1 = mk_poly(&mut rng);
    let scale = (1u64 << 30) as f64;
    let ct = Ciphertext::from_rns_parts(c0.clone(), c1.clone(), level, scale)
        .map_err(|e| fail(format!("from_rns_parts: {e}")))?;
    let out = Evaluator::new(&ctx).rescale(&ct).map_err(|e| fail(format!("rescale: {e}")))?;

    if out.level() != level - 1 {
        return Err(fail(format!("rescale level {} expected {}", out.level(), level - 1)));
    }
    let q_last = *moduli.last().unwrap();
    if out.scale() != scale / q_last as f64 {
        return Err(fail(format!(
            "rescale scale {} expected {}",
            out.scale(),
            scale / q_last as f64
        )));
    }

    for (label, inp, outp) in [("c0", &c0, out.c0()), ("c1", &c1, out.c1())] {
        let mut ic = inp.clone();
        ic.to_coeff(ctx.level_tables(level));
        let mut oc = outp.clone();
        oc.to_coeff(ctx.level_tables(level - 1));
        for s in sample_indices(&mut rng, n, 20) {
            let xs: Vec<u64> = (0..=level).map(|c| ic.channel(c).coeffs()[s]).collect();
            let want = oracle::rescale_reference(&xs, &moduli);
            for (c, &w) in want.iter().enumerate() {
                let got = oc.channel(c).coeffs()[s];
                if got != w {
                    return Err(fail(format!(
                        "{label} coeff {s} channel {c}: fast={got} oracle={w}"
                    )));
                }
            }
        }
    }
    Ok(())
}

fn reconstruct_case(mut rng: SplitMix64, seed: u64, case: u64) -> Result<(), Box<Repro>> {
    // 1–8 channels of 30–61-bit primes; the chain is ring-independent, the
    // degree only selects which primes the search returns.
    const N: usize = 16;
    const WIDTHS: [u32; 8] = [30, 36, 40, 45, 50, 55, 60, 61];
    let picks: Vec<u32> = match case {
        // Forced: the widest table, and the single-modulus degenerate case.
        0 => vec![61; 8],
        1 => vec![61],
        _ => (0..1 + rng.below(8)).map(|_| WIDTHS[rng.below(8) as usize]).collect(),
    };
    let moduli = basis_of_widths(&picks, N);
    let fam = Family::Reconstruct;
    let fail = |detail: String| repro(fam, seed, case, N, &moduli, detail);
    let chain: Vec<Modulus> = moduli.iter().map(|&q| Modulus::new(q).unwrap()).collect();
    let table = MixedRadix::new(&chain).map_err(|e| fail(format!("table: {e}")))?;

    // One table serves every prefix of the chain (a level).
    for len in 1..=chain.len() {
        let prefix = &moduli[..len];
        let q = UBig::product_of(prefix.iter().copied());
        let half = q.divrem_u64(2).0;
        let one = UBig::one();
        // Forced boundary values, then uniform residue draws with the
        // per-channel specials salted in.
        let mut inputs: Vec<Vec<u64>> =
            [UBig::zero(), one.clone(), half.clone(), half.add(&one), q.sub(&one)]
                .iter()
                .map(|x| prefix.iter().map(|&m| x.rem_u64(m)).collect())
                .collect();
        for _ in 0..4 {
            inputs.push(prefix.iter().map(|&m| draw_coeffs(&mut rng, 1, m)[0]).collect());
        }
        for xs in inputs {
            let want = oracle::crt_reconstruct(&xs, prefix);
            let mut d = xs.clone();
            table.to_digits(&mut d);
            if let Some(i) = (0..len).find(|&i| d[i] >= prefix[i]) {
                return Err(fail(format!("len {len}: digit {i} = {} ≥ q_{i}", d[i])));
            }
            let expand = |d: &[u64]| {
                d.iter()
                    .zip(prefix)
                    .rev()
                    .fold(UBig::zero(), |acc, (&di, &m)| acc.mul_u64(m).add(&UBig::from_u64(di)))
            };
            if expand(&d) != want {
                return Err(fail(format!("len {len}: digits of {xs:?} re-expand wrong")));
            }
            let want_negative = want > half;
            let want_mag = if want_negative { q.sub(&want) } else { want.clone() };
            if table.center(&mut d) != want_negative {
                return Err(fail(format!("len {len}: sign of {xs:?} expected {want_negative}")));
            }
            if expand(&d) != want_mag {
                return Err(fail(format!("len {len}: magnitude digits of {xs:?} wrong")));
            }
            let (got_f, want_f) = (table.to_f64(&d), want_mag.to_f64());
            if (got_f - want_f).abs() > want_f * 4.0 * len as f64 * f64::EPSILON {
                return Err(fail(format!("len {len}: f64 {got_f} vs {want_f}")));
            }
            let mut again = xs.clone();
            let signed = table.centered_f64(&mut again);
            if signed != if want_negative { -got_f } else { got_f } {
                return Err(fail(format!("len {len}: centered_f64 of {xs:?} disagrees")));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_reference_vectors() {
        // Published test vectors for splitmix64 with seed 0.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn case_streams_are_deterministic_and_decorrelated() {
        let a: Vec<u64> = {
            let mut r = case_rng(1, Family::Ntt, 0);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = case_rng(1, Family::Ntt, 0);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = case_rng(1, Family::Conv, 0);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b, "same tuple must replay identically");
        assert_ne!(a, c, "families must get distinct streams");
    }

    #[test]
    fn repro_prints_one_line_tuple() {
        let r = Repro {
            op: "bconv",
            seed: 0x1234,
            case: 7,
            n: 64,
            moduli: vec![97, 193],
            detail: "mismatch".into(),
        };
        let line = r.to_string();
        assert!(line.contains("op=bconv"), "{line}");
        assert!(line.contains("seed=0x0000000000001234"), "{line}");
        assert!(line.contains("case=7"), "{line}");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn seed_parsing_accepts_hex_and_decimal() {
        assert_eq!(parse_u64("42"), Some(42));
        assert_eq!(parse_u64("0xff"), Some(255));
        assert_eq!(parse_u64("0XFF"), Some(255));
        assert_eq!(parse_u64("nope"), None);
    }
}
