//! Allocation-freedom proofs for the kernel hot paths.
//!
//! The scratch pools and `*_into` entry points exist so steady-state FHE
//! evaluation never touches the allocator; these tests pin that contract
//! with the counting global allocator (`telemetry::alloc`). Each test
//! warms a kernel up (first calls may fill pools and lazy tables), then
//! runs it under [`assert_no_alloc`], which panics on any heap traffic
//! attributed to the calling thread.

use fhe_math::{
    generate_ntt_primes, FourStepNtt, Modulus, NttTable, Poly, RnsBasis, RnsContext, RnsPoly,
};
use telemetry::alloc::{alloc_delta, assert_no_alloc};

fn context(n: usize, channels: usize) -> (RnsContext, Vec<Modulus>) {
    let primes = generate_ntt_primes(50, n, channels).expect("primes");
    let moduli: Vec<Modulus> = primes.iter().map(|&q| Modulus::new(q).expect("prime")).collect();
    let ctx = RnsContext::new(n, RnsBasis::new(moduli.clone()).expect("basis")).expect("context");
    (ctx, moduli)
}

fn fill(n: usize, c: usize, salt: u64, m: Modulus) -> Vec<u64> {
    (0..n as u64)
        .map(|i| (i ^ (c as u64) << 24 ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15) % m.value())
        .collect()
}

fn rns_poly(n: usize, salt: u64, moduli: &[Modulus]) -> RnsPoly {
    let channels: Vec<Poly> = moduli
        .iter()
        .enumerate()
        .map(|(c, &m)| Poly::from_coeffs(fill(n, c, salt, m), m).expect("canonical"))
        .collect();
    RnsPoly::from_channels(channels).expect("rns poly")
}

/// NTT forward/inverse on a single channel transforms strictly in place —
/// zero allocations even on a cold call; asserted after one warm-up like
/// every other case here.
#[test]
fn ntt_forward_inverse_allocation_free_sequential() {
    let n = 4096;
    let q = Modulus::new(generate_ntt_primes(50, n, 1).unwrap()[0]).unwrap();
    let table = NttTable::new(q, n).unwrap();
    let mut a = fill(n, 0, 7, q);
    table.forward(&mut a);
    table.inverse(&mut a);
    assert_no_alloc("ntt.forward", || table.forward(&mut a));
    assert_no_alloc("ntt.inverse", || table.inverse(&mut a));
}

/// The same at n = 2^13 (two radix-4 passes, three radix-8): every size
/// runs in place.
#[test]
fn blocked_ntt_allocation_free_after_warmup_sequential() {
    let n = 8192;
    let q = Modulus::new(generate_ntt_primes(50, n, 1).unwrap()[0]).unwrap();
    let table = NttTable::new(q, n).unwrap();
    let mut a = fill(n, 0, 3, q);
    table.forward(&mut a);
    table.inverse(&mut a);
    assert_no_alloc("ntt.forward.blocked", || table.forward(&mut a));
    assert_no_alloc("ntt.inverse.blocked", || table.inverse(&mut a));
}

/// Four-step NTT at n = 8192: column/row transforms work out
/// of the scratch pool, so the warmed-up transform allocates nothing.
#[test]
fn four_step_ntt_allocation_free_after_warmup() {
    let q = Modulus::new(generate_ntt_primes(50, 8192, 1).unwrap()[0]).unwrap();
    let ntt = FourStepNtt::new(q, 64, 128).unwrap();
    let mut a = fill(8192, 0, 11, q);
    ntt.forward(&mut a);
    ntt.inverse(&mut a);
    assert_no_alloc("four_step.forward", || ntt.forward(&mut a));
    assert_no_alloc("four_step.inverse", || ntt.inverse(&mut a));
}

/// Multi-channel NTT via `RnsPoly::to_ntt`/`to_coeff`: the contained
/// region around the channel loop allocates nothing.
#[test]
fn rns_ntt_round_trip_allocation_free() {
    let n = 4096;
    let (ctx, moduli) = context(n, 6);
    let mut p = rns_poly(n, 1, &moduli);
    p.to_ntt(ctx.tables()).unwrap();
    p.to_coeff(ctx.tables());
    assert_no_alloc("rns.to_ntt", || p.to_ntt(ctx.tables()).unwrap());
    assert_no_alloc("rns.to_coeff", || p.to_coeff(ctx.tables()));
}

/// Element-wise RNS arithmetic mutates residues in place: strictly
/// allocation-free.
#[test]
fn elementwise_rns_ops_allocation_free() {
    let n = 4096;
    let (ctx, moduli) = context(n, 6);
    let mut p = rns_poly(n, 1, &moduli);
    let mut q = rns_poly(n, 2, &moduli);
    p.to_ntt(ctx.tables()).unwrap();
    q.to_ntt(ctx.tables()).unwrap();
    p.add_assign(&q).unwrap();
    assert_no_alloc("rns.add_assign", || p.add_assign(&q).unwrap());
    assert_no_alloc("rns.sub_assign", || p.sub_assign(&q).unwrap());
    assert_no_alloc("rns.neg_assign", || p.neg_assign());
    assert_no_alloc("rns.mul_pointwise_assign", || p.mul_pointwise_assign(&q).unwrap());
}

/// The NTT-domain key-switch tail on caller-owned accumulators: the Galois
/// gather is index arithmetic on existing buffers, and
/// `ModdownPlan::apply_ntt_into` converts `P → Q` one destination channel
/// at a time through a single pooled buffer — nothing is allocated once
/// that buffer exists.
#[test]
fn ntt_domain_moddown_allocation_free_after_warmup_sequential() {
    let n = 4096;
    let (ctx, moduli) = context(n, 10);
    let (q_idx, p_idx): (Vec<usize>, Vec<usize>) = ((0..7).collect(), (7..10).collect());
    let plan = ctx.moddown_plan(&q_idx, &p_idx).unwrap();
    let (q_tables, p_tables) = ctx.tables().split_at(7);
    let mut acc: Vec<Vec<u64>> =
        moduli.iter().enumerate().map(|(c, &m)| fill(n, c, 9, m)).collect();
    let perm = fhe_math::galois_ntt_permutation(n, 5).unwrap();
    let mut gathered = vec![0u64; n];
    let mut run = |acc: &mut Vec<Vec<u64>>| {
        for (y, &i) in gathered.iter_mut().zip(&perm) {
            *y = acc[0][i as usize];
        }
        let (q, p) = acc.split_at_mut(7);
        plan.apply_ntt_into(q_tables, p_tables, q, p).unwrap();
    };
    run(&mut acc);
    assert_no_alloc("moddown.apply_ntt_into", || run(&mut acc));
}

/// The keyswitch ladder (`modup_into`/`moddown_into`) rebuilds its Bconv
/// plan per call, so it is bounded rather than zero: steady-state calls
/// must allocate exactly as much as the previous call (no warm-up drift,
/// no leak-style growth) and stay under a coarse absolute cap.
#[test]
fn keyswitch_into_paths_have_bounded_steady_state_allocations() {
    let n = 4096;
    let (ctx, moduli) = context(n, 6);
    let q_idx: Vec<usize> = (0..4).collect();
    let p_idx: Vec<usize> = (4..6).collect();
    let poly = rns_poly(n, 5, &moduli);
    let q_channels: Vec<&[u64]> = q_idx.iter().map(|&i| poly.channel(i).coeffs()).collect();
    let p_channels: Vec<&[u64]> = p_idx.iter().map(|&i| poly.channel(i).coeffs()).collect();
    let mut up = vec![Vec::new(); p_idx.len()];
    let mut down = vec![Vec::new(); q_idx.len()];

    let run = |up: &mut Vec<Vec<u64>>, down: &mut Vec<Vec<u64>>| {
        ctx.modup_into(&q_channels, &q_idx, &p_idx, up).unwrap();
        ctx.moddown_into(&q_channels, &p_channels, &q_idx, &p_idx, down).unwrap();
    };
    // Two warm-up rounds: scratch pools and output buffers reach capacity.
    run(&mut up, &mut down);
    run(&mut up, &mut down);
    let ((), d1) = alloc_delta(|| run(&mut up, &mut down));
    let ((), d2) = alloc_delta(|| run(&mut up, &mut down));
    assert_eq!(
        d1.allocs, d2.allocs,
        "steady-state keyswitch allocation count must not drift: {d1:?} vs {d2:?}"
    );
    assert_eq!(d1.bytes, d2.bytes, "steady-state keyswitch bytes must not drift");
    assert!(d1.allocs < 20_000, "keyswitch alloc count blew its bound: {d1:?}");
}
