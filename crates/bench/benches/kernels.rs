//! Criterion micro-benchmarks of the number-theoretic kernels: reference
//! NTTs, the 4-step NTT, base conversion, and their Meta-OP lowerings —
//! the software counterparts of what the accelerator executes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fhe_math::{generate_ntt_primes, FourStepNtt, Modulus, NttTable, RnsBasis, RnsContext};
use metaop::ntt::NttLowering;
use metaop::MetaOpTrace;

fn bench_ntt(c: &mut Criterion) {
    let mut group = c.benchmark_group("ntt");
    for log_n in [10usize, 12, 14] {
        let n = 1 << log_n;
        let q = Modulus::new(generate_ntt_primes(36, n, 1).unwrap()[0]).unwrap();
        let table = NttTable::new(q, n).unwrap();
        let data: Vec<u64> = (0..n as u64).map(|i| i % q.value()).collect();
        group.bench_with_input(BenchmarkId::new("forward", n), &n, |b, _| {
            b.iter(|| {
                let mut a = data.clone();
                table.forward(&mut a);
                a
            })
        });
        group.bench_with_input(BenchmarkId::new("forward_lazy", n), &n, |b, _| {
            b.iter(|| {
                let mut a = data.clone();
                table.forward_lazy(&mut a);
                a
            })
        });
        let four = FourStepNtt::new(q, 1 << (log_n / 2), 1 << (log_n - log_n / 2)).unwrap();
        group.bench_with_input(BenchmarkId::new("four_step", n), &n, |b, _| {
            b.iter(|| {
                let mut a = data.clone();
                four.forward(&mut a);
                a
            })
        });
    }
    group.finish();
}

fn bench_metaop_lowering(c: &mut Criterion) {
    let mut group = c.benchmark_group("metaop_ntt_lowering");
    for log_n in [10usize, 12] {
        let n = 1 << log_n;
        let q = Modulus::new(generate_ntt_primes(36, n, 1).unwrap()[0]).unwrap();
        let table = NttTable::new(q, n).unwrap();
        let lowering = NttLowering::new(&table);
        let data: Vec<u64> = (0..n as u64).map(|i| (i * 7) % q.value()).collect();
        group.bench_with_input(BenchmarkId::new("forward_via_metaops", n), &n, |b, _| {
            b.iter(|| {
                let mut a = data.clone();
                let mut trace = MetaOpTrace::new();
                lowering.forward(&mut a, &mut trace);
                (a, trace.total_ops())
            })
        });
    }
    group.finish();
}

fn bench_bconv(c: &mut Criterion) {
    let mut group = c.benchmark_group("bconv");
    let n = 1 << 12;
    for (l, k) in [(4usize, 4usize), (12, 12)] {
        let moduli = generate_ntt_primes(36, n, l + k)
            .unwrap()
            .into_iter()
            .map(|q| Modulus::new(q).unwrap())
            .collect();
        let ctx = RnsContext::new(n, RnsBasis::new(moduli).unwrap()).unwrap();
        let src: Vec<usize> = (0..l).collect();
        let dst: Vec<usize> = (l..l + k).collect();
        let plan = ctx.bconv(&src, &dst).unwrap();
        let channels: Vec<Vec<u64>> = (0..l)
            .map(|i| {
                let q = ctx.moduli()[i].value();
                (0..n as u64).map(|s| (s * 31 + i as u64) % q).collect()
            })
            .collect();
        let refs: Vec<&[u64]> = channels.iter().map(|c| c.as_slice()).collect();
        group.bench_with_input(BenchmarkId::new("apply", format!("L{l}K{k}")), &(l, k), |b, _| {
            b.iter(|| plan.apply(&refs))
        });
    }
    group.finish();
}

fn bench_modmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("modmul");
    let q = Modulus::new(generate_ntt_primes(60, 64, 1).unwrap()[0]).unwrap();
    let xs: Vec<u64> = (0..4096u64).map(|i| q.reduce(i.wrapping_mul(0x2545F4914F6CDD1D))).collect();
    group.bench_function("barrett", |b| {
        b.iter(|| {
            let mut acc = 1u64;
            for &x in &xs {
                acc = q.mul(acc, x);
            }
            acc
        })
    });
    group.bench_function("shoup_fixed_operand", |b| {
        let w = q.shoup(12345);
        b.iter(|| {
            let mut acc = 1u64;
            for _ in &xs {
                acc = q.mul_shoup(acc, w);
            }
            acc
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ntt, bench_metaop_lowering, bench_bconv, bench_modmul);
criterion_main!(benches);
