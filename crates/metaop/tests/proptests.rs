//! Property-based tests of the Meta-OP layer: the lowered operators must
//! be *bit-exact* against the reference implementations for arbitrary
//! inputs and supported sizes.

use fhe_math::{generate_ntt_primes, Modulus, NttTable, RnsBasis, RnsContext};
use metaop::counts;
use metaop::exec::lazy_dot;
use metaop::ntt::NttLowering;
use metaop::{linear, MetaOpTrace};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lazy_dot_equals_eager(
        pairs in prop::collection::vec((any::<u64>(), any::<u64>()), 1..64)
    ) {
        let q = Modulus::new(generate_ntt_primes(60, 8, 1).unwrap()[0]).unwrap();
        let xs: Vec<u64> = pairs.iter().map(|(a, _)| q.reduce(*a)).collect();
        let ys: Vec<u64> = pairs.iter().map(|(_, b)| q.reduce(*b)).collect();
        let mut eager = 0u64;
        for (&x, &y) in xs.iter().zip(&ys) {
            eager = q.add(eager, q.mul(x, y));
        }
        prop_assert_eq!(lazy_dot(&q, &xs, &ys), eager);
    }

    #[test]
    fn ntt_lowering_bit_exact(
        log_n in 3u32..9,
        seed in any::<u64>(),
    ) {
        let n = 1usize << log_n;
        let q = Modulus::new(generate_ntt_primes(36, n, 1).unwrap()[0]).unwrap();
        let table = NttTable::new(q, n).unwrap();
        let lowering = NttLowering::new(&table);
        let mut state = seed | 1;
        let data: Vec<u64> = (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                q.reduce(state)
            })
            .collect();
        let mut reference = data.clone();
        table.forward(&mut reference);
        let mut lowered = data.clone();
        let mut trace = MetaOpTrace::new();
        lowering.forward(&mut lowered, &mut trace);
        prop_assert_eq!(&lowered, &reference);
        // And the inverse returns to the input.
        lowering.inverse(&mut lowered, &mut trace);
        prop_assert_eq!(lowered, data);
    }

    #[test]
    fn bconv_lowering_bit_exact(seed in any::<u64>()) {
        let n = 16usize;
        let moduli: Vec<Modulus> = generate_ntt_primes(30, n, 5)
            .unwrap()
            .into_iter()
            .map(|p| Modulus::new(p).unwrap())
            .collect();
        let ctx = RnsContext::new(n, RnsBasis::new(moduli).unwrap()).unwrap();
        let plan = ctx.bconv(&[0, 1, 2], &[3, 4]).unwrap();
        let mut state = seed | 1;
        let chans: Vec<Vec<u64>> = (0..3)
            .map(|i| {
                (0..n)
                    .map(|_| {
                        state = state.wrapping_mul(2862933555777941757).wrapping_add(3037);
                        ctx.moduli()[i].reduce(state)
                    })
                    .collect()
            })
            .collect();
        let refs: Vec<&[u64]> = chans.iter().map(|c| c.as_slice()).collect();
        let mut trace = MetaOpTrace::new();
        prop_assert_eq!(linear::bconv(&plan, &refs, &mut trace), plan.apply(&refs));
    }

    #[test]
    fn decomp_poly_mult_lowering_bit_exact(
        dnum in 1usize..6,
        seed in any::<u64>(),
    ) {
        let n = 16usize;
        let q = Modulus::new(generate_ntt_primes(36, n, 1).unwrap()[0]).unwrap();
        let mut state = seed | 1;
        let mut rand_poly = || -> Vec<u64> {
            (0..n)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(77);
                    q.reduce(state)
                })
                .collect()
        };
        let digits: Vec<Vec<u64>> = (0..dnum).map(|_| rand_poly()).collect();
        let keys: Vec<Vec<u64>> = (0..dnum).map(|_| rand_poly()).collect();
        let dr: Vec<&[u64]> = digits.iter().map(|d| d.as_slice()).collect();
        let kr: Vec<&[u64]> = keys.iter().map(|k| k.as_slice()).collect();
        let mut eager = vec![0u64; n];
        for i in 0..dnum {
            for s in 0..n {
                eager[s] = q.add(eager[s], q.mul(digits[i][s], keys[i][s]));
            }
        }
        let mut trace = MetaOpTrace::new();
        prop_assert_eq!(linear::decomp_poly_mult(&q, &dr, &kr, &mut trace), eager);
    }

    #[test]
    fn table_formulas_dominate_meta(dnum in 1u64..10, l in 1u64..30, k in 1u64..30) {
        // Lazy reduction never increases multiply counts for the RNS ops.
        let d = counts::decomp_poly_mult_counts(dnum, 1 << 10);
        prop_assert!(d.meta <= d.original);
        let b = counts::bconv_counts(l, k, 1 << 10);
        prop_assert!(b.meta <= b.original);
    }

    #[test]
    fn workload_counts_scale_linearly(times in 1u64..16) {
        let p = counts::CkksCountParams::paper_default().at_level(20);
        let one = counts::keyswitch(&p);
        let many = one.scaled(times);
        prop_assert_eq!(many.total_original(), one.total_original() * times);
        prop_assert_eq!(many.total_meta(), one.total_meta() * times);
    }
}
