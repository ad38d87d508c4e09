//! Property-based tests of the Meta-OP layer: the lowered operators must
//! be *bit-exact* against the reference implementations for arbitrary
//! inputs and supported sizes.

use fhe_math::{generate_ntt_primes, Modulus, NttTable};
use metaop::counts;
use metaop::ntt::NttLowering;
use metaop::MetaOpTrace;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
