//! Worker-panic containment at the scheme-API level.
//!
//! Arms the one-shot panic injector for a specific chunk and asserts that
//!
//! 1. the caller receives a typed error carrying the *right* chunk index
//!    (never an abort or an unwinding panic), and
//! 2. subsequent kernel calls on the same process still succeed — a
//!    poisoned region degrades to a clean `Result`, not a dead process.
//!
//! The injector is process-global, so the tests in this file serialize on
//! one mutex.

use std::sync::{Mutex, MutexGuard};

use fhe_ckks::{CkksContext, CkksError, CkksParams, Encoder, Evaluator, SecretKey};
use fhe_math::{par, MathError};
use fhe_tfhe::{NegacyclicMultiplier, TfheError};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn injector_guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with a panic armed for `chunk` and the default panic hook
/// silenced. Returns `(result, fired)` where `fired` is whether the
/// injection ran.
fn with_injected_panic<R>(chunk: usize, f: impl FnOnce() -> R) -> (R, bool) {
    par::inject_worker_panic(chunk);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = f();
    std::panic::set_hook(hook);
    let fired = !par::clear_injected_panic();
    (r, fired)
}

#[test]
fn par_map_reports_the_injected_chunk_index() {
    let _g = injector_guard();
    let items: Vec<u64> = (0..64).collect();
    // Every region runs chunk 0, so this assertion is unconditional.
    let (result, fired) = with_injected_panic(0, || par::par_map(&items, |_, x| x + 1));
    assert!(fired, "chunk 0 always executes");
    let err = result.expect_err("injected panic must surface as ParError");
    assert_eq!(err.chunk, 0, "ParError must carry the injected chunk index");
    assert_eq!(err.payload, par::INJECTED_PANIC_PAYLOAD);

    // The same call succeeds immediately afterwards: nothing is poisoned.
    let ok = par::par_map(&items, |_, x| x + 1).expect("process must stay usable");
    assert_eq!(ok[5], 6);
}

#[test]
fn ckks_rescale_contains_a_poisoned_worker() {
    let _g = injector_guard();
    let ctx = CkksContext::new(CkksParams::new(64, 3, 2, 30).expect("params")).expect("ctx");
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let sk = SecretKey::generate(&ctx, &mut rng).expect("keygen");
    let enc = Encoder::new(&ctx);
    let ev = Evaluator::new(&ctx);
    let values: Vec<f64> = (0..enc.slots()).map(|i| i as f64 / 64.0).collect();
    let ct = sk.encrypt(&ctx, &enc.encode(&values).expect("encode"), &mut rng).expect("encrypt");

    let (result, fired) = with_injected_panic(0, || ev.rescale(&ct));
    assert!(fired, "chunk 0 always executes");
    match result {
        Err(CkksError::Math(MathError::WorkerPanic { chunk, payload, .. })) => {
            assert_eq!(chunk, 0, "typed error must carry the injected chunk");
            assert_eq!(payload, par::INJECTED_PANIC_PAYLOAD);
        }
        other => panic!("expected a contained WorkerPanic, got {other:?}"),
    }

    // Graceful degradation: the same ciphertext still rescales, and the
    // full decrypt round-trip still works on this process.
    let rescaled = ev.rescale(&ct).expect("post-fault rescale must succeed");
    assert_eq!(rescaled.level(), ct.level() - 1);
    let out = enc.decode(&sk.decrypt(&ct).expect("decrypt")).expect("decode");
    assert!((out[1] - values[1]).abs() < 1e-2, "round-trip intact after containment");
}

#[test]
fn tfhe_join_contains_a_poisoned_second_chunk() {
    let _g = injector_guard();
    let m = NegacyclicMultiplier::new(64).expect("multiplier");
    let ints: Vec<i64> = (0..64).map(|i| (i % 5) - 2).collect();
    let torus: Vec<u64> = (0..64u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();

    // A two-prime multiplier runs its primes through `join`, whose side b is
    // chunk 1; a one-prime multiplier has no chunk 1.
    let (result, fired) = with_injected_panic(1, || m.mul_int_torus(&ints, &torus));
    if fired {
        match result {
            Err(TfheError::Math(MathError::WorkerPanic { chunk, payload, .. })) => {
                assert_eq!(chunk, 1, "typed error must carry the injected chunk");
                assert_eq!(payload, par::INJECTED_PANIC_PAYLOAD);
            }
            other => panic!("expected a contained WorkerPanic, got {other:?}"),
        }
    }

    let again = m.mul_int_torus(&ints, &torus).expect("post-fault multiply must succeed");
    assert_eq!(again.len(), 64);
}
