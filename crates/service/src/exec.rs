//! Plan execution against real ciphertexts.
//!
//! The executor is deliberately dumb: the plan compiler already proved
//! the program legal (levels, scales, constants), so execution is a
//! straight walk of the op list. Everything interesting here is the
//! fault surface:
//!
//! * [`FaultFlag::WorkerPanic`] panics mid-walk — the server's
//!   `catch_unwind` must contain it;
//! * [`FaultFlag::BitFlip`] corrupts one coefficient bit through the
//!   faultsim corruption surface — the integrity checksum must catch it;
//! * [`FaultFlag::BudgetBurn`] inflates the tracked scale past the
//!   modulus product — decryption must refuse with `BudgetExhausted`.
//!
//! All three degrade exactly one request; none may take down a worker,
//! a batch, or the server.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use fhe_ckks::{Ciphertext, CkksContext, Encoder, Evaluator};
use fhe_tfhe::{gates, ClientKey, LweCiphertext, ServerKey};
use rand_chacha::ChaCha8Rng;

use crate::error::ServiceError;
use crate::keycache::TenantKeys;
use crate::plan::Plan;
use crate::request::{FaultFlag, OpKind};

/// Panic payload of the injected worker fault (the containment tests
/// assert it round-trips into the structured error).
pub const INJECTED_SERVICE_PANIC: &str = "service: injected worker panic";

/// Sleeps `ms` in small slices, returning early when `cancel` flips —
/// the injected-stall surface must never block server shutdown.
fn stall_sleep(ms: u64, cancel: &AtomicBool) {
    let deadline = Instant::now() + Duration::from_millis(ms);
    while Instant::now() < deadline {
        if cancel.load(Ordering::Relaxed) {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Evaluates a compiled CKKS plan over `slots` under `keys`.
///
/// Encrypt → walk → decrypt → decode. `fault` injects one of the
/// lattice's fault classes; `fault_seed` makes the bit-flip site
/// reproducible.
///
/// # Errors
///
/// Structured [`ServiceError`]s from the detection lattice
/// (`IntegrityViolation`, `BudgetExhausted`) or the scheme.
///
/// # Panics
///
/// Deliberately, when `fault` is [`FaultFlag::WorkerPanic`] — the
/// caller contains it with `catch_unwind`.
#[allow(clippy::too_many_arguments)]
pub fn execute_ckks(
    ctx: &CkksContext,
    keys: &TenantKeys,
    plan: &Plan,
    slots: &[f64],
    fault: FaultFlag,
    fault_seed: u64,
    rng: &mut ChaCha8Rng,
    cancel: &AtomicBool,
) -> Result<Vec<f64>, ServiceError> {
    let _span = telemetry::Span::enter("service.exec.ckks");
    // A multiplying plan needs the tenant's relinearization key: the entry's
    // first such request draws it here, outside the key-cache lock and
    // before any ciphertext exists.
    if plan.ops.iter().any(|op| matches!(op, OpKind::Square { .. } | OpKind::Mul { .. })) {
        keys.rlk(ctx)?;
    }
    let enc = Encoder::new(ctx);
    let eval = Evaluator::new(ctx);
    let pt = enc.encode(slots)?;
    let mut input = keys.sk.encrypt(ctx, &pt, rng)?;
    if fault == FaultFlag::BitFlip {
        let site = faultsim::hooks::flip_ckks_bit(&mut input, fault_seed);
        telemetry::count_named("service.fault.bitflip.injected", 1);
        let _ = site;
    }
    let panic_at = plan.ops.len() / 2;
    let mut nodes: Vec<Ciphertext> = Vec::with_capacity(plan.ops.len());
    for (i, op) in plan.ops.iter().enumerate() {
        if fault == FaultFlag::WorkerPanic && i == panic_at {
            panic!("{INJECTED_SERVICE_PANIC}");
        }
        if let FaultFlag::WorkerStall { ms } = fault {
            if i == panic_at {
                telemetry::count_named("service.fault.stall.injected", 1);
                stall_sleep(ms, cancel);
            }
        }
        let ct = match *op {
            OpKind::Input => input.clone(),
            OpKind::AddConst { arg, c } => {
                let a = &nodes[arg];
                let pt = enc.encode_at(&vec![c; slots.len()], a.level(), a.scale())?;
                eval.add_plain(a, &pt)?
            }
            OpKind::MulConst { arg, c } => eval.mul_const(&nodes[arg], c)?,
            OpKind::Negate { arg } => eval.neg(&nodes[arg])?,
            OpKind::Square { arg } => eval.rescale(&eval.square(&nodes[arg], keys.rlk(ctx)?)?)?,
            OpKind::Add { a, b } => eval.add(&nodes[a], &nodes[b])?,
            OpKind::Mul { a, b } => {
                eval.rescale(&eval.mul(&nodes[a], &nodes[b], keys.rlk(ctx)?)?)?
            }
        };
        nodes.push(ct);
    }
    let mut out = nodes.pop().expect("plans are non-empty");
    if fault == FaultFlag::BudgetBurn {
        // Scale-reinterpretation by a tiny constant inflates the tracked
        // scale without touching a level; a few rounds overdraw any
        // budget and decrypt refuses with `BudgetExhausted`.
        telemetry::count_named("service.fault.budgetburn.injected", 1);
        while out.noise_budget_bits() > 0.0 {
            out = eval.mul_const(&out, 1e-30)?;
        }
    }
    let pt = keys.sk.decrypt(&out)?;
    Ok(enc.decode(&pt)?)
}

/// Evaluates a compiled TFHE plan over `bits` under the tenant's TFHE
/// keys: Add → XOR, Mul → AND, Negate → NOT, one output bit (as
/// `0.0`/`1.0` so both schemes share a result type).
///
/// # Errors
///
/// Structured [`ServiceError`]s from the gate layer.
///
/// # Panics
///
/// Deliberately for [`FaultFlag::WorkerPanic`], like
/// [`execute_ckks`].
pub fn execute_tfhe(
    ck: &ClientKey,
    sk: &ServerKey,
    plan: &Plan,
    bits: &[bool],
    fault: FaultFlag,
    rng: &mut ChaCha8Rng,
    cancel: &AtomicBool,
) -> Result<Vec<f64>, ServiceError> {
    let _span = telemetry::Span::enter("service.exec.tfhe");
    let panic_at = plan.ops.len() / 2;
    let mut next_input = 0usize;
    let mut nodes: Vec<LweCiphertext> = Vec::with_capacity(plan.ops.len());
    for (i, op) in plan.ops.iter().enumerate() {
        if fault == FaultFlag::WorkerPanic && i == panic_at {
            panic!("{INJECTED_SERVICE_PANIC}");
        }
        if let FaultFlag::WorkerStall { ms } = fault {
            if i == panic_at {
                telemetry::count_named("service.fault.stall.injected", 1);
                stall_sleep(ms, cancel);
            }
        }
        let ct = match *op {
            OpKind::Input => {
                let bit = bits[next_input];
                next_input += 1;
                ck.encrypt_bit(bit, rng)
            }
            OpKind::Negate { arg } => gates::not(&nodes[arg]),
            OpKind::Add { a, b } => gates::xor(sk, &nodes[a], &nodes[b])?,
            OpKind::Mul { a, b } => gates::and(sk, &nodes[a], &nodes[b])?,
            // validate() rejected these for TFHE.
            OpKind::AddConst { .. } | OpKind::MulConst { .. } | OpKind::Square { .. } => {
                return Err(ServiceError::InvalidRequest {
                    detail: format!("node {i}: {op:?} reached the TFHE executor"),
                })
            }
        };
        nodes.push(ct);
    }
    let out = nodes.last().expect("plans are non-empty");
    Ok(vec![if ck.decrypt_bit(out) { 1.0 } else { 0.0 }])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keycache::KeyCache;
    use crate::plan::compile;
    use crate::request::{Payload, Request, Scheme};
    use fhe_ckks::CkksParams;
    use rand::SeedableRng;

    fn ctx() -> CkksContext {
        CkksContext::new(CkksParams::toy().unwrap()).unwrap()
    }

    fn run(
        ops: Vec<OpKind>,
        payload: Vec<f64>,
        fault: FaultFlag,
    ) -> Result<Vec<f64>, ServiceError> {
        let c = ctx();
        let req = Request {
            tenant: 11,
            scheme: Scheme::Ckks,
            ops,
            payload: Payload::CkksSlots(payload.clone()),
            fault,
        };
        let plan = compile(&req, &c).unwrap();
        let mut cache = KeyCache::new(4, 99);
        let keys = cache.get_ckks(11, &c).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        execute_ckks(&c, &keys, &plan, &payload, fault, 0xF00D, &mut rng, &AtomicBool::new(false))
    }

    #[test]
    fn straight_line_program_evaluates_correctly() {
        // -(2x + 1) over x = 0.25 ⇒ -1.5
        let got = run(
            vec![
                OpKind::Input,
                OpKind::MulConst { arg: 0, c: 2.0 },
                OpKind::AddConst { arg: 1, c: 1.0 },
                OpKind::Negate { arg: 2 },
            ],
            vec![0.25; 4],
            FaultFlag::None,
        )
        .unwrap();
        for v in &got[..4] {
            assert!((v + 1.5).abs() < 1e-2, "got {v}");
        }
    }

    #[test]
    fn square_consumes_level_and_matches() {
        // x² + 3 over x = 0.5 ⇒ 3.25
        let got = run(
            vec![OpKind::Input, OpKind::Square { arg: 0 }, OpKind::AddConst { arg: 1, c: 3.0 }],
            vec![0.5; 4],
            FaultFlag::None,
        )
        .unwrap();
        for v in &got[..4] {
            assert!((v - 3.25).abs() < 1e-2, "got {v}");
        }
    }

    #[test]
    fn budget_burn_is_caught_at_decrypt() {
        let e = run(
            vec![OpKind::Input, OpKind::AddConst { arg: 0, c: 1.0 }],
            vec![0.1; 4],
            FaultFlag::BudgetBurn,
        )
        .unwrap_err();
        assert!(matches!(e, ServiceError::BudgetExhausted { .. }), "{e}");
        assert!(e.is_contained_fault());
    }

    #[test]
    fn bit_flip_is_caught_by_the_checksum() {
        let e =
            run(vec![OpKind::Input, OpKind::Negate { arg: 0 }], vec![0.3; 4], FaultFlag::BitFlip)
                .unwrap_err();
        assert!(matches!(e, ServiceError::IntegrityViolation { .. }), "{e}");
    }

    #[test]
    fn tfhe_nand_evaluates() {
        let c = ctx();
        let params = fhe_tfhe::TfheParams::toy();
        let req = Request {
            tenant: 12,
            scheme: Scheme::Tfhe,
            ops: vec![
                OpKind::Input,
                OpKind::Input,
                OpKind::Mul { a: 0, b: 1 },
                OpKind::Negate { arg: 2 },
            ],
            payload: Payload::TfheBits(vec![true, true]),
            fault: FaultFlag::None,
        };
        let plan = compile(&req, &c).unwrap();
        let mut cache = KeyCache::new(2, 7);
        let keys = cache.get_tfhe(12, &c, &params).unwrap();
        let (ck, sk) = keys.tfhe.as_ref().unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let got = execute_tfhe(
            ck,
            sk,
            &plan,
            &[true, true],
            FaultFlag::None,
            &mut rng,
            &AtomicBool::new(false),
        )
        .unwrap();
        assert_eq!(got, vec![0.0], "NAND(1,1) = 0");
    }

    #[test]
    fn injected_stall_sleeps_and_then_completes() {
        let t0 = Instant::now();
        let got = run(
            vec![OpKind::Input, OpKind::Negate { arg: 0 }],
            vec![0.5; 4],
            FaultFlag::WorkerStall { ms: 30 },
        )
        .unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(30), "stall must actually sleep");
        assert!((got[0] + 0.5).abs() < 1e-2, "stall does not corrupt the result");
    }

    #[test]
    fn stall_sleep_cancels_promptly() {
        let cancel = AtomicBool::new(true);
        let t0 = Instant::now();
        stall_sleep(5_000, &cancel);
        assert!(t0.elapsed() < Duration::from_millis(500), "cancelled stall returns early");
    }
}
