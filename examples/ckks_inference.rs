//! Encrypted neural-network inference (the LoLa-MNIST workload of the
//! paper's Fig. 6a): a two-layer square-activation network evaluated
//! homomorphically on CKKS, then the same operator graph timed on the
//! Alchemist cycle simulator at the paper's parameters.
//!
//! ```sh
//! cargo run --release --example ckks_inference
//! ```

use alchemist::ckks::workloads::MlpModel;
use alchemist::ckks::{
    CkksContext, CkksParams, Encoder, Evaluator, GaloisKeys, RelinKey, SecretKey,
};
use alchemist::sim::{workloads, ArchConfig, Simulator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = ChaCha8Rng::seed_from_u64(7);

    // Functional inference at reduced ring degree.
    println!("running encrypted inference (N = 256, 128 slots)...");
    let ctx = CkksContext::new(CkksParams::new(256, 6, 2, 30)?)?;
    let sk = SecretKey::generate(&ctx, &mut rng)?;
    let rlk = RelinKey::generate(&ctx, &sk, &mut rng)?;
    let enc = Encoder::new(&ctx);
    let ev = Evaluator::new(&ctx);

    let model = MlpModel::random(enc.slots(), &mut rng);
    let gk = GaloisKeys::generate(&ctx, &sk, &model.required_rotations(), false, &mut rng)?;

    // A synthetic "image" (the simulator's time does not depend on data).
    let image: Vec<f64> = (0..enc.slots()).map(|i| ((i * 13 % 29) as f64 - 14.0) / 20.0).collect();
    let ct = sk.encrypt(&ctx, &enc.encode(&image)?, &mut rng)?;

    // The first call encodes the model's weight diagonals and keeps them;
    // the second finds them encoded.
    let t0 = std::time::Instant::now();
    let out_ct = model.infer_encrypted(&ev, &enc, &ct, &gk, &rlk)?;
    let first_call = t0.elapsed();
    let t1 = std::time::Instant::now();
    let again = model.infer_encrypted(&ev, &enc, &ct, &gk, &rlk)?;
    let second_call = t1.elapsed();
    assert_eq!(again, out_ct, "the kept encoding gives the same ciphertext");

    let got = enc.decode(&sk.decrypt(&out_ct)?)?;
    let want = model.infer_plain(&image);
    let max_err = got.iter().zip(&want).map(|(g, w)| (g - w).abs()).fold(0.0f64, f64::max);
    let pred_enc =
        got.iter().take(10).enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i);
    let pred_plain =
        want.iter().take(10).enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i);

    println!("  first inference         : {first_call:?}  (encodes the weights)");
    println!("  second inference        : {second_call:?}  (weights already encoded)");
    println!("  max slot error          : {max_err:.4}");
    println!("  predicted class (enc)   : {pred_enc:?}  (plain: {pred_plain:?})");
    assert_eq!(pred_enc, pred_plain, "encrypted argmax must match plaintext");

    // The same graph on the accelerator at the paper's parameters.
    println!("\nsimulating the LoLa-MNIST graph on Alchemist (N = 2^14)...");
    let sim = Simulator::new(ArchConfig::paper());
    for (label, encrypted) in [("unencrypted weights", false), ("encrypted weights", true)] {
        let (_, steps) = workloads::lola_mnist(encrypted);
        let r = sim.run(&steps);
        println!(
            "  {label}: {:.1} us, utilization {:.2} (paper: 0.11 ms encrypted)",
            r.seconds() * 1e6,
            r.utilization()
        );
    }
    Ok(())
}
