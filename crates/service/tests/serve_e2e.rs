//! End-to-end replays on the one server configuration, checked against
//! the templates' cleartext functions: a hot trace, whose same-tenant
//! same-program runs pack into shared ciphertexts, and a cold one, whose
//! every request runs as a batch of its own. Both must agree with the
//! oracle; the hot replay must actually pack and hit the key cache, and
//! every batch either replay forms closes one `service.batch` span.

use service::trace::{generate, replay, TraceConfig, TraceEntry, TraceReport};
use service::{Server, ServerConfig, StatsSnapshot};

/// Replays `entries` on a fresh two-worker server. Returns the report,
/// the final counters and the number of closed `service.batch` spans.
fn run(entries: &[TraceEntry]) -> (TraceReport, StatsSnapshot, u64) {
    let tel = telemetry::Telemetry::enabled();
    let server = Server::start(ServerConfig {
        workers: 2,
        seed: 0xE2E,
        telemetry: tel.clone(),
        ..ServerConfig::default()
    })
    .unwrap();
    let report = replay(&server, entries);
    let stats = server.finish();
    // Every closed span feeds the histogram named after it.
    let spans = tel.snapshot().histogram("service.batch").map_or(0, |h| h.count);
    (report, stats, spans)
}

#[test]
fn packed_and_singleton_replays_agree_with_the_cleartext_oracle() {
    let hot = TraceConfig { requests: 256, fault_every: 0, ..TraceConfig::default() };
    let (packed, packed_stats, _) = run(&generate(&hot));

    // Every fault-free completion is verified against the template's
    // plaintext function — zero tolerance for disagreement.
    assert_eq!(packed.verify_failures, 0, "packed results match the oracle");
    assert_eq!(packed.completed_ok, 256);

    // The hot replay must have genuinely coalesced: fewer batches than
    // requests, some multi-member, and a pack ratio above 1.
    assert!(packed_stats.packed_batches > 0, "no batch ever packed");
    assert!(packed_stats.batches < 256, "packing must reduce batch count");
    assert!(packed.pack_ratio > 1.0, "pack ratio {}", packed.pack_ratio);
    // The 64-tenant hot set at 90% keeps the key cache warm.
    assert!(
        packed.keycache_hit_rate > 0.5,
        "hot-set replay should mostly hit the key cache, got {:.2}",
        packed.keycache_hit_rate
    );
    assert_eq!(packed.faults_contained, 0);

    // Cold: every tenant drawn from the million-id tail, so no two
    // requests share a key and every one runs alone, CKKS and TFHE alike.
    let cold = generate(&TraceConfig { hot_fraction: 0.0, ..hot });
    let mut tenants: Vec<u64> = cold.iter().map(|e| e.request.tenant).collect();
    tenants.sort_unstable();
    tenants.dedup();
    assert_eq!(tenants.len(), 256, "the cold trace gives every request its own tenant");
    let (single, single_stats, _) = run(&cold);
    assert_eq!(single.verify_failures, 0, "lone results match the oracle");
    assert_eq!(single.completed_ok, 256);
    assert_eq!(single_stats.packed_batches, 0);
    assert_eq!(single_stats.batches, 256);
    assert_eq!(single.faults_contained, 0);
}

#[test]
fn every_batch_closes_one_service_batch_span() {
    // Lone CKKS requests, TFHE gates and packed groups all run through
    // one path, and each opens the span once.
    let entries = generate(&TraceConfig { requests: 256, ..TraceConfig::default() });
    let gates = entries.iter().filter(|e| e.template.is_tfhe()).count();
    assert!(gates > 0, "the trace carries TFHE gates");
    let (report, stats, spans) = run(&entries);
    assert_eq!(report.failed, 0);
    assert!(stats.packed_batches > 0 && stats.batches > stats.packed_batches);
    assert_eq!(spans, stats.batches, "one closed service.batch span per batch");
}
