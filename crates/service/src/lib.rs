//! FHE-as-a-service: an async multi-tenant batch server over the
//! repo's cross-scheme FHE stack.
//!
//! The accelerator papers (Alchemist included) benchmark single
//! operations; a *service* built on them lives or dies on three other
//! axes, which this crate reproduces end to end with std-only
//! concurrency (threadpool + `mpsc`, no runtime dependency):
//!
//! * **Throughput under multi-tenancy** — requests are op graphs
//!   ([`request`]) compiled to validated, fingerprinted plans
//!   ([`plan`]) whose schedules pass the simulator's manifest check
//!   before any ciphertext work; a bounded admission queue ([`queue`])
//!   rejects overload with retry hints and holds every tenant to a
//!   fair share; same-tenant same-program CKKS requests share one
//!   ciphertext through the slot packer ([`mod@pack`]); hot tenants' eval
//!   keys stay resident in an LRU cache ([`keycache`]).
//! * **Degradation, not death** — the server ([`server`]) wires the
//!   faultsim containment lattice into the request lifecycle: a
//!   poisoned worker, failed checksum, or exhausted noise budget fails
//!   exactly one request with a structured error and a flight-recorder
//!   fault dump, and the server keeps serving. The resilience layer
//!   (DESIGN.md §17) extends the same stance to *time*: per-request
//!   deadlines, a watchdog that confiscates stalled batches and
//!   respawns workers ([`supervise`]), and per-tenant circuit breakers
//!   that quarantine serial poisoners ([`breaker`]) — all checked by a
//!   chaos campaign whose ledger proves no admitted request is ever
//!   lost (`chaos_campaign` bin).
//! * **Observability** — telemetry spans follow requests across the
//!   submit/worker thread boundary (`SpanGuard::detach`/`attach`),
//!   per-tenant latency histograms and cache/pack/fault counters feed
//!   the `serve_trace` binary's report, whose exit status rests on the
//!   counts (faults contained, nothing lost, every answer verified);
//!   its timings are compared by `benchmark/`, nowhere else.
//!
//! The synthetic trace ([`trace`]) replays a million-tenant id space
//! with a 90/10 hot set — the skew that makes packing and key caching
//! measurable rather than decorative.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod error;
pub mod exec;
pub mod keycache;
pub mod pack;
pub mod plan;
pub mod queue;
pub mod request;
pub mod server;
pub mod supervise;
pub mod trace;

pub use breaker::{BreakerBank, BreakerConfig, BreakerState, BreakerStats};
pub use error::ServiceError;
pub use exec::INJECTED_SERVICE_PANIC;
pub use keycache::{KeyCache, KeyCacheStats};
pub use pack::{pack, PackedBatch};
pub use plan::{compile, Plan};
pub use queue::{AdmissionConfig, AdmissionQueue, QueueStats};
pub use request::{FaultFlag, OpKind, Payload, Request, Scheme, TenantId};
pub use server::{Completion, Server, ServerConfig, StatsSnapshot};
pub use supervise::{SupervisorConfig, WorkerHealth};
pub use trace::{generate, replay, Template, TraceConfig, TraceReport};
