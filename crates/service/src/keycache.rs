//! Per-tenant evaluation-key LRU cache.
//!
//! Relinearization keys at real parameters run to megabytes per tenant;
//! a million-tenant service cannot hold them all. The cache keeps the
//! hot tenants' key material resident (the synthetic trace's 90/10
//! tenant skew makes this the difference between key generation
//! dominating every request and amortizing to nothing) and regenerates
//! deterministically on miss — tenant keys in this self-contained demo
//! are derived from the tenant id, so eviction costs latency, never
//! correctness.
//!
//! A miss draws the secret only. The relinearization key is drawn by the
//! entry's first multiplying request ([`TenantKeys::rlk`]), outside the
//! cache lock and once however many requests race for it, from the tenant
//! stream's state right after the secret — the key an eager draw would
//! have made, bit for bit. A tenant that never multiplies never pays for
//! one. TFHE keys come from a stream of their own (same key, stream 1), so
//! an upgrade keeps the resident CKKS half instead of redrawing it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use fhe_ckks::{CkksContext, RelinKey, SecretKey};
use fhe_tfhe::{generate_keys, ClientKey, ServerKey, TfheParams};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::error::ServiceError;
use crate::request::TenantId;

/// The ChaCha stream (nonce) of a tenant's TFHE keys; CKKS keys use 0.
const TFHE_STREAM: u64 = 1;

/// One tenant's resident key material.
pub struct TenantKeys {
    /// CKKS secret (demo server doubles as the client).
    pub sk: SecretKey,
    /// CKKS relinearization key, drawn on first use ([`TenantKeys::rlk`]);
    /// a TFHE upgrade's new entry shares it, drawn or not.
    rlk: Arc<LazyRelinKey>,
    /// TFHE client key (lazily absent unless the tenant sent TFHE work).
    pub tfhe: Option<(ClientKey, ServerKey)>,
}

/// A relinearization key that is not drawn until a multiplication needs it.
struct LazyRelinKey {
    /// The tenant stream right after the secret: where an eager draw of the
    /// key would have continued.
    stream: ChaCha8Rng,
    /// Held while drawing, so concurrent first users wait for one draw.
    drawing: Mutex<()>,
    key: OnceLock<RelinKey>,
    stats: Arc<KeyCacheStats>,
}

impl TenantKeys {
    /// The tenant's relinearization key, drawn on the entry's first call.
    ///
    /// Callers run outside the cache lock. Concurrent first callers wait
    /// for one draw; a failed draw caches nothing, so the next call draws
    /// again from the same stream state and gets the same key.
    ///
    /// # Errors
    ///
    /// Propagates key-generation failures as [`ServiceError::Scheme`].
    pub fn rlk(&self, ctx: &CkksContext) -> Result<&RelinKey, ServiceError> {
        let lazy = &*self.rlk;
        if let Some(key) = lazy.key.get() {
            return Ok(key);
        }
        // Nothing is cached before a draw succeeds, so a draw that panicked
        // while holding the lock left no state behind it to distrust.
        let _drawing = lazy.drawing.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(key) = lazy.key.get() {
            return Ok(key);
        }
        let _span = telemetry::Span::enter("service.keycache.keygen.rlk");
        let key = RelinKey::generate(ctx, &self.sk, &mut lazy.stream.clone())?;
        lazy.stats.rlk_draws.fetch_add(1, Ordering::Relaxed);
        Ok(lazy.key.get_or_init(|| key))
    }
}

/// Cache hit/miss/eviction counters (monotonic, lock-free reads).
#[derive(Debug, Default)]
pub struct KeyCacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    rlk_draws: AtomicU64,
}

impl KeyCacheStats {
    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
    /// Misses (each one paid a secret-key generation).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
    /// Evictions of least-recently-used tenants.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
    /// Relinearization keys drawn: one per entry whose tenant multiplied.
    pub fn rlk_draws(&self) -> u64 {
        self.rlk_draws.load(Ordering::Relaxed)
    }
    /// Hit rate in `[0, 1]` (1.0 for an untouched cache).
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            1.0
        } else {
            h / (h + m)
        }
    }
}

/// LRU map from tenant id to key material.
///
/// LRU order is tracked with a monotonic use-stamp per entry rather
/// than a linked list: capacities are small (hundreds), eviction scans
/// are O(capacity), and the flat layout keeps the hot path — stamp
/// bump + clone of an `Arc` — allocation-free.
pub struct KeyCache {
    capacity: usize,
    seed: u64,
    clock: u64,
    entries: HashMap<TenantId, (Arc<TenantKeys>, u64)>,
    stats: Arc<KeyCacheStats>,
    /// The next TFHE key generation panics: the shape of a kernel panic
    /// under the server's cache lock.
    #[cfg(test)]
    pub(crate) panic_next_tfhe_keygen: bool,
}

impl KeyCache {
    /// A cache holding at most `capacity` tenants (min 1).
    pub fn new(capacity: usize, seed: u64) -> Self {
        KeyCache {
            capacity: capacity.max(1),
            seed,
            clock: 0,
            entries: HashMap::new(),
            stats: Arc::new(KeyCacheStats::default()),
            #[cfg(test)]
            panic_next_tfhe_keygen: false,
        }
    }

    /// Shared stats handle (readable while workers hold the cache lock).
    pub fn stats(&self) -> Arc<KeyCacheStats> {
        Arc::clone(&self.stats)
    }

    /// Tenants currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no tenant is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Deterministic per-tenant RNG: same tenant ⇒ same keys, across
    /// evictions and across servers with the same seed.
    fn tenant_rng(&self, tenant: TenantId) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(self.seed ^ tenant.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The tenant's CKKS keys, generating the secret (and possibly
    /// evicting) on miss; the relinearization key waits for
    /// [`TenantKeys::rlk`].
    ///
    /// # Errors
    ///
    /// Propagates key-generation failures as [`ServiceError::Scheme`].
    pub fn get_ckks(
        &mut self,
        tenant: TenantId,
        ctx: &CkksContext,
    ) -> Result<Arc<TenantKeys>, ServiceError> {
        self.clock += 1;
        let stamp = self.clock;
        if let Some((keys, used)) = self.entries.get_mut(&tenant) {
            *used = stamp;
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            telemetry::count_named("service.keycache.hit", 1);
            return Ok(Arc::clone(keys));
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        telemetry::count_named("service.keycache.miss", 1);
        let _span = telemetry::Span::enter("service.keycache.keygen");
        let mut stream = self.tenant_rng(tenant);
        let sk = SecretKey::generate(ctx, &mut stream)?;
        let rlk = Arc::new(LazyRelinKey {
            stream,
            drawing: Mutex::new(()),
            key: OnceLock::new(),
            stats: Arc::clone(&self.stats),
        });
        let keys = Arc::new(TenantKeys { sk, rlk, tfhe: None });
        self.insert(tenant, Arc::clone(&keys), stamp);
        Ok(keys)
    }

    /// The tenant's keys with the TFHE pair, generated on its first TFHE
    /// request.
    ///
    /// # Errors
    ///
    /// Propagates key-generation failures as [`ServiceError::Scheme`].
    pub fn get_tfhe(
        &mut self,
        tenant: TenantId,
        ctx: &CkksContext,
        params: &TfheParams,
    ) -> Result<Arc<TenantKeys>, ServiceError> {
        let keys = self.get_ckks(tenant, ctx)?;
        if keys.tfhe.is_some() {
            return Ok(keys);
        }
        // Upgrade the entry: the resident CKKS half (and its relinearization
        // key, drawn or not) carries over; the TFHE keys come from their own
        // stream of the tenant's key.
        let _span = telemetry::Span::enter("service.keycache.keygen.tfhe");
        #[cfg(test)]
        assert!(!std::mem::take(&mut self.panic_next_tfhe_keygen), "injected keygen panic");
        let mut stream = self.tenant_rng(tenant);
        stream.set_stream(TFHE_STREAM);
        let upgraded = Arc::new(TenantKeys {
            sk: keys.sk.clone(),
            rlk: Arc::clone(&keys.rlk),
            tfhe: Some(generate_keys(params, &mut stream)?),
        });
        if let Some(entry) = self.entries.get_mut(&tenant) {
            entry.0 = Arc::clone(&upgraded);
        }
        Ok(upgraded)
    }

    fn insert(&mut self, tenant: TenantId, keys: Arc<TenantKeys>, stamp: u64) {
        if self.entries.len() >= self.capacity {
            if let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, (_, used))| *used) {
                self.entries.remove(&victim);
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                telemetry::count_named("service.keycache.evict", 1);
            }
        }
        self.entries.insert(tenant, (keys, stamp));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_ckks::CkksParams;

    fn ctx() -> CkksContext {
        CkksContext::new(CkksParams::toy().unwrap()).unwrap()
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c = ctx();
        let mut cache = KeyCache::new(2, 42);
        cache.get_ckks(1, &c).unwrap();
        cache.get_ckks(2, &c).unwrap();
        cache.get_ckks(1, &c).unwrap(); // refresh 1 ⇒ 2 is now LRU
        cache.get_ckks(3, &c).unwrap(); // evicts 2
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions(), 1);
        cache.get_ckks(1, &c).unwrap(); // still resident
        assert_eq!(cache.stats().misses(), 3, "only 1, 2, 3 first-use misses");
        cache.get_ckks(2, &c).unwrap(); // evicted ⇒ miss again
        assert_eq!(cache.stats().misses(), 4);
    }

    #[test]
    fn keys_are_deterministic_per_tenant() {
        let c = ctx();
        let mut a = KeyCache::new(1, 7);
        let mut b = KeyCache::new(1, 7);
        let ka = a.get_ckks(55, &c).unwrap();
        let kb = b.get_ckks(55, &c).unwrap();
        assert_eq!(ka.sk.coefficients(), kb.sk.coefficients());
        // Eviction and regeneration yields the same secret.
        a.get_ckks(56, &c).unwrap();
        let ka2 = a.get_ckks(55, &c).unwrap();
        assert_eq!(ka.sk.coefficients(), ka2.sk.coefficients());

        // The TFHE half too, from its own stream: equal across servers and
        // across evictions, and not a reuse of the CKKS stream's words.
        let p = TfheParams::toy();
        let lwe = |keys: &TenantKeys| keys.tfhe.as_ref().unwrap().0.lwe_key().bits().to_vec();
        let ta = lwe(&a.get_tfhe(55, &c, &p).unwrap());
        assert_eq!(ta, lwe(&b.get_tfhe(55, &c, &p).unwrap()));
        a.get_ckks(56, &c).unwrap();
        assert_eq!(ta, lwe(&a.get_tfhe(55, &c, &p).unwrap()));
        let (ck, _) = generate_keys(&p, &mut a.tenant_rng(55)).unwrap();
        assert_ne!(ta, ck.lwe_key().bits());
        assert_ne!(ta, lwe(&a.get_tfhe(56, &c, &p).unwrap()));
    }

    #[test]
    fn a_draw_after_a_poisoning_panic_draws_once_and_the_same_key() {
        let c = ctx();
        let keys = KeyCache::new(1, 3).get_ckks(8, &c).unwrap();
        let lazy = Arc::clone(&keys.rlk);
        let died = std::thread::spawn(move || {
            let _drawing = lazy.drawing.lock().unwrap();
            panic!("a kernel panic mid-draw");
        })
        .join();
        assert!(died.is_err() && keys.rlk.drawing.is_poisoned());

        let drawn: Vec<usize> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..2)
                .map(|_| s.spawn(|| keys.rlk(&c).unwrap() as *const RelinKey as usize))
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(drawn[0], drawn[1], "both racers hold one key");
        assert_eq!(keys.rlk.stats.rlk_draws(), 1, "drawn once");

        let fresh = KeyCache::new(1, 3).get_ckks(8, &c).unwrap();
        let digits = |k: &TenantKeys| -> Vec<Vec<u64>> {
            let rlk = k.rlk(&c).unwrap().switch_key().digit_keys().to_vec();
            let polys = rlk.iter().flat_map(|(b, a)| [b.clone(), a.clone()]);
            polys.flat_map(|p| p.channels().to_vec()).map(|ch| ch.coeffs().to_vec()).collect()
        };
        assert_eq!(digits(&keys), digits(&fresh), "the key a fresh cache draws");
    }

    #[test]
    fn hit_rate_reflects_reuse() {
        let c = ctx();
        let mut cache = KeyCache::new(4, 0);
        for _ in 0..9 {
            cache.get_ckks(10, &c).unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.misses(), 1);
        assert_eq!(s.hits(), 8);
        assert!((s.hit_rate() - 8.0 / 9.0).abs() < 1e-12);
    }
}
