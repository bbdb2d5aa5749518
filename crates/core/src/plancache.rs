//! The plan cache: parse/optimize once, execute many.
//!
//! Every entry point that takes SQL text looks it up here first, so a
//! repeated SELECT is neither parsed nor optimized again (§5's state-space
//! enumeration dominates short queries); only `Database::optimize`, the
//! planner probe, bypasses it. A cached plan is only valid for the
//! *placement context* it was optimized under — the network description
//! and everything the optimizer read from the catalog and UDF registry.
//! All of it rolls into the database's **plan epoch**: UDF
//! (re-)registration, a network change and, in a coordinator's engine,
//! every routed INSERT, advertised distinct count and shard replacement
//! bump it, and it counts every table registered or dropped and every
//! change to a registered table's profile, whichever path made it
//! ([`csq_storage::Catalog::changes`]). Entries are keyed by SQL text and
//! stamped with the epoch they were planned under; an entry stamped with
//! another epoch is not served, so a stale plan can never be served — and
//! lookups probe the map with a borrowed `&str`, no per-query allocation on
//! the hot path. A *hit* is a lookup that returned a plan; a *miss* is a
//! SELECT planned and inserted, so a CREATE or INSERT text is neither.
//!
//! **Only the newest epoch's plans stay.** Epochs only grow and a lookup
//! serves only its own, so once a plan of a newer epoch arrives no older
//! entry can be served again: the insert drops them all, and a plan made
//! under an older epoch than the newest held is not kept. The LRU bound
//! (and its `evictions` count) therefore only ever removes plans that
//! could still be served; a workload whose every statement moves the epoch
//! (`svc_adhoc_rw`'s INSERTs) holds a handful of entries and evicts none.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use csq_opt::{OptimizedPlan, QueryGraph};

/// A planned SELECT, pinned with the context it was optimized under.
pub struct PlannedQuery {
    /// The SQL text this plan answers.
    pub sql: String,
    /// The plan epoch the optimizer saw. [`crate::Database::execute_planned`]
    /// replans when the database's current epoch no longer matches.
    pub(crate) epoch: u64,
    pub(crate) graph: QueryGraph,
    pub(crate) plan: OptimizedPlan,
}

impl PlannedQuery {
    /// The optimizer's estimated cost for this plan, seconds.
    pub fn cost_seconds(&self) -> f64 {
        self.plan.cost_seconds
    }
}

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// SELECTs that had to plan (not other statements).
    pub misses: u64,
    /// Planned runs that found their plan stale (the epoch moved since it
    /// was planned) and planned again.
    pub stale_replans: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
}

struct Entry {
    plan: Arc<PlannedQuery>,
    last_used: u64,
}

struct Inner {
    map: HashMap<String, Entry>,
    tick: u64,
    /// The newest epoch any inserted plan was made under.
    newest: u64,
}

/// A bounded, LRU-evicting plan cache. Shared by every session of a
/// [`crate::Database`]; all methods are thread-safe.
pub struct PlanCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    stale_replans: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    /// A cache bounded to `capacity` plans (at least one).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                newest: 0,
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale_replans: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look up `sql` planned under `epoch`, refreshing its LRU position.
    /// An entry planned under any other epoch is not returned. Finding
    /// nothing is not yet a miss: the text may not be a SELECT.
    pub fn lookup(&self, epoch: u64, sql: &str) -> Option<Arc<PlannedQuery>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(sql) {
            Some(e) if e.plan.epoch == epoch => {
                e.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(e.plan.clone())
            }
            _ => None,
        }
    }

    /// Insert a freshly-planned query, counting the miss that planned it.
    /// A newer epoch than any held drops every older entry; a plan older
    /// than the newest is not kept; otherwise the least recently used entry
    /// is evicted when full.
    pub fn insert(&self, plan: Arc<PlannedQuery>) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        if plan.epoch > inner.newest {
            inner.newest = plan.epoch;
            inner.map.clear();
        } else if plan.epoch < inner.newest {
            return;
        }
        inner.tick += 1;
        let tick = inner.tick;
        let key = plan.sql.clone();
        if inner.map.len() >= self.capacity && !inner.map.contains_key(&key) {
            if let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.map.insert(
            key,
            Entry {
                plan,
                last_used: tick,
            },
        );
    }

    /// Record that a pinned prepared plan was found stale and replanned.
    pub fn record_stale_replan(&self) {
        self.stale_replans.fetch_add(1, Ordering::Relaxed);
    }

    /// Current counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stale_replans: self.stale_replans.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.inner.lock().map.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planned(sql: &str, epoch: u64) -> Arc<PlannedQuery> {
        // Any real (graph, plan) pair serves; the cache never looks inside.
        let db = crate::Database::new(csq_net::NetworkSpec::lan());
        db.execute("CREATE TABLE T (Id INT)").unwrap();
        let (graph, plan) = db.optimize("SELECT T.Id FROM T T").unwrap();
        Arc::new(PlannedQuery {
            sql: sql.to_string(),
            epoch,
            graph,
            plan,
        })
    }

    #[test]
    fn hit_after_insert_miss_on_other_epoch() {
        let cache = PlanCache::new(8);
        assert!(cache.lookup(1, "q").is_none());
        cache.insert(planned("q", 1));
        assert!(cache.lookup(1, "q").is_some());
        // Same SQL under a bumped epoch is stale: a miss, and the replan
        // overwrites it in place.
        assert!(cache.lookup(2, "q").is_none());
        cache.insert(planned("q", 2));
        assert!(cache.lookup(2, "q").is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 2, 1));
    }

    #[test]
    fn a_newer_epoch_drops_every_older_plan_without_evicting() {
        let cache = PlanCache::new(2);
        cache.insert(planned("a", 1));
        cache.insert(planned("b", 1));
        // Neither epoch-1 plan can be served under epoch 2: both go, and
        // the bound evicts nothing to make room.
        cache.insert(planned("c", 2));
        cache.insert(planned("d", 2));
        assert!(cache.lookup(2, "c").is_some());
        assert!(cache.lookup(2, "d").is_some());
        assert!(cache.lookup(1, "a").is_none());
        // A plan made under an older epoch than the newest (a session that
        // planned across a concurrent INSERT) is counted, not kept.
        cache.insert(planned("e", 1));
        assert!(cache.lookup(1, "e").is_none());
        let s = cache.stats();
        assert_eq!((s.misses, s.evictions, s.entries), (5, 0, 2));
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = PlanCache::new(2);
        cache.insert(planned("a", 1));
        cache.insert(planned("b", 1));
        // Touch `a` so `b` is the LRU victim.
        assert!(cache.lookup(1, "a").is_some());
        cache.insert(planned("c", 1));
        assert!(cache.lookup(1, "a").is_some());
        assert!(cache.lookup(1, "b").is_none());
        assert!(cache.lookup(1, "c").is_some());
        assert_eq!(cache.stats().evictions, 1);
    }
}
