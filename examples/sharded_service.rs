//! Scale-out quick-start (DESIGN.md §13): three shard services behind a
//! coordinator, a hash-sharded table, and a GROUP BY whose aggregation is
//! computed as per-shard partials merged at the coordinator.
//!
//! Run with: `cargo run --example sharded_service`

use std::sync::Arc;

use csq::prelude::*;
use csq_core::service;

fn main() {
    // Three independent shard services, each an ordinary single-node
    // engine behind TCP (in production these are separate processes).
    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..3 {
        let db = Arc::new(Database::new(NetworkSpec::lan()));
        let handle = service::start(db, ServiceConfig::default()).expect("shard service");
        addrs.push(handle.local_addr());
        handles.push(handle);
    }

    // The coordinator hash-partitions every table across the shards.
    let coord = Coordinator::connect(&addrs, CoordinatorConfig::default()).expect("coordinator");
    coord
        .create_table(
            "CREATE TABLE Trades (Id INT, Sym STR, Qty INT, Px FLOAT)",
            "Sym", // hash-partitioning column
        )
        .expect("create");

    // INSERTs route row-by-row to the shard owning each symbol's bucket.
    let syms = ["AA", "BB", "CC", "DD", "EE"];
    let mut values = Vec::new();
    for i in 0..500i64 {
        let sym = syms[(i % 5) as usize];
        values.push(format!(
            "({i}, '{sym}', {}, {:.1})",
            1 + i % 9,
            10.0 + (i % 37) as f64
        ));
    }
    coord
        .execute(&format!("INSERT INTO Trades VALUES {}", values.join(", ")))
        .expect("insert");

    // A grouped aggregate: each shard computes partial states for its
    // local rows (AVG decomposes into SUM + COUNT), and the coordinator
    // merges and finalizes. The EXPLAIN shows the scatter/gather fan-out.
    let sql = "SELECT Trades.Sym, COUNT(*), SUM(Trades.Qty), AVG(Trades.Px) \
               FROM Trades Trades GROUP BY Trades.Sym";
    println!("EXPLAIN {sql}\n");
    println!("{}", coord.explain(sql).expect("explain"));

    let result = coord.execute(sql).expect("grouped aggregate");
    println!("Sym   n     qty   avg(px)");
    for row in &result.rows {
        println!("{row}");
    }

    // A filter that pins the shard key is pruned to a single shard. The
    // EXPLAIN planned it, so running it is a plan-cache hit.
    let pinned = "SELECT Trades.Qty FROM Trades Trades WHERE Trades.Sym = 'CC'";
    println!("\nEXPLAIN {pinned}\n");
    println!("{}", coord.explain(pinned).expect("explain pinned"));
    use std::sync::atomic::Ordering::Relaxed;
    let stats = coord.stats();
    let pruned = stats.shards_pruned.load(Relaxed);
    let hits = stats.plan_cache_hits.load(Relaxed);
    let cc = coord.execute(pinned).expect("pinned filter");
    println!("{} CC trades (1 of 3 shards contacted)", cc.rows.len());
    assert_eq!(
        stats.shards_pruned.load(Relaxed) - pruned,
        addrs.len() as u64 - 1,
        "the pinned filter must skip every shard but one"
    );
    assert_eq!(
        stats.plan_cache_hits.load(Relaxed) - hits,
        1,
        "a repeated statement must be a plan-cache hit"
    );

    println!(
        "coordinator: {} queries ({} partial-agg), {} shard statements, {} pruned contacts",
        stats.queries.load(Relaxed),
        stats.partial_agg_queries.load(Relaxed),
        stats.shard_statements.load(Relaxed),
        stats.shards_pruned.load(Relaxed),
    );

    drop(coord);
    for handle in handles {
        handle.shutdown();
    }
}
