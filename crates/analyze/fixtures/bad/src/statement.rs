//! Seeded no-statement-thread violation (linter input only, never
//! compiled).

pub fn scatter(shards: &[Shard], request: &Request) -> Vec<Reply> {
    // seeded: no-statement-thread (a thread per shard per statement)
    std::thread::scope(|s| {
        let handles: Vec<_> = shards.iter().map(|sh| s.spawn(|| sh.ask(request))).collect();
        handles.into_iter().map(|h| h.join()).collect()
    })
}

pub fn scatter_inline(shards: &[Shard], request: &Request) -> Vec<Reply> {
    // clean: every request is written, then every reply read, on the
    // calling thread
    let sent: Vec<_> = shards.iter().map(|sh| sh.send(request)).collect();
    sent.into_iter().map(|flight| flight.finish()).collect()
}
