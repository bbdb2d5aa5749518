//! A file with zero violations: errors are returned, unsafe is justified,
//! sync goes through the vendored shims, capacities are guarded, plan-time
//! statistics read the table profile, settings arrive as parameters, and a
//! statement's requests are all sent before their replies are read.

use parking_lot::Mutex;

pub fn handler(input: Option<u32>) -> Result<u32, Error> {
    input.ok_or(Error::Missing)
}

pub fn view(bytes: &[u8]) -> &str {
    // SAFETY: every constructor validated the bytes as UTF-8.
    unsafe { std::str::from_utf8_unchecked(bytes) }
}

pub fn decode(buf: &mut Cursor) -> Result<Vec<u8>, Error> {
    let n = take_count(buf, 1)?;
    let mut v = Vec::with_capacity(n);
    fill(&mut v, buf)?;
    Ok(v)
}

pub fn retry_wait(backoff: &Backoff, attempt: u32) -> bool {
    // Deadline-aware waiting through the sanctioned helper, not a bare
    // thread::sleep (which no-bare-sleep would flag).
    backoff.sleep(attempt, None)
}

pub fn planned_rows(table: &Table) -> usize {
    // Plan-time numbers come from the running profile, not from a
    // `.snapshot()` row vector (which plan-no-snapshot would flag).
    table.profile().rows
}

pub fn worker_count(requested: usize) -> usize {
    // The caller passes the count, or the host is measured; nothing is read
    // from the environment (which no-env-knob would flag).
    match requested {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

pub fn scatter(shards: &[Shard], request: &Request) -> Vec<Reply> {
    // Every request is written, then every reply read, on the calling
    // thread (a thread::spawn per shard would trip no-statement-thread).
    let sent: Vec<_> = shards.iter().map(|sh| sh.send(request)).collect();
    sent.into_iter().map(|flight| flight.finish()).collect()
}
