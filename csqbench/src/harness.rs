//! The closed-loop runner shared by every workload: repeated set-up, warm-up,
//! the untraced measured phase, the traced phase, counter reconciliation and
//! the host-noise probe. A workload only says how to build its world, how to
//! run one op, and how to replay one op layer by layer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crate::metrics::{median, percentile, Report};

/// Ops each client runs before measuring: fills plan caches and connection
/// pools, lets lazily created state settle.
pub const WARMUP_OPS: u64 = 20;

/// Set-ups per run; `setup_s` is their median (smoke runs set up once). The
/// first one or two run on a cold allocator and take up to half as long
/// again; nine put the median well inside the warm ones.
pub const SETUP_REPEATS: usize = 9;

/// Slices of the measured phase; the end-to-end timings are medians over
/// them.
const WINDOWS: usize = 10;

/// Lower bound on traced ops, whatever the time budget says.
const MIN_TRACED_OPS: u64 = 5;

/// Top-level spans that are not layer probes and so do not count towards
/// `trace.coverage_ratio`: the root, the whole-statement in-process replay
/// (the layer probes replay the same work piecewise), and shards that ran
/// beside the attributed one.
const NOT_A_LAYER: [&str; 3] = ["op", "service.inproc", "coord.shard_peer"];

// ---- process and host probes -----------------------------------------------

/// Process CPU time so far as (user, system) milliseconds, from
/// `/proc/self/stat` (clock ticks at the universal Linux `USER_HZ` of 100).
pub fn cpu_ms() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, i.e. 12th and 13th after ") ".
    let rest = stat.rsplit_once(") ").map(|(_, r)| r).unwrap_or("");
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
            * 10.0
    };
    let user = tick();
    (user, tick())
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads available to this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Time a fixed pure-CPU kernel (a dependent multiply/xorshift chain, about
/// 50 ms on the recording host), in ms. Run before and after a measured
/// phase, the ratio of the two shows whether something else took the CPU.
pub fn calibrate_ms() -> f64 {
    let started = Instant::now();
    let mut x: u64 = std::hint::black_box(0x9E37_79B9_7F4A_7C15);
    for i in 0..17_000_000u64 {
        x = (x ^ (x >> 29))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(i);
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

// ---- spans -----------------------------------------------------------------

/// Index of a span inside its [`Trace`].
pub type SpanId = usize;

/// One recorded interval. `parent` is the span this one is attributed to:
/// for the root span's children that is real nesting; replayed probes name a
/// *logical* parent (the probe whose work contains theirs), so a child's
/// interval need not lie inside its parent's — self times subtract durations.
#[derive(Debug, Clone)]
pub struct Span {
    /// Probe name (`sql.parse`, `storage.scan`, ...; `op` for the root).
    pub name: &'static str,
    /// Traced-op ordinal the span belongs to.
    pub op: u64,
    /// Attributed parent, if any.
    pub parent: Option<SpanId>,
    /// Start, ns since the trace began.
    pub start_ns: u64,
    /// End, ns since the trace began.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder for the traced phase.
pub struct Trace {
    t0: Instant,
    op: u64,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
    /// Per-op values that are not plain sums of spans (e.g. the slowest
    /// shard of each statement), as (op, metric name, value).
    pub derived: Vec<(u64, &'static str, f64)>,
}

impl Trace {
    fn new() -> Trace {
        Trace {
            t0: Instant::now(),
            op: 0,
            spans: Vec::new(),
            derived: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Close a span opened by [`begin`](Self::begin).
    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record `f` as one leaf span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Record a per-op value for the current op (summed per name and op).
    pub fn derive(&mut self, name: &'static str, value: f64) {
        self.derived.push((self.op, name, value));
    }

    /// Render the spans as a JSON document, one span per line.
    pub fn render(&self, workload: &str) -> String {
        let mut out = format!("{{\n  \"workload\": \"{workload}\",\n  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "    {{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{sep}\n",
                s.name, s.op, s.start_ns, s.end_ns
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Median over traced ops of the per-op sum of *self* times of spans
    /// named `name`, in µs, plus the number of ops that had such a span.
    /// Self time is the span's duration minus its attributed children's.
    pub fn self_us(&self, name: &str) -> (f64, u64) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        median_per_op(
            self.spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.name == name)
                .map(|(i, s)| (s.op, s.dur_ns().saturating_sub(child_ns[i]) as f64 / 1e3)),
        )
    }

    /// Median over traced ops of the per-op sum of derived values `name`.
    pub fn derived_median(&self, name: &str) -> (f64, u64) {
        median_per_op(
            self.derived
                .iter()
                .filter(|d| d.1 == name)
                .map(|d| (d.0, d.2)),
        )
    }

    /// Median over traced ops of the per-op sum of the durations, in ms, of
    /// the spans `keep` selects.
    fn duration_ms(&self, keep: impl Fn(&Span) -> bool) -> (f64, u64) {
        median_per_op(
            self.spans
                .iter()
                .filter(|s| keep(s))
                .map(|s| (s.op, s.dur_ns() as f64 / 1e6)),
        )
    }
}

/// Sum `(op, value)` pairs per op, then take the median over the ops;
/// returns it with the number of ops seen.
fn median_per_op(values: impl Iterator<Item = (u64, f64)>) -> (f64, u64) {
    let mut per_op: std::collections::BTreeMap<u64, f64> = Default::default();
    for (op, v) in values {
        *per_op.entry(op).or_default() += v;
    }
    let mut sums: Vec<f64> = per_op.into_values().collect();
    let n = sums.len() as u64;
    (median(&mut sums), n)
}

// ---- the workload contract -------------------------------------------------

/// What one op recorded: per-statement latencies and whether it failed.
#[derive(Debug, Default)]
pub struct OpRecord {
    /// (statement class index, start, latency ns), in issue order.
    pub stmts: Vec<(usize, Instant, u64)>,
    /// True when any statement errored, was refused, or failed the oracle.
    pub failed: bool,
}

impl OpRecord {
    /// Time one statement call; `check` decides whether its outcome matches
    /// the oracle. Only the call itself is timed — the check is the
    /// benchmark's work, not the caller's wait.
    pub fn stmt<T, E: std::fmt::Display>(
        &mut self,
        class: usize,
        call: impl FnOnce() -> Result<T, E>,
        check: impl FnOnce(&T) -> bool,
    ) -> Option<T> {
        let started = Instant::now();
        let outcome = call();
        self.stmts
            .push((class, started, started.elapsed().as_nanos() as u64));
        match outcome {
            Ok(v) if check(&v) => Some(v),
            Ok(_) => {
                self.fail(format_args!(
                    "class {class}: result does not match the oracle"
                ));
                None
            }
            Err(e) => {
                self.fail(format_args!("class {class}: {e}"));
                None
            }
        }
    }

    fn fail(&mut self, what: std::fmt::Arguments<'_>) {
        // One line per failed op is enough to diagnose; more would flood.
        if !self.failed {
            eprintln!("csqbench: op failed: {what}");
        }
        self.failed = true;
    }

    fn op_ns(&self) -> u64 {
        self.stmts.iter().map(|s| s.2).sum()
    }
}

/// What a client's connection(s) saw during the measured phase; the other
/// side of the counter reconciliation.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClientTally {
    /// Statements sent (each is one request frame).
    pub statements: u64,
    /// Statements whose answer said a cached or pinned plan was reused.
    pub plan_reused: u64,
    /// Frames sent.
    pub frames_up: u64,
    /// Frames received.
    pub frames_down: u64,
}

impl ClientTally {
    fn minus(self, earlier: ClientTally) -> ClientTally {
        ClientTally {
            statements: self.statements - earlier.statements,
            plan_reused: self.plan_reused - earlier.plan_reused,
            frames_up: self.frames_up - earlier.frames_up,
            frames_down: self.frames_down - earlier.frames_down,
        }
    }

    fn plus(self, other: ClientTally) -> ClientTally {
        ClientTally {
            statements: self.statements + other.statements,
            plan_reused: self.plan_reused + other.plan_reused,
            frames_up: self.frames_up + other.frames_up,
            frames_down: self.frames_down + other.frames_down,
        }
    }
}

/// Monotonic counters of the system under test, snapshotted around the
/// measured phase. Missing names read 0.
#[derive(Debug, Default, Clone)]
pub struct Counters(pub Vec<(&'static str, u64)>);

impl Counters {
    /// Value of counter `name`.
    pub fn get(&self, name: &str) -> u64 {
        self.0.iter().find(|c| c.0 == name).map_or(0, |c| c.1)
    }

    fn minus(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(n, v)| (*n, v - earlier.get(n)))
                .collect(),
        )
    }
}

/// The measured phase as the reconciliation sees it.
pub struct PhaseTotals {
    /// Ops completed.
    pub ops: u64,
    /// Counter movement across the phase.
    pub delta: Counters,
    /// Client-side tallies across the phase, all clients.
    pub tally: ClientTally,
}

/// One benchmark workload. `Self` is the world set-up builds (tables,
/// services, oracle); a `Client` is one closed-loop caller's private state.
pub trait Workload: Sync + Sized {
    /// Name as in `BENCHMARK.json`.
    const NAME: &'static str;
    /// Closed-loop clients in the measured phase (≤ host CPUs).
    const CLIENTS: usize;
    /// Statement classes as (span name, metric of its median latency), e.g.
    /// `("stmt.filter", "stmt.filter_p50_ms")`.
    const CLASSES: &'static [(&'static str, &'static str)];
    /// One caller's state (connections, prepared handles, schedule cursor).
    type Client: Send;

    /// Build the world from `seed`: tables, services, the oracle. Timed as
    /// `setup_s`.
    fn setup(seed: u64) -> Self;
    /// Stop every service and thread `setup` started.
    fn teardown(self);
    /// Open client `idx`'s connections.
    fn client(&self, idx: usize) -> Self::Client;
    /// Run op `i` of this client's fixed schedule, checking every result.
    fn op(&self, client: &mut Self::Client, i: u64, rec: &mut OpRecord);
    /// What the client's connections have sent and seen so far.
    fn tally(&self, client: &Self::Client) -> ClientTally;
    /// Snapshot the system's monotonic counters.
    fn counters(&self) -> Counters;
    /// Check that every statement landed in exactly one bucket; returns one
    /// message per violated equation.
    fn reconcile(&self, phase: &PhaseTotals) -> Vec<String>;
    /// Set this workload's count metrics from the measured phase.
    fn layer_counts(&self, phase: &PhaseTotals, report: &mut Report);
    /// Replay op `i`'s statements layer by layer, one span per probe (the
    /// runner has just run the op itself under the root span).
    fn replay(&self, client: &mut Self::Client, i: u64, trace: &mut Trace);
    /// Set this workload's timing metrics from the traced phase (`wire_us`
    /// is the traced root-span op p50).
    fn layer_timings(&self, trace: &Trace, wire_us: f64, report: &mut Report);
}

// ---- the runner ------------------------------------------------------------

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Input seed.
    pub seed: u64,
    /// Measuring time, seconds (may be fractional for smoke runs).
    pub seconds: f64,
    /// How many times to set up; `setup_s` is the median.
    pub setups: usize,
    /// False: the end-to-end metrics. True: the per-layer metrics.
    pub trace: bool,
    /// Where to write `trace_<workload>.json` (traced runs only).
    pub out_dir: Option<std::path::PathBuf>,
}

/// The outcome of one run.
pub struct Outcome {
    /// Ops attempted in the measured (and traced) phases.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// True when no op failed and every counter reconciled.
    pub correct: bool,
    /// The metrics of the requested kind.
    pub report: Report,
}

struct Sample {
    op_ns: u64,
    ended: Instant,
    stmts: Vec<(usize, Instant, u64)>,
}

/// One slice of the measured phase.
struct Window {
    /// Ops answered inside the slice.
    ops: u64,
    /// Their median latency, ms.
    p50_ms: f64,
    /// Completion rate, ops/s, taken from the last answer before the slice
    /// to the last answer inside it — a whole number of ops over exactly
    /// the time they took, so short slices do not quantize the rate.
    ops_per_s: f64,
    /// Process CPU spent during the slice, ms, per op at that rate.
    cpu_ms_per_op: f64,
}

struct PhaseResult {
    samples: Vec<Sample>,
    windows: Vec<Window>,
    /// From the release of the clients to the last answer, s.
    elapsed_s: f64,
    failed: u64,
    cpu_user_ms: f64,
    cpu_sys_ms: f64,
    totals: PhaseTotals,
    calib_before_ms: f64,
    calib_after_ms: f64,
}

/// Run the untraced closed-loop phase: `W::CLIENTS` clients, warm-up, then
/// ops until `seconds` have passed, the main thread marking time and
/// process CPU at every window boundary. Hands back client 0 for the traced
/// phase (its schedule cursor continues where the measured phase stopped).
fn measured_phase<W: Workload>(world: &W, seconds: f64) -> (PhaseResult, W::Client, u64) {
    let clients = W::CLIENTS;
    assert!(
        clients <= host_cpus(),
        "{} needs {clients} client threads but the host offers {} CPUs; a closed loop with \
         more callers than CPUs measures the scheduler, not the system",
        W::NAME,
        host_cpus()
    );
    let ready = Arc::new(Barrier::new(clients + 1));
    let go = Arc::new(Barrier::new(clients + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let budget = Duration::from_secs_f64(seconds);

    type ClientOut<C> = (C, u64, Vec<Sample>, u64, ClientTally);
    let (outs, before, marks, calib_before_ms): (Vec<ClientOut<W::Client>>, _, _, _) =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|idx| {
                    let (ready, go, stop) = (ready.clone(), go.clone(), stop.clone());
                    scope.spawn(move || {
                        let mut client = world.client(idx);
                        let mut next = 0u64;
                        let mut warm_failed = 0u64;
                        while next < WARMUP_OPS {
                            let mut rec = OpRecord::default();
                            world.op(&mut client, next, &mut rec);
                            warm_failed += rec.failed as u64;
                            next += 1;
                        }
                        let tally0 = world.tally(&client);
                        ready.wait();
                        go.wait();
                        let mut samples = Vec::new();
                        let mut failed = warm_failed;
                        // Closed loop: the next op starts when this one is
                        // answered, until the main thread calls time.
                        while !stop.load(Ordering::Relaxed) {
                            let mut rec = OpRecord::default();
                            world.op(&mut client, next, &mut rec);
                            next += 1;
                            failed += rec.failed as u64;
                            samples.push(Sample {
                                op_ns: rec.op_ns(),
                                ended: Instant::now(),
                                stmts: rec.stmts,
                            });
                        }
                        let tally = world.tally(&client).minus(tally0);
                        (client, next, samples, failed, tally)
                    })
                })
                .collect();
            ready.wait();
            // Every client is warm and parked: calibrate on a quiet process,
            // then snapshot and release.
            let calib_before_ms = calibrate_ms();
            let before = world.counters();
            let mut marks = vec![(Instant::now(), cpu_ms())];
            go.wait();
            for w in 1..=WINDOWS {
                let due = marks[0].0 + budget.mul_f64(w as f64 / WINDOWS as f64);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                marks.push((Instant::now(), cpu_ms()));
            }
            stop.store(true, Ordering::Relaxed);
            let outs = handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect();
            (outs, before, marks, calib_before_ms)
        });
    // Ops in flight when time was called finish after the last mark: they
    // are in the totals (and the counters) but in no window.
    let cpu1 = cpu_ms();
    let after = world.counters();
    let calib_after_ms = calibrate_ms();

    let mut samples = Vec::new();
    let mut failed = 0;
    let mut tally = ClientTally::default();
    let mut first = None;
    for (client, next, s, f, t) in outs {
        samples.extend(s);
        failed += f;
        tally = tally.plus(t);
        if first.is_none() {
            first = Some((client, next));
        }
    }
    let (client0, next0) = first.expect("at least one client");
    let last_answer_by = |t: Instant| samples.iter().map(|s| s.ended).filter(|e| *e <= t).max();
    let windows = marks
        .windows(2)
        .map(|m| {
            let ((from, cpu_from), (to, cpu_to)) = (m[0], m[1]);
            let ms = sorted_ms(
                samples
                    .iter()
                    .filter(|s| s.ended > from && s.ended <= to)
                    .map(|s| s.op_ns),
            );
            let ops = ms.len() as u64;
            let span = last_answer_by(to).unwrap_or(to) - last_answer_by(from).unwrap_or(from);
            let cpu_ms = (cpu_to.0 + cpu_to.1) - (cpu_from.0 + cpu_from.1);
            let (ops_per_s, cpu_ms_per_op) = if ops > 0 {
                let rate = ops as f64 / span.as_secs_f64();
                (rate, cpu_ms / (rate * (to - from).as_secs_f64()))
            } else {
                (0.0, 0.0)
            };
            Window {
                ops,
                p50_ms: p50_ms(&ms),
                ops_per_s,
                cpu_ms_per_op,
            }
        })
        .collect();
    let elapsed_s = (last_answer_by(Instant::now()).unwrap_or(marks[0].0) - marks[0].0)
        .as_secs_f64()
        .max(f64::MIN_POSITIVE);
    let cpu0 = marks[0].1;
    let result = PhaseResult {
        totals: PhaseTotals {
            ops: samples.len() as u64,
            delta: after.minus(&before),
            tally,
        },
        elapsed_s,
        samples,
        windows,
        failed,
        cpu_user_ms: cpu1.0 - cpu0.0,
        cpu_sys_ms: cpu1.1 - cpu0.1,
        calib_before_ms,
        calib_after_ms,
    };
    (result, client0, next0)
}

fn sorted_ms(ns: impl Iterator<Item = u64>) -> Vec<f64> {
    let mut v: Vec<f64> = ns.map(|n| n as f64 / 1e6).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank p50 of an ascending latency sample (0 when empty). No
/// sample-count floor, unlike the tails: a smoke run's handful of ops must
/// still report a non-zero median.
fn p50_ms(sorted: &[f64]) -> f64 {
    sorted
        .get(sorted.len().saturating_sub(1) / 2)
        .copied()
        .unwrap_or(0.0)
}

fn warn_on_drift(workload: &str, phase: &PhaseResult) {
    let drift = phase.calib_after_ms / phase.calib_before_ms;
    if (drift - 1.0).abs() > 0.10 {
        eprintln!(
            "csqbench: WARNING {workload}: host calibration kernel drifted {:.0}% across the \
             measured phase ({:.1} ms -> {:.1} ms): something else had the CPU, read this run \
             with suspicion",
            (drift - 1.0) * 100.0,
            phase.calib_before_ms,
            phase.calib_after_ms
        );
    }
}

/// Run workload `W` once as the driver asks.
pub fn run<W: Workload>(args: &RunArgs) -> Outcome {
    // Set up several times; the last world is the one measured.
    let mut setup_s = Vec::with_capacity(args.setups);
    let mut world = None;
    for _ in 0..args.setups {
        if let Some(previous) = world.take() {
            W::teardown(previous);
        }
        let started = Instant::now();
        world = Some(W::setup(args.seed));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let world = world.expect("at least one set-up");

    let untraced_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (phase, mut client0, mut next0) = measured_phase(&world, untraced_seconds);
    warn_on_drift(W::NAME, &phase);
    let mut problems = world.reconcile(&phase.totals);

    let mut report = Report::default();
    let ops = phase.totals.ops;
    let op_ms = sorted_ms(phase.samples.iter().map(|s| s.op_ns));
    // The headline numbers are medians over the windows: a burst of host
    // noise shorter than half the phase moves single windows, not the run.
    // Latency and CPU per op come from the windows that answered an op;
    // the rate counts silent windows too, as a stall should. A smoke run
    // can be shorter than one op: then the whole phase is the only sample.
    let over_windows = |pick: fn(&Window) -> f64, silent_too: bool, whole_phase: f64| {
        let mut picked: Vec<f64> = phase
            .windows
            .iter()
            .filter(|w| silent_too || w.ops > 0)
            .map(pick)
            .collect();
        match median(&mut picked) {
            0.0 => whole_phase,
            m => m,
        }
    };
    let op_p50_ms = over_windows(|w| w.p50_ms, false, p50_ms(&op_ms));
    let ops_per_s = over_windows(|w| w.ops_per_s, true, ops as f64 / phase.elapsed_s);
    let cpu_ms_per_op = over_windows(
        |w| w.cpu_ms_per_op,
        false,
        (phase.cpu_user_ms + phase.cpu_sys_ms) / ops as f64,
    );
    let mut attempted = ops;
    let mut failed = phase.failed;

    if !args.trace {
        report.set("op_p50_ms", op_p50_ms, ops);
        report.set("ops_per_s", ops_per_s, ops);
        report.set("cpu_ms_per_op", cpu_ms_per_op, ops);
        report.set("rss_peak_mb", rss_peak_mb(), 1);
        report.set("setup_s", median(&mut setup_s), args.setups as u64);
    } else {
        for (class, (_, metric)) in W::CLASSES.iter().enumerate() {
            let ms = sorted_ms(
                phase
                    .samples
                    .iter()
                    .flat_map(|s| s.stmts.iter())
                    .filter(|s| s.0 == class)
                    .map(|s| s.2),
            );
            report.set(metric, p50_ms(&ms), ms.len() as u64);
        }
        for (name, p) in [("tail.op_p95_ms", 0.95), ("tail.op_p99_ms", 0.99)] {
            match percentile(&op_ms, p) {
                Some(v) => report.set(name, v, ops),
                None => report.set(name, 0.0, 0),
            }
        }
        report.set("tail.op_max_ms", op_ms.last().copied().unwrap_or(0.0), ops);
        report.set("phase.op_p50_ms", op_p50_ms, ops);
        report.set("phase.ops_per_s", ops_per_s, ops);
        report.set(
            "proc.cpu_user_ms_per_op",
            phase.cpu_user_ms / ops as f64,
            ops,
        );
        report.set("proc.cpu_sys_ms_per_op", phase.cpu_sys_ms / ops as f64, ops);
        report.set("host.cpus", host_cpus() as f64, 1);
        report.set("host.calib_ms", phase.calib_before_ms, 1);
        report.set(
            "host.calib_drift_ratio",
            phase.calib_after_ms / phase.calib_before_ms,
            1,
        );
        world.layer_counts(&phase.totals, &mut report);

        // Traced phase: one client, same schedule, spans around the real
        // calls and around each layer's replay.
        let mut trace = Trace::new();
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds / 2.0);
        let mut traced = 0u64;
        while traced < MIN_TRACED_OPS || Instant::now() < deadline {
            trace.op = traced;
            let mut rec = OpRecord::default();
            let root = trace.begin("op", None);
            world.op(&mut client0, next0, &mut rec);
            trace.end(root);
            for (class, started, ns) in &rec.stmts {
                let start_ns = started.duration_since(trace.t0).as_nanos() as u64;
                trace.spans.push(Span {
                    name: W::CLASSES[*class].0,
                    op: traced,
                    parent: Some(root),
                    start_ns,
                    end_ns: start_ns + ns,
                });
            }
            world.replay(&mut client0, next0, &mut trace);
            failed += rec.failed as u64;
            next0 += 1;
            traced += 1;
        }
        attempted += traced;
        let (wire_ms, _) = trace.duration_ms(|s| s.name.starts_with("stmt."));
        report.set("trace.ops", traced as f64, traced);
        report.set("trace.op_p50_ms", wire_ms, traced);
        report.set("trace.overhead_ratio", wire_ms / op_p50_ms, traced);
        world.layer_timings(&trace, wire_ms * 1e3, &mut report);
        // Coverage: how much of the traced op the outside probes explain.
        // Top-level probe spans telescope to the sum of all self times.
        let (explained_ms, _) =
            trace.duration_ms(|s| s.parent.is_none() && !NOT_A_LAYER.contains(&s.name));
        report.set("trace.coverage_ratio", explained_ms / wire_ms, traced);
        if let Some(dir) = &args.out_dir {
            let path = dir.join(format!("trace_{}.json", W::NAME));
            if let Err(e) = std::fs::write(&path, trace.render(W::NAME)) {
                problems.push(format!("cannot write {}: {e}", path.display()));
            }
        }
    }
    drop(client0);
    world.teardown();

    for p in &problems {
        eprintln!("csqbench: {}: {p}", W::NAME);
    }
    Outcome {
        attempted,
        failed,
        correct: failed == 0 && problems.is_empty(),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_attributed_children() {
        let mut t = Trace::new();
        for (op, parent_ns, child_ns) in [(0u64, 1_000_000u64, 400_000u64), (1, 2_000_000, 500_000)]
        {
            t.op = op;
            t.spans.push(Span {
                name: "core.exec_inproc",
                op,
                parent: None,
                start_ns: 0,
                end_ns: parent_ns,
            });
            let parent = t.spans.len() - 1;
            // A replayed child need not nest in time.
            t.spans.push(Span {
                name: "storage.scan",
                op,
                parent: Some(parent),
                start_ns: parent_ns + 10,
                end_ns: parent_ns + 10 + child_ns,
            });
        }
        // Per-op self times 600 and 1500 µs: lower-middle median is 600.
        assert_eq!(t.self_us("core.exec_inproc"), (600.0, 2));
        assert_eq!(t.self_us("storage.scan"), (400.0, 2));
        assert_eq!(t.self_us("codec.encode"), (0.0, 0));
    }

    #[test]
    fn derived_values_sum_per_op() {
        let mut t = Trace::new();
        t.op = 0;
        t.derive("coord.slowest_shard_us", 10.0);
        t.derive("coord.slowest_shard_us", 5.0);
        t.op = 1;
        t.derive("coord.slowest_shard_us", 30.0);
        assert_eq!(t.derived_median("coord.slowest_shard_us"), (15.0, 2));
    }

    #[test]
    fn proc_probes_read_something() {
        let (user, sys) = cpu_ms();
        assert!(user >= 0.0 && sys >= 0.0);
        assert!(rss_peak_mb() > 0.0);
        assert!(host_cpus() >= 1);
    }
}
