//! Virtual-time runs of the three strategies: the threaded operators over a
//! virtual-time duplex ([`csq_net::virtual_duplex`]), so a modem experiment
//! that took the paper minutes completes in milliseconds, deterministically
//! — every wait is timestamped (DESIGN.md §5).

use std::sync::Arc;

use csq_client::{spawn_client, ClientRuntime};
use csq_common::{Result, Row, Schema};
use csq_exec::{collect, BoxOp, Operator, RowsOp};
use csq_net::{virtual_duplex, Endpoint, NetworkSpec, SimTime, VirtualLinks};

use crate::spec::{ClientJoinSpec, SemiJoinSpec};
use crate::threaded::{NaiveRemoteUdf, ThreadedClientJoin, ThreadedSemiJoin};

/// Outcome of one virtual-time strategy execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRun {
    /// Output rows, in the order the operator returned them.
    pub rows: Vec<Row>,
    /// Virtual completion time, µs: the server's clock once the operator drained.
    pub elapsed_us: SimTime,
    /// Bytes put on the downlink (including Install/Finish framing).
    pub down_bytes: u64,
    /// Bytes put on the uplink (after any inflation).
    pub up_bytes: u64,
    /// Downlink transmitter busy time, µs.
    pub down_busy_us: SimTime,
    /// Uplink transmitter busy time, µs.
    pub up_busy_us: SimTime,
    /// Client CPU time consumed by UDF invocations, µs.
    pub client_cpu_us: u64,
    /// Messages sent on the downlink.
    pub down_messages: u64,
    /// Messages sent on the uplink.
    pub up_messages: u64,
}

impl SimRun {
    /// The run a virtual duplex carried, read once the operator over its
    /// server end has drained; `rows` are what the operator returned.
    pub fn new(rows: Vec<Row>, links: &VirtualLinks) -> SimRun {
        let (down, up) = (links.downlink(), links.uplink());
        SimRun {
            rows,
            elapsed_us: links.server_clock(),
            down_bytes: down.bytes_sent(),
            up_bytes: up.bytes_sent(),
            down_busy_us: down.busy_time(),
            up_busy_us: up.busy_time(),
            client_cpu_us: links.work_us(),
            down_messages: down.messages_sent(),
            up_messages: up.messages_sent(),
        }
    }

    /// Elapsed time in (fractional) seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed_us as f64 / 1e6
    }
}

/// Drain the operator `ship` builds over `rows` on a virtual duplex over `net`.
fn simulate<Op: Operator>(
    schema: &Schema,
    rows: Vec<Row>,
    runtime: Arc<ClientRuntime>,
    net: &NetworkSpec,
    ship: impl FnOnce(BoxOp, Endpoint) -> Result<Op>,
) -> Result<SimRun> {
    let (server, client, links) = virtual_duplex(net);
    spawn_client(runtime, client)?;
    let input = Box::new(RowsOp::new(schema.clone(), rows));
    let out = ship(input, server).and_then(|mut op| collect(&mut op))?;
    Ok(SimRun::new(out, &links))
}

/// Simulate the semi-join pipeline (Figure 3) with the spec's concurrency
/// factor, batch size, and sorting mode.
pub fn simulate_semijoin(
    schema: &Schema,
    rows: Vec<Row>,
    spec: &SemiJoinSpec,
    runtime: Arc<ClientRuntime>,
    net: &NetworkSpec,
) -> Result<SimRun> {
    simulate(schema, rows, runtime, net, |i, s| {
        ThreadedSemiJoin::new(i, spec.clone(), s)
    })
}

/// Simulate the client-site join (Figure 4): the sender streams whole
/// records as fast as the downlink admits.
pub fn simulate_client_join(
    schema: &Schema,
    rows: Vec<Row>,
    spec: &ClientJoinSpec,
    runtime: Arc<ClientRuntime>,
    net: &NetworkSpec,
) -> Result<SimRun> {
    simulate(schema, rows, runtime, net, |i, s| {
        ThreadedClientJoin::new(i, spec.clone(), s)
    })
}

/// Simulate the naive tuple-at-a-time strategy (§2.1): one blocking round
/// trip per distinct argument (result caching on), full RTT exposed.
pub fn simulate_naive(
    schema: &Schema,
    rows: Vec<Row>,
    spec: &SemiJoinSpec,
    runtime: Arc<ClientRuntime>,
    net: &NetworkSpec,
) -> Result<SimRun> {
    simulate(schema, rows, runtime, net, |i, s| {
        NaiveRemoteUdf::new(i, spec.udfs.clone(), s, true)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::UdfApplication;
    use csq_client::synthetic::ObjectUdf;
    use csq_common::{Blob, DataType, Field, Value};

    fn runtime() -> Arc<ClientRuntime> {
        let rt = ClientRuntime::new();
        rt.register(Arc::new(ObjectUdf::sized("Analyze", 100)))
            .unwrap();
        Arc::new(rt)
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("Id", DataType::Int),
            Field::new("Arg", DataType::Blob),
        ])
    }

    fn rows(n: usize, arg_size: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i as i64),
                    Value::Blob(Blob::synthetic(arg_size, i as u64)),
                ])
            })
            .collect()
    }

    fn app() -> UdfApplication {
        UdfApplication::new("Analyze", vec![1], Field::new("res", DataType::Blob))
    }

    #[test]
    fn higher_concurrency_is_faster_until_bdp() {
        // Figure 6's shape: time(K) decreases then flattens.
        let net = NetworkSpec::modem_28_8();
        let data = rows(40, 495); // ~500B messages
        let mut times = Vec::new();
        for k in [1usize, 2, 5, 10, 20] {
            let spec = SemiJoinSpec::new(vec![app()], k);
            let run = simulate_semijoin(&schema(), data.clone(), &spec, runtime(), &net).unwrap();
            times.push(run.elapsed_us);
        }
        assert!(times[0] > times[1], "{times:?}");
        assert!(times[1] > times[2], "{times:?}");
        // Beyond the bandwidth-delay product, little further gain.
        let gain_tail = times[3] as f64 / times[4] as f64;
        assert!(gain_tail < 1.15, "{times:?}");
    }

    #[test]
    fn concurrency_hides_latency() {
        // 100 KB/s each way and 40 ms latency: a round trip holds about
        // four ~500-byte messages, so K = 8 keeps the link busy where
        // K = 1 waits out every round trip.
        let net = NetworkSpec::symmetric(100_000.0, 40_000);
        let run = |k| {
            let spec = SemiJoinSpec::new(vec![app()], k);
            simulate_semijoin(&schema(), rows(24, 495), &spec, runtime(), &net).unwrap()
        };
        let (k1, k8) = (run(1), run(8));
        assert_eq!(k1.rows, k8.rows);
        assert!(
            k1.elapsed_us as f64 > 1.8 * k8.elapsed_us as f64,
            "K=1 {} µs vs K=8 {} µs",
            k1.elapsed_us,
            k8.elapsed_us
        );
    }

    #[test]
    fn elapsed_tracks_the_round_trip_model() {
        use csq_client::{Request, UdfCost};
        let net = NetworkSpec::symmetric(200_000.0, 10_000);
        let client_us = 300;
        let n = 20;
        let run = |k| {
            let rt = ClientRuntime::new();
            rt.register(Arc::new(ObjectUdf::sized("Analyze", 100).with_cost(
                UdfCost {
                    fixed_us: client_us as f64,
                    per_byte_us: 0.0,
                },
            )))
            .unwrap();
            let spec = SemiJoinSpec::new(vec![app()], k);
            simulate_semijoin(&schema(), rows(n, 495), &spec, Arc::new(rt), &net).unwrap()
        };
        let spec = SemiJoinSpec::new(vec![app()], 1);
        let install = Request::Install(spec.client_task(&schema()).unwrap()).encode();
        let finish = Request::Finish.encode();
        let down = net.make_downlink();
        let (install_us, finish_us) = (down.tx_time(install.len()), down.tx_time(finish.len()));
        // K = 1: every tuple waits for the one before it to come back, so
        // the run is the install plus n full round trips of the cost model.
        let k1 = run(1);
        let arg_msg = (k1.down_bytes as usize - install.len() - finish.len()) / n;
        let result_msg = k1.up_bytes as usize / n;
        let round_trip = csq_cost::naive_roundtrip_us(&net, arg_msg, result_msg, client_us);
        assert_eq!(k1.elapsed_us, install_us + n as u64 * round_trip);
        assert_eq!(k1.client_cpu_us, n as u64 * client_us);
        // Past the bandwidth-delay product the downlink never idles: the run
        // is its busy time (Finish gates nothing) plus one round trip's tail.
        let k16 = run(16);
        let busy = k16.down_busy_us - finish_us;
        assert!(
            (busy..=busy + round_trip).contains(&k16.elapsed_us),
            "{} µs vs downlink busy {busy} µs + round trip {round_trip} µs",
            k16.elapsed_us
        );
    }

    #[test]
    fn naive_equals_semijoin_k1_in_shape() {
        // Naive ≈ SJ with K=1: both expose the full RTT per tuple.
        let net = NetworkSpec::modem_28_8();
        let data = rows(20, 200);
        let naive = simulate_naive(
            &schema(),
            data.clone(),
            &SemiJoinSpec::new(vec![app()], 1),
            runtime(),
            &net,
        )
        .unwrap();
        let sj1 = simulate_semijoin(
            &schema(),
            data.clone(),
            &SemiJoinSpec::new(vec![app()], 1),
            runtime(),
            &net,
        )
        .unwrap();
        let sj10 = simulate_semijoin(
            &schema(),
            data,
            &SemiJoinSpec::new(vec![app()], 10),
            runtime(),
            &net,
        )
        .unwrap();
        let ratio = naive.elapsed_us as f64 / sj1.elapsed_us as f64;
        assert!(
            (0.8..1.25).contains(&ratio),
            "naive {} vs sj1 {}",
            naive.elapsed_us,
            sj1.elapsed_us
        );
        assert!(
            sj10.elapsed_us * 3 < naive.elapsed_us,
            "concurrency must win big"
        );
    }

    #[test]
    fn identical_rows_across_backends_shape() {
        let net = NetworkSpec::lan();
        let data = rows(10, 50);
        let sj = simulate_semijoin(
            &schema(),
            data.clone(),
            &SemiJoinSpec::new(vec![app()], 4),
            runtime(),
            &net,
        )
        .unwrap();
        assert_eq!(sj.rows.len(), 10);
        let csj = simulate_client_join(
            &schema(),
            data,
            &ClientJoinSpec::new(vec![app()]),
            runtime(),
            &net,
        )
        .unwrap();
        assert_eq!(sj.rows, csj.rows);
    }

    #[test]
    fn semijoin_dedup_reduces_bytes() {
        let net = NetworkSpec::lan();
        let distinct: Vec<Row> = rows(20, 100);
        let dups: Vec<Row> = (0..20)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i as i64),
                    Value::Blob(Blob::synthetic(100, (i % 4) as u64)),
                ])
            })
            .collect();
        let spec = SemiJoinSpec::new(vec![app()], 8);
        let a = simulate_semijoin(&schema(), distinct, &spec, runtime(), &net).unwrap();
        let b = simulate_semijoin(&schema(), dups, &spec, runtime(), &net).unwrap();
        assert!(
            b.down_bytes < a.down_bytes / 2,
            "{} vs {}",
            b.down_bytes,
            a.down_bytes
        );
        assert!(b.up_bytes < a.up_bytes / 2);
        assert_eq!(b.rows.len(), 20);
    }

    #[test]
    fn uplink_inflation_matches_true_asymmetry_in_uplink_time() {
        // The paper's emulation (§4.3) and true asymmetric links should
        // charge comparable uplink busy time for the same workload.
        let data = rows(10, 300);
        let spec = SemiJoinSpec::new(vec![app()], 8);
        let real = NetworkSpec::cable_asymmetric();
        let emulated = NetworkSpec::cable_asymmetric_emulated();
        let a = simulate_semijoin(&schema(), data.clone(), &spec, runtime(), &real).unwrap();
        let b = simulate_semijoin(&schema(), data, &spec, runtime(), &emulated).unwrap();
        let ratio = a.up_busy_us as f64 / b.up_busy_us as f64;
        assert!(
            (0.9..1.1).contains(&ratio),
            "{} vs {}",
            a.up_busy_us,
            b.up_busy_us
        );
    }

    #[test]
    fn client_cpu_can_become_bottleneck() {
        use csq_client::UdfCost;
        let rt = ClientRuntime::new();
        rt.register(Arc::new(ObjectUdf::sized("Analyze", 100).with_cost(
            UdfCost {
                fixed_us: 200_000.0,
                per_byte_us: 0.0,
            },
        )))
        .unwrap();
        let net = NetworkSpec::lan();
        let run = simulate_semijoin(
            &schema(),
            rows(10, 50),
            &SemiJoinSpec::new(vec![app()], 4),
            Arc::new(rt),
            &net,
        )
        .unwrap();
        // The client's CPU, not either link, is the bottleneck.
        assert!(run.client_cpu_us > run.down_busy_us.max(run.up_busy_us));
        assert!(run.elapsed_us >= 2_000_000);
    }

    #[test]
    fn empty_input_completes_instantly() {
        let net = NetworkSpec::modem_28_8();
        let run = simulate_semijoin(
            &schema(),
            vec![],
            &SemiJoinSpec::new(vec![app()], 4),
            runtime(),
            &net,
        )
        .unwrap();
        assert_eq!(run.rows.len(), 0);
        assert_eq!(run.elapsed_us, 0);
        assert!(run.down_bytes > 0, "install+finish still cross the wire");
    }
}
