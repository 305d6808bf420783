//! Loopback-TCP vs in-process serving throughput: the same cardinality
//! workload, chunked into frames of `FRAME` queries, driven once through
//! [`ServeRuntime::submit_many`] directly and once through the `SLP1` wire
//! front-end (`NetServer`/`NetClient`) over 127.0.0.1 — same runtime, same
//! admission pattern, so the measured gap is the cost of the wire alone:
//! framing, CRC, two socket hops, and the response encode/decode.
//!
//! The model forward pass dominates a batch of 256 queries, so the wire
//! overhead must stay small: the run asserts loopback-TCP QPS within 2x of
//! the in-process batched path.
//!
//! `NET_THROUGHPUT_REQUESTS` overrides the per-rep request count (CI smoke
//! runs use a small value).

use setlearn::hybrid::GuidedConfig;
use setlearn::model::DeepSetsConfig;
use setlearn::tasks::{CardinalityConfig, LearnedCardinality};
use setlearn::wire::{QueryRequest, WireTask};
use setlearn_data::{ElementSet, GeneratorConfig, SubsetIndex};
use setlearn_serve::{
    CardinalityTask, NetClient, NetConfig, NetServer, ServeConfig, ServeRuntime, WireBackend,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// Queries per frame (and per `submit_many` call): large enough that one
/// round-trip amortizes over a whole micro-batch, the regime the wire
/// protocol is designed for.
const FRAME: usize = 256;
/// Repetitions per path; the max is reported (capacity, not scheduler luck).
const REPS: usize = 3;

fn in_process_qps(runtime: &ServeRuntime<CardinalityTask>, requests: &[ElementSet]) -> f64 {
    let start = Instant::now();
    for chunk in requests.chunks(FRAME) {
        let tickets = runtime.submit_many(chunk.to_vec());
        for ticket in tickets {
            ticket.expect("queue sized for the workload").wait().expect("request lost");
        }
    }
    requests.len() as f64 / start.elapsed().as_secs_f64()
}

fn loopback_qps(addr: SocketAddr, requests: &[QueryRequest]) -> f64 {
    let mut client = NetClient::connect(addr).expect("connect to loopback server");
    let start = Instant::now();
    for chunk in requests.chunks(FRAME) {
        let outcomes =
            client.query_batch(WireTask::Cardinality, chunk).expect("wire batch failed");
        assert_eq!(outcomes.len(), chunk.len(), "responses lost on the wire");
        for outcome in outcomes {
            outcome.expect("query failed on an idle runtime");
        }
    }
    requests.len() as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let total: usize = std::env::var("NET_THROUGHPUT_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8_000);

    let collection = GeneratorConfig::sd(1_000, 17).generate();
    let mut cfg = CardinalityConfig::new(DeepSetsConfig::lsm(collection.num_elements()));
    cfg.guided = GuidedConfig {
        warmup_epochs: 3,
        rounds: 1,
        epochs_per_round: 2,
        percentile: 0.9,
        batch_size: 128,
        learning_rate: 5e-3,
        seed: 7,
    };
    cfg.max_subset_size = 2;
    let (estimator, _) = LearnedCardinality::build(&collection, &cfg);

    let pool: Vec<ElementSet> =
        SubsetIndex::build(&collection, 2).iter().map(|(s, _)| s.clone()).collect();
    let requests: Vec<ElementSet> = (0..total).map(|i| pool[i % pool.len()].clone()).collect();
    let wire_requests: Vec<QueryRequest> =
        requests.iter().map(|q| QueryRequest::new(q.to_vec())).collect();

    // One runtime serves both paths, so the backend cost is identical.
    let runtime = Arc::new(ServeRuntime::start(
        CardinalityTask::new(estimator),
        ServeConfig {
            threads: 2,
            max_batch: 128,
            queue_capacity: requests.len(),
        },
    ));
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&runtime) as Arc<dyn WireBackend>,
        NetConfig::default(),
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    // Warm-up both paths (page in the model, settle allocator state).
    let warm = requests.len().min(512);
    in_process_qps(&runtime, &requests[..warm]);
    loopback_qps(addr, &wire_requests[..warm]);

    let in_process = (0..REPS)
        .map(|_| in_process_qps(&runtime, &requests))
        .fold(0.0, f64::max);
    let over_tcp =
        (0..REPS).map(|_| loopback_qps(addr, &wire_requests)).fold(0.0, f64::max);
    let overhead = in_process / over_tcp;

    println!(
        "Net throughput — cardinality workload, {total} requests/rep, {FRAME} queries/frame\n\
         \n  in-process batched: {in_process:.0} QPS\n  loopback TCP:       {over_tcp:.0} QPS\n  \
         wire overhead:      {overhead:.2}x"
    );

    server.shutdown();
    let report = Arc::try_unwrap(runtime)
        .map_err(|_| "front-end handlers still hold the runtime")
        .unwrap()
        .shutdown();
    assert_eq!(report.panicked_batches, 0, "serve batches panicked");
    assert!(overhead.is_finite() && overhead > 0.0, "degenerate measurement");
    assert!(
        over_tcp * 2.0 >= in_process,
        "loopback TCP ({over_tcp:.0} QPS) fell below half the in-process batched path \
         ({in_process:.0} QPS)"
    );
}
