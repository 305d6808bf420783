//! Sharded-runtime hammer: rolling shard-by-shard swaps race concurrent
//! fan-out load. Every answer must match the sequential oracle (no torn
//! snapshots, no blended shard versions inside one shard), no admitted
//! sub-request may be lost, and per-shard shed accounting must stay exact.

use setlearn_serve::{ServeConfig, ServeError, ServeTask, ShardedRuntime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SHARDS: u64 = 3;
const ROUNDS: u64 = 50;

/// One shard's model: payload derived from (shard, version) so a torn or
/// half-published snapshot fails its checksum inside the worker.
struct ShardModel {
    shard: u64,
    version: u64,
    payload: Vec<u64>,
    checksum: u64,
}

fn checksum(payload: &[u64]) -> u64 {
    payload.iter().fold(0xcbf2_9ce4_8422_2325u64, |acc, &v| {
        (acc ^ v).wrapping_mul(0x1000_0000_01b3)
    })
}

impl ShardModel {
    fn new(shard: u64, version: u64) -> Self {
        let seed = shard.wrapping_mul(0x9e37_79b9).wrapping_add(version.wrapping_mul(1_000_003));
        let payload: Vec<u64> = (0..512).map(|i| seed.wrapping_add(i)).collect();
        let checksum = checksum(&payload);
        ShardModel { shard, version, payload, checksum }
    }

    fn verify(&self) {
        assert_eq!(
            checksum(&self.payload),
            self.checksum,
            "torn snapshot at shard {} version {}",
            self.shard,
            self.version
        );
    }
}

/// Version-independent per-shard oracle contribution.
fn oracle(shard: u64, r: u64) -> u64 {
    r.wrapping_mul(2654435761).rotate_left(17) ^ shard.wrapping_mul(0xdead_beef)
}

/// The sum-aggregated oracle across all shards.
fn fanout_oracle(r: u64) -> u64 {
    (0..SHARDS).fold(0u64, |acc, s| acc.wrapping_add(oracle(s, r)))
}

impl ServeTask for ShardModel {
    type Request = u64;
    type Response = (u64, u64);
    const NAME: &'static str = "hammer_sharded";

    fn serve_batch(&self, requests: &[u64]) -> Vec<(u64, u64)> {
        self.verify();
        requests.iter().map(|&r| (oracle(self.shard, r), self.version)).collect()
    }
}

/// Rolling swaps under load: each round replaces every shard's model one
/// shard at a time while submitters hammer the fan-out path.
#[test]
fn rolling_swaps_under_load_lose_nothing() {
    const SUBMITTERS: u64 = 3;
    const REQUESTS_PER_SUBMITTER: u64 = 300;

    let runtime = Arc::new(ShardedRuntime::start(
        (0..SHARDS).map(|s| ShardModel::new(s, 0)).collect(),
        ServeConfig {
            threads: 3,
            max_batch: 16,
            queue_capacity: 4096,
        },
        |parts: Vec<(u64, u64)>| {
            parts
                .into_iter()
                .fold((0u64, 0u64), |acc, (v, version)| {
                    (acc.0.wrapping_add(v), acc.1.max(version))
                })
        },
    ));
    let answered = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        let mut submitters = Vec::new();
        for t in 0..SUBMITTERS {
            let runtime = Arc::clone(&runtime);
            let answered = Arc::clone(&answered);
            submitters.push(s.spawn(move || {
                for i in 0..REQUESTS_PER_SUBMITTER {
                    let request = t * REQUESTS_PER_SUBMITTER + i;
                    // Sheds are the documented overload contract; retry them.
                    let (value, version) = loop {
                        match runtime.call(request) {
                            Ok(answer) => break answer,
                            Err(ServeError::Overloaded) => std::thread::yield_now(),
                            Err(e) => panic!("unexpected serve error: {e}"),
                        }
                    };
                    assert_eq!(
                        value,
                        fanout_oracle(request),
                        "fan-out answer diverged from the oracle"
                    );
                    assert!(version <= ROUNDS, "answer from a never-published version");
                    answered.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }

        // Writer: ROUNDS rolling swaps, each touching every shard once, one
        // shard at a time, paced against submitter progress so the swaps
        // overlap the load instead of finishing first.
        let writer = {
            let runtime = Arc::clone(&runtime);
            let answered = Arc::clone(&answered);
            s.spawn(move || {
                for round in 1..=ROUNDS {
                    let versions = runtime
                        .rolling_swap((0..SHARDS).map(|s| ShardModel::new(s, round)).collect());
                    assert_eq!(versions, vec![round; SHARDS as usize]);
                    while answered.load(Ordering::Relaxed)
                        < round * (SUBMITTERS * REQUESTS_PER_SUBMITTER) / (ROUNDS + 1)
                    {
                        std::thread::yield_now();
                    }
                }
            })
        };

        for submitter in submitters {
            submitter.join().expect("submitter panicked (lost or torn answer?)");
        }
        writer.join().expect("writer panicked");
    });

    let total = SUBMITTERS * REQUESTS_PER_SUBMITTER;
    assert_eq!(answered.load(Ordering::Relaxed), total, "requests lost");
    let runtime = Arc::try_unwrap(runtime).unwrap_or_else(|_| panic!("runtime still shared"));
    let report = runtime.shutdown();
    assert_eq!(report.per_shard.len(), SHARDS as usize);
    for (shard, r) in report.per_shard.iter().enumerate() {
        // Zero discrepancies: every admitted sub-request was answered, every
        // refused one was counted as shed at admission — nothing torn or
        // double-counted even while this shard's model was mid-swap.
        assert_eq!(r.completed, r.submitted, "shard {shard}: admitted ≠ answered");
        assert_eq!(r.swaps, ROUNDS, "shard {shard}: swap count");
        assert_eq!(r.panicked_batches, 0, "shard {shard}: torn snapshot reached serve_batch");
        assert!(
            r.completed >= total,
            "shard {shard}: answered fewer sub-requests than oracle-checked fan-outs"
        );
    }
}

/// Swapping a single shard mid-serve leaves the other shards' versions and
/// accounting untouched — the per-shard lifecycle is genuinely independent.
#[test]
fn single_shard_swap_is_isolated() {
    let runtime = ShardedRuntime::start(
        (0..SHARDS).map(|s| ShardModel::new(s, 0)).collect(),
        ServeConfig {
            threads: 3,
            max_batch: 8,
            queue_capacity: 1024,
        },
        |parts: Vec<(u64, u64)>| {
            parts
                .into_iter()
                .fold((0u64, 0u64), |acc, (v, version)| {
                    (acc.0.wrapping_add(v), acc.1.max(version))
                })
        },
    );
    for r in 0..100u64 {
        assert_eq!(runtime.call(r).unwrap().0, fanout_oracle(r));
    }
    runtime.swap_shard(1, ShardModel::new(1, 7));
    for r in 100..200u64 {
        let (value, version) = runtime.call(r).unwrap();
        assert_eq!(value, fanout_oracle(r), "answers unchanged by a same-oracle swap");
        assert_eq!(version, 7, "the swapped shard's version is visible");
    }
    let report = runtime.shutdown();
    assert_eq!(report.swaps(), 1);
    assert_eq!(report.per_shard[0].swaps, 0);
    assert_eq!(report.per_shard[1].swaps, 1);
    assert_eq!(report.per_shard[2].swaps, 0);
    for r in &report.per_shard {
        assert_eq!(r.completed, r.submitted);
        assert_eq!(r.shed, 0);
    }
}
