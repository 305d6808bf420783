//! Workload definitions and the answer oracle.
//!
//! Everything the program receives — collections, queries, writes — is
//! generated here from the run's seed. The oracle answers come from the same
//! generated sets: exact counts and first positions from the collection's
//! subset statistics, and exact membership for the Bloom tenants' trained
//! positives and for sets that are absent.

use setlearn::wire::WireTask;
use setlearn_data::{is_subset, GeneratorConfig, SetCollection, SubsetIndex};
use std::sync::Arc;

use crate::util::Rng;

/// Queries drawn per tenant (pool share plus absent share), cycled by frames.
const QUERIES_PER_TENANT: usize = 2048;
/// Sets no collection row contains, per query of a Bloom tenant: one in
/// two, the repository's membership workload mix (`membership_queries`
/// draws one negative per positive).
const BLOOM_ABSENT: (usize, usize) = (1, 2);
/// The same for cardinality and index tenants: one in eight. The paper's
/// workloads for these tasks are subsets of stored sets only (§8.1.1); the
/// eighth keeps their not-found answers (count 0, no position) in every
/// run. It is a chosen share, not one taken from a measurement.
const SUBSET_ABSENT: (usize, usize) = (1, 8);
/// `serve --compact-after` on `ingest`. With `WRITE_RATE` it sets how often
/// a compaction is due: at 100 ops/s per write target, every 2 s, sooner
/// than the previous one finishes beside the reads (they complete about
/// 3.3 s apart per target). Compactions so run back to back: 11-12
/// complete in a 20-s phase and 6 in the traced run's 10-s phase, against
/// the 3 a run must complete (`MIN_COMPACTIONS` in `main.rs`).
pub const COMPACT_AFTER: usize = 200;
/// Scheduled write rate of `ingest`, operations per second over its two
/// write targets (see `COMPACT_AFTER`).
pub const WRITE_RATE: f64 = 200.0;
/// Inserted sets kept live per write target; older ones are deleted. It
/// bounds the live collection at the base plus 10% (1,000 + 100 rows), so
/// every compaction retrains on a collection of the same size and the
/// compaction rate holds for the whole run; an unbounded writer grows the
/// collection and slows each compaction more than the last.
pub const LIVE_WINDOW: usize = 100;
/// Distinct absent sets behind `bloom_fpr`.
const FPR_PROBE: usize = 4096;
/// The CLI's Bloom training defaults (`--samples`, `--max-subset`, and
/// `BloomConfig::new`'s seed): the trained positives are re-derived with them.
const BLOOM_SAMPLES: usize = 2_000;
const BLOOM_MAX_QUERY: usize = 4;
const BLOOM_SEED: u64 = 11;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Point,
    Bulk,
    Ingest,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "point" => Some(Kind::Point),
            "bulk" => Some(Kind::Bulk),
            "ingest" => Some(Kind::Ingest),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Point => "point",
            Kind::Bulk => "bulk",
            Kind::Ingest => "ingest",
        }
    }
}

/// The exact answer to one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    /// Subset count over the base collection.
    Count(u64),
    /// First position containing the query.
    Pos(Option<u32>),
    /// Whether some row contains the query.
    Member(bool),
}

#[derive(Debug, Clone)]
pub struct Query {
    pub elems: Vec<u32>,
    /// Drawn from the tenant's trained pool (as opposed to absent).
    pub pooled: bool,
    pub truth: Truth,
}

/// Which trained pool a tenant's queries come from.
#[derive(Debug, Clone, Copy)]
enum Pool {
    /// Subsets up to this size (the `--max-subset` it was trained with).
    Subsets(usize),
    /// The Bloom filter's sampled positives.
    BloomPositives,
}

pub struct Tenant {
    pub name: &'static str,
    pub task: WireTask,
    /// `setlearn train` arguments after `--task`.
    pub train_args: Vec<&'static str>,
    /// Served from a write-ahead log (mutable).
    pub wal: bool,
    pub queries: Vec<Query>,
}

impl Tenant {
    pub fn task_flag(&self) -> &'static str {
        self.task.label()
    }
}

/// One workload: tenants, read frames, and the write schedule.
pub struct Workload {
    /// The collection every tenant is trained on and serves.
    pub base: Arc<SetCollection>,
    pub tenants: Vec<Tenant>,
    /// Queries per read frame.
    pub frame: usize,
    /// Read connections (closed loop each).
    pub read_conns: usize,
    /// Tenant order of read frames, cycled per connection.
    pub rotation: Vec<usize>,
    /// `serve --compact-after` (None: no background compaction).
    pub compact_after: Option<usize>,
    /// Tenants receiving writes.
    pub write_targets: Vec<usize>,
    /// Sets the writer inserts, in order (distinct, absent from the base).
    pub inserts: Vec<Vec<u32>>,
    /// Distinct absent sets for the Bloom false-positive probe.
    pub fpr_probe: Vec<Vec<u32>>,
}

fn rw(n: usize, rng: &mut Rng) -> SetCollection {
    GeneratorConfig::rw(n, rng.seed()).generate()
}

fn tweets(n: usize, rng: &mut Rng) -> SetCollection {
    GeneratorConfig::tweets(n, rng.seed()).generate()
}

/// RW-shaped sets over `base`'s vocabulary that equal no base row and no
/// earlier insert, so every delete retires exactly the insert it names.
fn insert_stream(base: &SetCollection, n: usize, rng: &mut Rng) -> Vec<Vec<u32>> {
    let mut cfg = GeneratorConfig::rw(n * 2, rng.seed());
    cfg.vocab = base.num_elements();
    let mut seen: std::collections::HashSet<Vec<u32>> =
        base.sets().iter().map(|s| s.to_vec()).collect();
    let mut out = Vec::with_capacity(n);
    for set in cfg.generate().sets() {
        if out.len() == n {
            break;
        }
        if seen.insert(set.to_vec()) {
            out.push(set.to_vec());
        }
    }
    out
}

/// Pairs and triples contained in no base row and no write-stream set.
fn absent_sets(
    base: &SetCollection,
    writes: &[Vec<u32>],
    n: usize,
    rng: &mut Rng,
) -> Vec<Vec<u32>> {
    let vocab = base.num_elements() as usize;
    let mut out = Vec::with_capacity(n);
    let mut seen = std::collections::HashSet::new();
    let mut tries = 0;
    while out.len() < n && tries < n * 200 {
        tries += 1;
        let size = 2 + rng.below(2);
        let mut q: Vec<u32> = Vec::with_capacity(size);
        while q.len() < size {
            let e = rng.below(vocab) as u32;
            if !q.contains(&e) {
                q.push(e);
            }
        }
        q.sort_unstable();
        if seen.contains(&q) || base.contains_subset(&q) || writes.iter().any(|w| is_subset(&q, w))
        {
            continue;
        }
        seen.insert(q.clone());
        out.push(q);
    }
    out
}

/// A tenant's query list: pool draws plus absent sets, shuffled.
fn queries(
    task: WireTask,
    pool: Pool,
    data: &SetCollection,
    absent: &[Vec<u32>],
    rng: &mut Rng,
) -> Vec<Query> {
    let (num, den) = match pool {
        Pool::BloomPositives => BLOOM_ABSENT,
        Pool::Subsets(_) => SUBSET_ABSENT,
    };
    let want_pool = QUERIES_PER_TENANT - QUERIES_PER_TENANT * num / den;
    let mut out: Vec<Query> = match pool {
        Pool::Subsets(max) => {
            let index = SubsetIndex::build(data, max);
            let mut entries: Vec<(Vec<u32>, u64, u32)> = index
                .iter()
                .map(|(s, info)| (s.to_vec(), info.count, info.first_pos))
                .collect();
            // HashMap order is not deterministic; the seed must fix the draw.
            entries.sort_unstable();
            rng.shuffle(&mut entries);
            entries
                .iter()
                .cycle()
                .take(want_pool)
                .map(|(s, count, first)| Query {
                    elems: s.clone(),
                    pooled: true,
                    truth: match task {
                        WireTask::Cardinality => Truth::Count(*count),
                        WireTask::Index => Truth::Pos(Some(*first)),
                        WireTask::Bloom => Truth::Member(true),
                    },
                })
                .collect()
        }
        Pool::BloomPositives => {
            let workload = setlearn_data::workload::membership_queries(
                data,
                BLOOM_SAMPLES,
                BLOOM_SAMPLES,
                BLOOM_MAX_QUERY,
                BLOOM_SEED,
            );
            let mut positives: Vec<Vec<u32>> = workload
                .into_iter()
                .filter(|(_, present)| *present)
                .map(|(s, _)| s.to_vec())
                .collect();
            rng.shuffle(&mut positives);
            positives
                .iter()
                .cycle()
                .take(want_pool)
                .map(|s| Query {
                    elems: s.clone(),
                    pooled: true,
                    truth: Truth::Member(true),
                })
                .collect()
        }
    };
    for a in absent.iter().cycle().take(QUERIES_PER_TENANT - want_pool) {
        out.push(Query {
            elems: a.clone(),
            pooled: false,
            truth: match task {
                WireTask::Cardinality => Truth::Count(0),
                WireTask::Index => Truth::Pos(None),
                WireTask::Bloom => Truth::Member(false),
            },
        });
    }
    rng.shuffle(&mut out);
    out
}

struct Spec {
    name: &'static str,
    task: WireTask,
    train_args: Vec<&'static str>,
    pool: Pool,
    wal: bool,
}

fn spec(name: &'static str, task: WireTask, pool: Pool, train_args: &[&'static str]) -> Spec {
    Spec {
        name,
        task,
        train_args: train_args.to_vec(),
        pool,
        wal: false,
    }
}

/// Builds a workload's inputs from the seed.
pub fn build(kind: Kind, seed: u64) -> Workload {
    let mut rng = Rng::new(seed, kind.name());
    let (base, specs, frame, read_conns, rotation) = match kind {
        Kind::Point => (
            rw(2_000, &mut rng),
            vec![
                spec("card", WireTask::Cardinality, Pool::Subsets(3), &[]),
                spec("index", WireTask::Index, Pool::Subsets(2), &[]),
                spec("bloom", WireTask::Bloom, Pool::BloomPositives, &[]),
            ],
            1,
            2,
            vec![0, 1, 0, 2],
        ),
        Kind::Bulk => (
            tweets(4_000, &mut rng),
            vec![
                spec(
                    "card-q8",
                    WireTask::Cardinality,
                    Pool::Subsets(1),
                    &[
                        "--embedding",
                        "64",
                        "--neurons",
                        "256",
                        "--precision",
                        "q8",
                        "--max-subset",
                        "1",
                    ],
                ),
                spec(
                    "card-shard4",
                    WireTask::Cardinality,
                    Pool::Subsets(2),
                    &["--shards", "4", "--max-subset", "2"],
                ),
                spec("index", WireTask::Index, Pool::Subsets(2), &[]),
                spec("bloom", WireTask::Bloom, Pool::BloomPositives, &[]),
            ],
            256,
            2,
            vec![0, 1, 2, 3],
        ),
        Kind::Ingest => (
            rw(1_000, &mut rng),
            vec![
                Spec {
                    wal: true,
                    ..spec("card", WireTask::Cardinality, Pool::Subsets(3), &[])
                },
                Spec {
                    wal: true,
                    ..spec("bloom", WireTask::Bloom, Pool::BloomPositives, &[])
                },
                spec("index", WireTask::Index, Pool::Subsets(2), &[]),
            ],
            1,
            1,
            vec![0, 1, 0, 2],
        ),
    };
    let base = Arc::new(base);
    // Point and bulk write nothing; their stream still feeds the WAL replay
    // of the traced run.
    let inserts = insert_stream(&base, 4_000, &mut rng);
    let fpr_probe = absent_sets(&base, &inserts, FPR_PROBE, &mut rng);
    let absent = &fpr_probe[..QUERIES_PER_TENANT * BLOOM_ABSENT.0 / BLOOM_ABSENT.1];
    let mut tenants = Vec::new();
    let mut write_targets = Vec::new();
    for (i, s) in specs.into_iter().enumerate() {
        let queries = queries(s.task, s.pool, &base, absent, &mut rng);
        if s.wal {
            write_targets.push(i);
        }
        tenants.push(Tenant {
            name: s.name,
            task: s.task,
            train_args: s.train_args,
            wal: s.wal,
            queries,
        });
    }
    Workload {
        base,
        tenants,
        frame,
        read_conns,
        rotation,
        compact_after: (kind == Kind::Ingest).then_some(COMPACT_AFTER),
        write_targets,
        inserts,
        fpr_probe,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = build(Kind::Ingest, 3);
        let b = build(Kind::Ingest, 3);
        assert_eq!(a.inserts, b.inserts);
        for (ta, tb) in a.tenants.iter().zip(&b.tenants) {
            let qa: Vec<_> = ta.queries.iter().map(|q| q.elems.clone()).collect();
            let qb: Vec<_> = tb.queries.iter().map(|q| q.elems.clone()).collect();
            assert_eq!(qa, qb);
        }
        let c = build(Kind::Ingest, 4);
        assert_ne!(a.inserts, c.inserts);
    }

    #[test]
    fn oracle_matches_the_collection() {
        let w = build(Kind::Ingest, 1);
        for t in &w.tenants {
            for q in t.queries.iter().take(200) {
                match q.truth {
                    Truth::Count(c) => assert_eq!(c, w.base.cardinality(&q.elems)),
                    Truth::Pos(p) => {
                        assert_eq!(p.map(|p| p as usize), w.base.first_position(&q.elems))
                    }
                    Truth::Member(m) => assert_eq!(m, w.base.contains_subset(&q.elems)),
                }
            }
        }
        for s in &w.inserts {
            assert!(!w.base.sets().iter().any(|b| b.as_ref() == s.as_slice()));
        }
    }
}
