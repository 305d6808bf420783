//! Per-layer measurements for the traced run.
//!
//! Two sources: the server's own per-frame stage breakdown and counters
//! (read over the wire), and replays that load the run's checkpoints in
//! process and time one public function of a layer on the workload's own
//! inputs. Nothing here changes the program; it only calls it.

use setlearn::mutable::MutableCollection;
use setlearn::persist::load_json;
use setlearn::tasks::{
    IndexStructure, LearnedBloom, LearnedCardinality, LearnedSetIndex, LearnedSetStructure,
    ShardedCardinality,
};
use setlearn::wire::{QueryRequest, QueryResponse, QueryValue};
use setlearn::{CardinalityConfig, DeepSets, DeepSetsConfig, FrozenModel};
use setlearn_data::{ElementSet, SetCollection};
use setlearn_obs::{SlowQueryRecord, TelemetryLevel};
use setlearn_serve::proto::{
    decode_request_batch, decode_response_batch, encode_request_batch, encode_response_batch,
};
use setlearn_serve::{CollectionRegistry, RegistryConfig, WireOutcome};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crate::inputs::{Tenant, Truth, Workload};
use crate::util::{mean, median, Spans};

/// Parent span of every replay call.
pub const REPLAY: &str = "replay";

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Sums every series of a Prometheus family (`name` or `name{…}` lines).
pub fn prom_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let rest = l.strip_prefix(name)?;
            if !(rest.starts_with('{') || rest.starts_with(' ')) {
                return None;
            }
            l.rsplit(' ').next()?.parse::<f64>().ok()
        })
        .fold(0.0, |a, b| a + b)
}

/// Server counters used by the layer metrics.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub loads: f64,
    pub evictions: f64,
    pub compactions: f64,
    pub batch_sum: f64,
    pub batch_count: f64,
    pub shed: f64,
    pub bytes: f64,
}

impl Counters {
    pub fn parse(text: &str) -> Counters {
        Counters {
            loads: prom_sum(text, "setlearn_registry_loads_total"),
            evictions: prom_sum(text, "setlearn_registry_evictions_total"),
            compactions: prom_sum(text, "setlearn_wal_compactions_total"),
            batch_sum: prom_sum(text, "setlearn_serve_batch_size_sum"),
            batch_count: prom_sum(text, "setlearn_serve_batch_size_count"),
            shed: prom_sum(text, "setlearn_serve_shed_total")
                + prom_sum(text, "setlearn_serve_tenant_shed_total"),
            // Registry mode counts traffic under task="registry"; the
            // per-collection series stay at zero, so the family sum is it.
            bytes: prom_sum(text, "setlearn_net_bytes_in_total")
                + prom_sum(text, "setlearn_net_bytes_out_total"),
        }
    }

    pub fn minus(self, before: Counters) -> Counters {
        Counters {
            loads: self.loads - before.loads,
            evictions: self.evictions - before.evictions,
            compactions: self.compactions - before.compactions,
            batch_sum: self.batch_sum - before.batch_sum,
            batch_count: self.batch_count - before.batch_count,
            shed: self.shed - before.shed,
            bytes: self.bytes - before.bytes,
        }
    }
}

/// Stage metrics from the slow-query records of the traced frames.
pub fn stage_layers(
    traced: &HashMap<u64, usize>,
    slow: &HashMap<u64, SlowQueryRecord>,
    out: &mut Layers,
) {
    let recs: Vec<(&SlowQueryRecord, usize)> = traced
        .iter()
        .filter_map(|(id, &ti)| slow.get(id).map(|r| (r, ti)))
        .collect();
    let avg = |f: &dyn Fn(&SlowQueryRecord) -> u64| {
        mean(&recs.iter().map(|(r, _)| f(r) as f64).collect::<Vec<_>>())
    };
    out.insert("trace.frames_with_stages", recs.len() as f64);
    out.insert("net.decode_us", avg(&|r| r.stages.decode_us));
    out.insert("net.admission_us", avg(&|r| r.stages.admission_us));
    out.insert("net.encode_us", avg(&|r| r.stages.encode_us));
    out.insert("runtime.queue_wait_us", avg(&|r| r.stages.queue_us));
    out.insert("runtime.batch_wait_us", avg(&|r| r.stages.batch_wait_us));
    out.insert("runtime.inference_us", avg(&|r| r.stages.inference_us));
    let sharded: Vec<f64> = recs
        .iter()
        .filter(|(r, _)| r.shard_count > 1)
        .map(|(r, _)| r.stages.aggregate_us as f64)
        .collect();
    out.insert("sharded.aggregate_us", mean(&sharded));
    // The runtime measures queue wait from enqueue to the end of batch
    // assembly, so it already contains the batch wait: adding the two would
    // count the micro-batch window twice.
    let total: f64 = recs
        .iter()
        .map(|(r, _)| r.total_us as f64)
        .sum::<f64>()
        .max(1.0);
    let wait: f64 = recs
        .iter()
        .map(|(r, _)| r.stages.queue_us.max(r.stages.batch_wait_us) as f64)
        .sum();
    let infer: f64 = recs.iter().map(|(r, _)| r.stages.inference_us as f64).sum();
    let window: f64 = recs
        .iter()
        .map(|(r, _)| r.stages.batch_wait_us as f64)
        .sum();
    out.insert("stage.wait_share", wait / total);
    out.insert("stage.batch_wait_share", window / total);
    out.insert("stage.inference_share", infer / total);
}

/// One tenant's checkpoint, loaded in process.
enum Loaded {
    Card(LearnedCardinality),
    Sharded(ShardedCardinality),
    Index(IndexStructure),
    Bloom(LearnedBloom),
}

/// Where a tenant's current checkpoint lives: a WAL tenant that compacted
/// serves the model and collection its compactor wrote into `wal/`.
fn checkpoint_paths(root: &Path, t: &Tenant) -> (PathBuf, PathBuf) {
    let dir = root.join(t.name);
    let wal = dir.join("wal");
    let model = if wal.join("model.json").exists() {
        wal.join("model.json")
    } else {
        dir.join("model.json")
    };
    let sets = if wal.join("checkpoint.json").exists() {
        wal.join("checkpoint.json")
    } else {
        dir.join("collection.json")
    };
    (model, sets)
}

fn load(root: &Path, t: &Tenant) -> Result<Loaded, String> {
    let (model, sets) = checkpoint_paths(root, t);
    let err = |e: setlearn::persist::PersistError| format!("load {}: {e}", model.display());
    Ok(match t.task_flag() {
        "cardinality" if t.train_args.contains(&"--shards") => {
            Loaded::Sharded(load_json(&model).map_err(err)?)
        }
        "cardinality" => Loaded::Card(load_json(&model).map_err(err)?),
        "index" => {
            let index: LearnedSetIndex = load_json(&model).map_err(err)?;
            let collection: SetCollection = load_json(&sets).map_err(err)?;
            Loaded::Index(IndexStructure {
                index,
                collection: Arc::new(collection),
            })
        }
        _ => Loaded::Bloom(load_json(&model).map_err(err)?),
    })
}

impl Loaded {
    fn kernels(&self) -> Vec<&FrozenModel> {
        match self {
            Loaded::Card(m) => vec![m.kernel()],
            Loaded::Sharded(m) => m.shards().iter().map(|s| s.kernel()).collect(),
            Loaded::Index(s) => vec![s.index.kernel()],
            Loaded::Bloom(m) => vec![m.kernel()],
        }
    }

    fn models(&self) -> Vec<&DeepSets> {
        match self {
            Loaded::Card(m) => vec![m.model()],
            Loaded::Sharded(m) => m.shards().iter().map(|s| s.model()).collect(),
            Loaded::Index(s) => vec![s.index.model()],
            Loaded::Bloom(m) => vec![m.model()],
        }
    }

    fn query_batch(&self, batch: &[ElementSet]) -> usize {
        match self {
            Loaded::Card(m) => m.query_batch(batch).len(),
            Loaded::Sharded(m) => m.query_batch(batch).len(),
            Loaded::Index(s) => s.query_batch(batch).len(),
            Loaded::Bloom(m) => m.query_batch(batch).len(),
        }
    }
}

/// Multiply-adds of one forward pass, times two: φ runs once per element,
/// ρ once per set.
fn flops(model: &DeepSets, set_len: usize) -> f64 {
    let dense = |mlp: &setlearn_nn::Mlp| {
        mlp.layers()
            .iter()
            .map(|l| 2.0 * (l.in_dim() * l.out_dim()) as f64)
            .sum::<f64>()
    };
    let phi = model.phi().map_or(0.0, dense);
    set_len as f64 * phi + dense(model.rho())
}

/// Times `f` over the tenant's queries in frame-sized batches until at
/// least `min_ms` have passed; returns nanoseconds per query (median of 3).
fn ns_per_query(queries: &[ElementSet], frame: usize, mut f: impl FnMut(&[ElementSet])) -> f64 {
    let min = std::time::Duration::from_millis(30);
    let mut runs = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut n = 0usize;
        while t0.elapsed() < min || n < queries.len() {
            let start = n % queries.len();
            let end = (start + frame).min(queries.len());
            f(&queries[start..end]);
            n += end - start;
        }
        runs.push(t0.elapsed().as_nanos() as f64 / n as f64);
    }
    median(&runs)
}

/// Replays every layer in process on the run's checkpoints and inputs.
pub fn replay(
    wl: &Workload,
    root: &Path,
    scratch: &Path,
    spans: &Spans,
    out: &mut Layers,
) -> Result<(), String> {
    let queries: Vec<Vec<ElementSet>> = wl
        .tenants
        .iter()
        .map(|t| {
            t.queries
                .iter()
                .map(|q| q.elems.clone().into_boxed_slice())
                .collect()
        })
        .collect();

    // core::persist — load each checkpoint; sizes on disk.
    let mut load_ms = Vec::new();
    let mut bytes = 0u64;
    let mut loaded = Vec::new();
    for t in &wl.tenants {
        let mut times = Vec::new();
        let mut last = None;
        for _ in 0..3 {
            let t0 = Instant::now();
            last = Some(spans.time("replay.persist.load_json", REPLAY, || load(root, t))?);
            times.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        loaded.push(last.expect("three loads"));
        load_ms.push(median(&times));
        bytes += std::fs::metadata(checkpoint_paths(root, t).0)
            .map(|m| m.len())
            .unwrap_or(0);
    }
    out.insert("persist.load_ms", mean(&load_ms));
    out.insert("persist.checkpoint_bytes", bytes as f64);

    // core::kernel and core::tasks, per task; core::hybrid for the index.
    let mut per_task: HashMap<&str, (Vec<f64>, Vec<f64>)> = HashMap::new();
    let (mut scanned, mut aux, mut looked) = (0usize, 0usize, 0usize);
    let mut weight_bytes = 0usize;
    let mut flop_sum = 0.0;
    let mut flop_n = 0usize;
    for ((t, l), qs) in wl.tenants.iter().zip(&loaded).zip(&queries) {
        let kernels = l.kernels();
        let k = spans.time("replay.kernel.predict_batch", REPLAY, || {
            ns_per_query(qs, wl.frame, |b| {
                for kernel in &kernels {
                    std::hint::black_box(kernel.predict_batch(b));
                }
            })
        });
        let q = spans.time("replay.tasks.query_batch", REPLAY, || {
            ns_per_query(qs, wl.frame, |b| {
                std::hint::black_box(l.query_batch(b));
            })
        });
        let e = per_task.entry(t.task_flag()).or_default();
        e.0.push(k);
        e.1.push(q);
        weight_bytes += kernels.iter().map(|k| k.size_bytes()).sum::<usize>();
        for q in qs {
            flop_sum += l.models().iter().map(|m| flops(m, q.len())).sum::<f64>();
            flop_n += 1;
        }
        if let Loaded::Index(s) = l {
            let profiles = spans.time("replay.hybrid.lookup_batch_profiled", REPLAY, || {
                s.index.lookup_batch_profiled(&s.collection, qs)
            });
            looked += profiles.len();
            scanned += profiles.iter().map(|p| p.scanned).sum::<usize>();
            aux += profiles.iter().filter(|p| p.from_aux).count();
        }
    }
    for (task, kernel, tasks) in [
        (
            "cardinality",
            "kernel.card_ns_per_query",
            "tasks.card_ns_per_query",
        ),
        (
            "index",
            "kernel.index_ns_per_query",
            "tasks.index_ns_per_query",
        ),
        (
            "bloom",
            "kernel.bloom_ns_per_query",
            "tasks.bloom_ns_per_query",
        ),
    ] {
        let (k, q) = per_task.get(task).cloned().unwrap_or_default();
        out.insert(kernel, mean(&k));
        out.insert(tasks, mean(&q));
    }
    out.insert(
        "hybrid.index_lastmile_ns_per_query",
        (out["tasks.index_ns_per_query"] - out["kernel.index_ns_per_query"]).max(0.0),
    );
    out.insert(
        "hybrid.index_rows_scanned",
        scanned as f64 / looked.max(1) as f64,
    );
    out.insert(
        "hybrid.index_aux_hit_frac",
        aux as f64 / looked.max(1) as f64,
    );
    out.insert("kernel.weight_bytes", weight_bytes as f64);
    out.insert("kernel.flops_per_query", flop_sum / flop_n.max(1) as f64);

    // serve::proto — the frame bodies a round trip encodes and decodes.
    out.insert(
        "proto.ns_per_query",
        spans.time("replay.proto.roundtrip", REPLAY, || proto_ns(wl)),
    );

    // serve::registry — resolve on a resident tenant, and a cold load.
    let (resolve_ns, reg_load_ms) = spans.time("replay.registry", REPLAY, || registry(wl, root))?;
    out.insert("registry.resolve_ns", resolve_ns);
    out.insert("registry.load_ms", reg_load_ms);

    // core::wal, core::mutable, serve::compact — on the first cardinality tenant.
    let ti = wl
        .tenants
        .iter()
        .position(|t| t.task_flag() == "cardinality" && !t.train_args.contains(&"--shards"))
        .ok_or("workload has no unsharded cardinality tenant")?;
    mutable(wl, ti, root, scratch, &queries[ti], spans, out)?;

    // obs — one-query calls at TelemetryLevel::Off against the default.
    if let Loaded::Card(est) = &loaded[ti] {
        out.insert(
            "obs.overhead_pct",
            spans.time("replay.obs.overhead", REPLAY, || {
                obs_overhead(est, &queries[ti])
            }),
        );
    }
    Ok(())
}

fn proto_ns(wl: &Workload) -> f64 {
    let mut runs = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut n = 0usize;
        while t0.elapsed() < std::time::Duration::from_millis(30) {
            for t in &wl.tenants {
                let frame: Vec<_> = t
                    .queries
                    .iter()
                    .cycle()
                    .skip(n % t.queries.len())
                    .take(wl.frame)
                    .collect();
                let requests: Vec<QueryRequest> = frame
                    .iter()
                    .map(|q| QueryRequest::new(q.elems.clone()))
                    .collect();
                let bytes = encode_request_batch(&requests);
                let (decoded, _) = decode_request_batch(&bytes).expect("own encoding decodes");
                let outcomes: Vec<WireOutcome> = frame
                    .iter()
                    .map(|q| {
                        Ok(QueryResponse {
                            value: match q.truth {
                                Truth::Count(c) => QueryValue::Cardinality(c as f64),
                                Truth::Pos(p) => QueryValue::Position(p.map(u64::from)),
                                Truth::Member(m) => QueryValue::Membership(m),
                            },
                            fallback: None,
                            bound_miss: false,
                        })
                    })
                    .collect();
                let reply = encode_response_batch(&outcomes);
                let back = decode_response_batch(&reply).expect("own encoding decodes");
                std::hint::black_box((decoded, back));
                n += wl.frame;
            }
        }
        runs.push(t0.elapsed().as_nanos() as f64 / n as f64);
    }
    median(&runs)
}

/// `CollectionRegistry::resolve` on a resident immutable tenant (ns), and
/// `detach` → `attach` → `resolve` cold loads (median ms).
fn registry(wl: &Workload, root: &Path) -> Result<(f64, f64), String> {
    let t = wl
        .tenants
        .iter()
        .find(|t| !t.wal)
        .ok_or("no immutable tenant")?;
    let reg = CollectionRegistry::new(RegistryConfig::new(root));
    reg.resolve(Some(t.name)).map_err(|e| e.to_string())?;
    let n = 200_000;
    let t0 = Instant::now();
    for _ in 0..n {
        std::hint::black_box(reg.resolve(Some(t.name)).map_err(|e| e.to_string())?);
    }
    let resolve_ns = t0.elapsed().as_nanos() as f64 / n as f64;
    let mut loads = Vec::new();
    for _ in 0..5 {
        reg.detach(t.name).map_err(|e| e.to_string())?;
        reg.attach(t.name).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        reg.resolve(Some(t.name)).map_err(|e| e.to_string())?;
        loads.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok((resolve_ns, median(&loads)))
}

/// Opens the tenant's checkpoint and its write-ahead log (a copy, so the
/// run's files stay as the server left them) as a `MutableCollection`:
/// the overlay cost at the run's final delta, WAL appends, and — where the
/// workload compacts — one compaction replay.
fn mutable(
    wl: &Workload,
    ti: usize,
    root: &Path,
    scratch: &Path,
    queries: &[ElementSet],
    spans: &Spans,
    out: &mut Layers,
) -> Result<(), String> {
    let t = &wl.tenants[ti];
    let (model, sets) = checkpoint_paths(root, t);
    let est: LearnedCardinality = load_json(&model).map_err(|e| e.to_string())?;
    let base: SetCollection = load_json(&sets).map_err(|e| e.to_string())?;
    let dir = scratch.join("replay-wal");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let wal = root.join(t.name).join("wal");
    if wal.is_dir() {
        for entry in std::fs::read_dir(&wal)
            .map_err(|e| e.to_string())?
            .flatten()
        {
            let name = entry.file_name();
            let keep = !matches!(name.to_str(), Some("model.json" | "checkpoint.json"));
            if keep && entry.path().is_file() {
                std::fs::copy(entry.path(), dir.join(&name)).map_err(|e| e.to_string())?;
            }
        }
    }
    let (coll, _) =
        MutableCollection::open(est, Arc::new(base), &dir).map_err(|e| e.to_string())?;
    let structure = coll.structure();
    let with = spans.time("replay.mutable.query_batch", REPLAY, || {
        ns_per_query(queries, wl.frame, |b| {
            std::hint::black_box(coll.query_batch(b));
        })
    });
    let without = ns_per_query(queries, wl.frame, |b| {
        std::hint::black_box(structure.query_batch(b));
    });
    out.insert("mutable.overlay_ns_per_query", (with - without).max(0.0));
    out.insert(
        "mutable.final_delta_ops",
        coll.delta_stats().pending_ops as f64,
    );

    let vocab = coll.vocab();
    let sets: Vec<&Vec<u32>> = wl
        .inserts
        .iter()
        .filter(|s| s.iter().all(|&e| e < vocab))
        .take(100)
        .collect();
    let mut write_us = Vec::new();
    for s in &sets {
        let t0 = Instant::now();
        spans
            .time("replay.wal.insert", REPLAY, || coll.insert(s))
            .map_err(|e| e.to_string())?;
        write_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    out.insert("wal.write_us", median(&write_us));

    if wl.compact_after.is_some() {
        let t0 = Instant::now();
        spans.time("replay.compact", REPLAY, || -> Result<(), String> {
            let snap = coll
                .begin_compaction()
                .map_err(|e| e.to_string())?
                .ok_or("nothing pending")?;
            let cfg = CardinalityConfig::new(DeepSetsConfig::lsm(snap.merged.num_elements()));
            let (est, _) = LearnedCardinality::build(&snap.merged, &cfg);
            coll.complete_compaction(est, snap)
                .map_err(|e| e.to_string())
        })?;
        out.insert("compact.retrain_s", t0.elapsed().as_secs_f64());
    } else {
        out.insert("compact.retrain_s", 0.0);
    }
    drop(coll);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Relative cost of the default `Metrics` telemetry level over `Off` on
/// one-query calls, percent (median of alternating rounds).
fn obs_overhead(est: &LearnedCardinality, queries: &[ElementSet]) -> f64 {
    let round = || {
        let t0 = Instant::now();
        for _ in 0..4 {
            for q in queries {
                std::hint::black_box(LearnedSetStructure::query(est, q));
            }
        }
        t0.elapsed().as_secs_f64()
    };
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..7 {
        setlearn_obs::set_level(TelemetryLevel::Off);
        off.push(round());
        setlearn_obs::set_level(TelemetryLevel::Metrics);
        on.push(round());
    }
    (median(&on) / median(&off) - 1.0) * 100.0
}
