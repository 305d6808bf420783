//! `perfbench` — drives the shipped `setlearn` binary end to end for one
//! workload and prints one JSON result line. `perfbench/run.py` builds the
//! program and this binary, then runs it; see `perfbench/README.md`.
//!
//! A run: generate inputs from the seed → set up the tenants several times
//! (`setlearn train` per tenant, `setlearn serve --root`, a first answer from
//! every tenant) → cold-load cycles → warm-up → the timed phase (closed-loop
//! reads, open-loop writes) → write probe or durability check. With
//! `--trace 1` a traced phase follows on a server that records every
//! request's stage breakdown, then the per-layer replays.

mod inputs;
mod layers;
mod load;
mod server;
mod util;

use serde::{Serialize, Value};
use setlearn::wire::WireTask::{Bloom, Cardinality, Index};
use setlearn_serve::StatsFormat;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use inputs::{Kind, Workload};
use layers::{Counters, Layers};
use load::{first_answer, pending_of, LiveSets, PhaseCtl, ReadStats, WriteStats, Writer};
use server::{Server, ServerSpec};
use util::{median, obj, quantile, Spans};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Rounds of detach → query cycles (one per tenant) for `cold_load_ms`,
/// spaced apart so a short burst of interference cannot cover all of them.
/// Rounds in which the host took CPU time from this VM are left out, as
/// timed-phase windows are (see `load::least_stolen`).
const COLD_ROUNDS: usize = 20;
const COLD_SPACING: Duration = Duration::from_millis(50);
/// Compactions the untraced timed phase of `ingest` must complete (10 s in
/// a traced run at `--seconds 20`, 20 s otherwise).
const MIN_COMPACTIONS: f64 = 3.0;

/// Operations attempted and failed over the whole run (warm-ups and first
/// answers included, not only the timed phases), and the violations that
/// fail it.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    fatal: Vec<String>,
    /// Bloom answers on members, and how many read "absent".
    bloom_present: u64,
    bloom_missed: u64,
}

impl Tally {
    fn reads(&mut self, r: &ReadStats) {
        self.attempted += r.queries;
        self.failed += r.failed;
        self.fatal.extend(r.fatal.iter().cloned());
        self.bloom_present += r.bloom_present;
        self.bloom_missed += r.bloom_missed;
    }

    fn writes(&mut self, w: &WriteStats) {
        self.attempted += w.attempted;
        self.failed += w.failed;
        self.fatal.extend(w.fatal.iter().cloned());
    }
}

/// The result line: the last line of standard output.
#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Value,
}

/// The run's full record, written to the results directory.
#[derive(Serialize)]
struct Record {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    host: Value,
    wall_s: f64,
    correct: bool,
    attempted: u64,
    failed: u64,
    end_to_end: Value,
    per_layer: Value,
    details: Value,
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    setlearn: PathBuf,
    work: PathBuf,
    results: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut map = HashMap::new();
    let mut it = raw.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k}"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), v.clone());
    }
    let get = |k: &str| map.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?;
    Ok(Args {
        kind: Kind::parse(&workload).ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: get("seed")?.parse().map_err(|_| "bad --seed")?,
        seconds: get("seconds")?.parse().map_err(|_| "bad --seconds")?,
        trace: get("trace")? == "1",
        setlearn: get("setlearn")?.into(),
        work: get("work")?.into(),
        results: get("results")?.into(),
    })
}

fn main() {
    let code = match parse_args().and_then(|a| run(&a)) {
        Ok(line) => {
            println!("{line}");
            0
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    std::process::exit(code);
}

fn us(ns: &[u64], p: f64) -> f64 {
    let mut v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    quantile(&mut v, p)
}

/// One timed phase: the read connections, plus the writer when the
/// workload writes beside its reads.
fn phase(
    addr: std::net::SocketAddr,
    wl: &Workload,
    live: &LiveSets,
    writer: &mut Writer,
    length: Duration,
    ctl: &PhaseCtl,
) -> Result<(ReadStats, WriteStats, [f64; load::WINDOWS]), String> {
    let start = Instant::now();
    let until = start + length;
    let (result, steal) = load::with_steal(start, length, || {
        std::thread::scope(|s| {
            let w = (!wl.write_targets.is_empty())
                .then(|| s.spawn(move || load::write_loop(addr, wl, writer, live, until, ctl)));
            let reads = load::read_phase(addr, wl, live, start, until, ctl)?;
            let writes = match w {
                Some(h) => h.join().map_err(|_| "writer panicked".to_string())??,
                None => WriteStats::default(),
            };
            Ok::<_, String>((reads, writes))
        })
    });
    let (mut reads, mut writes) = result?;
    let keep = load::clean_windows(&steal, length.as_secs_f64() / load::WINDOWS as f64);
    reads.keep = keep;
    writes.keep = keep;
    Ok((reads, writes, steal))
}

fn scrape(addr: std::net::SocketAddr) -> Result<Counters, String> {
    let mut c = load::connect(addr)?;
    let text = c
        .stats(StatsFormat::Prometheus)
        .map_err(|e| format!("stats: {e}"))?;
    Ok(Counters::parse(&text))
}

/// Sets up every tenant from scratch and serves them: writes the inputs,
/// trains with the shipped CLI, starts the registry and waits for a first
/// answer from every tenant. Returns the server, elapsed seconds and the
/// per-tenant training times.
fn setup(
    a: &Args,
    wl: &Workload,
    root: &Path,
    side: &mut ReadStats,
) -> Result<(Server, ServerSpec, f64, Vec<f64>), String> {
    let _ = std::fs::remove_dir_all(root);
    let t0 = Instant::now();
    for t in &wl.tenants {
        let dir = root.join(t.name);
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        setlearn::persist::save_json(&*wl.base, &dir.join("collection.json"))
            .map_err(|e| e.to_string())?;
    }
    let train = server::train_all(&a.setlearn, root, wl, &a.work)?;
    for t in wl.tenants.iter().filter(|t| t.wal) {
        std::fs::create_dir_all(root.join(t.name).join("wal")).map_err(|e| e.to_string())?;
    }
    let spec = ServerSpec {
        bin: a.setlearn.clone(),
        root: root.to_path_buf(),
        logs: a.work.clone(),
        compact_after: wl.compact_after,
    };
    let srv = Server::start(&spec, false, "main")?;
    let mut c = load::connect(srv.addr)?;
    for ti in 0..wl.tenants.len() {
        first_answer(&mut c, wl, ti, side, true)?;
    }
    Ok((srv, spec, t0.elapsed().as_secs_f64(), train))
}

/// Durability check after the timed phase: let compaction settle, record
/// each WAL tenant's pending ops, `kill -9` the server, restart it on the
/// same root, and verify the replay and every acked live Bloom insert.
fn durability(
    srv: Server,
    spec: &ServerSpec,
    wl: &Workload,
    writer: &Writer,
    slow_log: bool,
    tally: &mut Tally,
    side: &mut ReadStats,
) -> Result<(Server, Value), String> {
    let settle = wl.compact_after.expect("ingest compacts");
    let mut c = load::connect(srv.addr)?;
    let t0 = Instant::now();
    // Pending below the threshold means no compaction is running or due.
    let pending = loop {
        let p = pending_of(&mut c, wl)?;
        if p.len() == wl.write_targets.len() && p.values().all(|&v| (v as usize) < settle) {
            break p;
        }
        if t0.elapsed() > Duration::from_secs(60) {
            return Err(format!(
                "compaction did not settle within 60 s: pending {p:?}"
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    drop(c);
    srv.kill9();
    let srv = Server::start(spec, slow_log, "restart")?;
    let mut c = load::connect(srv.addr)?;
    for ti in 0..wl.tenants.len() {
        first_answer(&mut c, wl, ti, side, false)?;
    }
    let replayed = pending_of(&mut c, wl)?;
    let mut detail = Vec::new();
    for &ti in &wl.write_targets {
        let t = &wl.tenants[ti];
        let acked = writer.acked.get(&ti).map_or(0, Vec::len);
        let (want, got) = (pending[&ti], replayed.get(&ti).copied().unwrap_or(0));
        if want != got || want as usize > acked {
            tally.fatal.push(format!(
                "{}: replayed {got} WAL records after kill -9, expected {want} of {acked} acked",
                t.name
            ));
        }
        let mut row = vec![
            ("acked_ops", acked.serialize()),
            ("uncompacted_ops", want.serialize()),
            ("replayed_ops", got.serialize()),
        ];
        if t.task == setlearn::wire::WireTask::Bloom {
            let ops = &writer.acked[&ti];
            let tail: std::collections::HashSet<&Vec<u32>> = ops
                [ops.len().saturating_sub(want as usize)..]
                .iter()
                .filter(|o| !o.delete)
                .map(|o| &o.set)
                .collect();
            let live = writer.live(ti);
            // Inserts folded by a compaction are durable once they are rows
            // of the checkpoint the restarted server loaded.
            let checkpoint = spec.root.join(t.name).join("wal").join("checkpoint.json");
            let rows: std::collections::HashSet<Vec<u32>> = if checkpoint.exists() {
                let coll: setlearn_data::SetCollection =
                    setlearn::persist::load_json(&checkpoint).map_err(|e| e.to_string())?;
                coll.sets().iter().map(|s| s.to_vec()).collect()
            } else {
                Default::default()
            };
            let lost = live
                .iter()
                .filter(|s| !tail.contains(s) && !rows.contains(*s))
                .count();
            if lost > 0 {
                tally.fatal.push(format!(
                    "{}: {lost} acked live inserts neither replayed nor checkpointed",
                    t.name
                ));
            }
            let (mut tail_miss, mut compacted_miss, mut compacted) = (0u64, 0u64, 0u64);
            c.set_collection(Some(t.name.to_string()));
            for chunk in live.chunks(256) {
                let reqs: Vec<_> = chunk
                    .iter()
                    .map(|s| setlearn::wire::QueryRequest::new(s.clone()))
                    .collect();
                let out = c
                    .query_batch(t.task, &reqs)
                    .map_err(|e| format!("durability query: {e}"))?;
                for (s, o) in chunk.iter().zip(out) {
                    let member = matches!(o, Ok(r) if r.value == setlearn::wire::QueryValue::Membership(true));
                    if tail.contains(s) {
                        tail_miss += u64::from(!member);
                    } else {
                        compacted += 1;
                        compacted_miss += u64::from(!member);
                    }
                }
            }
            if tail_miss > 0 {
                tally.fatal.push(format!(
                    "{}: {tail_miss} acked, uncompacted inserts not members after restart",
                    t.name
                ));
            }
            // The retrained filter backs up false negatives of its sampled
            // training positives only, so a compacted insert can be missed:
            // a miss within the filter's guarantee (counted in bloom_recall),
            // not a lost write. A miss in the replayed tail breaks the
            // overlay's guarantee and fails the run (above).
            tally.attempted += live.len() as u64;
            tally.failed += tail_miss;
            tally.bloom_present += live.len() as u64;
            tally.bloom_missed += compacted_miss + tail_miss;
            row.extend([
                ("live_inserts_checked", live.len().serialize()),
                ("lost", lost.serialize()),
                ("tail_misses", tail_miss.serialize()),
                ("compacted_checked", compacted.serialize()),
                ("compacted_misses", compacted_miss.serialize()),
            ]);
        }
        detail.push((t.name, obj(row)));
    }
    Ok((srv, obj(detail)))
}

fn host_info() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj(vec![
        ("cpu_model", cpu.serialize()),
        ("nproc", nproc.serialize()),
        (
            "kernel_isa",
            format!("{:?}", setlearn::kernel::kernel_isa()).serialize(),
        ),
    ])
}

fn run(a: &Args) -> Result<String, String> {
    let wall = Instant::now();
    std::fs::create_dir_all(&a.work).map_err(|e| format!("create {}: {e}", a.work.display()))?;
    std::fs::create_dir_all(&a.results).map_err(|e| e.to_string())?;
    let spans = Spans::new(a.trace);
    let run_span = spans.start("run", "");
    let wl = inputs::build(a.kind, a.seed);
    let mut tally = Tally::default();
    // Answers outside the load phases: first answers after each set-up,
    // cold load and restart.
    let mut side = ReadStats::default();
    let bloom_fn_fatal = a.kind != Kind::Ingest;

    // Set-up, several times; the last one serves the run.
    let mut setup_s = Vec::new();
    let mut last = None;
    for k in 0..SETUPS {
        let root = a.work.join(format!("root{k}"));
        let (srv, spec, secs, train) =
            spans.time("setup", "run", || setup(a, &wl, &root, &mut side))?;
        setup_s.push(secs);
        if k + 1 < SETUPS {
            srv.kill9();
            let _ = std::fs::remove_dir_all(&root);
        } else {
            last = Some((srv, spec, train, root));
        }
    }
    let (mut srv, spec, train, root) = last.expect("at least one set-up");

    // Cold loads: detach → attach → first answer, for every tenant, in
    // rounds. Each tenant's median over the kept rounds, averaged over
    // tenants (their sizes differ a lot).
    let mut cold_ms: Vec<Vec<f64>> = vec![Vec::new(); wl.tenants.len()];
    let (mut round_steal, mut round_s) = (Vec::new(), Vec::new());
    {
        let mut c = load::connect(srv.addr)?;
        for _ in 0..COLD_ROUNDS {
            let (t0, steal0) = (Instant::now(), load::steal_s());
            for (ti, t) in wl.tenants.iter().enumerate() {
                c.set_collection(None);
                c.detach_collection(t.name)
                    .map_err(|e| format!("detach {}: {e}", t.name))?;
                c.attach_collection(t.name)
                    .map_err(|e| format!("attach {}: {e}", t.name))?;
                let _span = spans.start("cold_load", "run");
                let first = first_answer(&mut c, &wl, ti, &mut side, bloom_fn_fatal)?;
                cold_ms[ti].push(first.as_secs_f64() * 1e3);
            }
            round_steal.push(load::steal_s() - steal0);
            round_s.push(t0.elapsed().as_secs_f64());
            std::thread::sleep(COLD_SPACING);
        }
    }
    let cold_keep = load::least_stolen(&round_steal, &round_s);
    let cold_kept: Vec<Vec<f64>> = cold_ms
        .iter()
        .map(|v| {
            v.iter()
                .zip(&cold_keep)
                .filter(|(_, &k)| k)
                .map(|(&ms, _)| ms)
                .collect()
        })
        .collect();
    let cold_load_ms = util::mean(&cold_kept.iter().map(|v| median(v)).collect::<Vec<_>>());

    let live: LiveSets = wl.tenants.iter().map(|_| Mutex::new(Vec::new())).collect();
    let mut writer = Writer::default();
    let slow = Mutex::new(HashMap::new());
    let warm = Duration::from_secs_f64((a.seconds * 0.1).clamp(0.5, 2.0));
    // A traced run measures an untraced and a traced phase; each gets half
    // the run length so the run takes about as long as an untraced one.
    let timed = Duration::from_secs_f64(if a.trace { a.seconds / 2.0 } else { a.seconds });
    let warmup = PhaseCtl {
        spans: &spans,
        parent: "warmup",
        trace: false,
        slow: &slow,
        bloom_fn_fatal,
    };

    // Timed phase, tracing off. The warm-up's answers are checked like any
    // other; only its latencies are left out.
    let (warm_r, warm_w, _) = phase(srv.addr, &wl, &live, &mut writer, warm, &warmup)?;
    tally.reads(&warm_r);
    tally.writes(&warm_w);
    let before_a = scrape(srv.addr)?;
    let timed_span = spans.start("timed", "run");
    let plain = PhaseCtl {
        parent: "timed",
        ..warmup
    };
    let (reads, writes, steal) = phase(srv.addr, &wl, &live, &mut writer, timed, &plain)?;
    drop(timed_span);
    tally.reads(&reads);
    tally.writes(&writes);
    let after_a = scrape(srv.addr)?;
    let compactions = after_a.minus(before_a).compactions;
    if a.kind == Kind::Ingest && compactions < MIN_COMPACTIONS {
        tally.fatal.push(format!(
            "{compactions} compactions completed in the timed phase, fewer than {MIN_COMPACTIONS}"
        ));
    }
    let rss_mb = srv.peak_rss_mb();
    let mut fpr = Vec::new();
    {
        let mut c = load::connect(srv.addr)?;
        for (ti, t) in wl.tenants.iter().enumerate() {
            if t.task == setlearn::wire::WireTask::Bloom {
                fpr.push(load::bloom_fpr(&mut c, &wl, ti)?);
            }
        }
    }

    let mut details: Vec<(&str, Value)> = Vec::new();
    if a.kind == Kind::Ingest {
        let (restarted, d) = durability(srv, &spec, &wl, &writer, a.trace, &mut tally, &mut side)?;
        srv = restarted;
        details.push(("durability", d));
    } else if a.trace {
        srv.kill9();
        srv = Server::start(&spec, true, "traced")?;
        let mut c = load::connect(srv.addr)?;
        for ti in 0..wl.tenants.len() {
            first_answer(&mut c, &wl, ti, &mut side, bloom_fn_fatal)?;
        }
    }

    let mut layer: Layers = Layers::new();
    if a.trace {
        let warmup = PhaseCtl {
            trace: true,
            ..warmup
        };
        let (warm_r, warm_w, _) = phase(srv.addr, &wl, &live, &mut writer, warm, &warmup)?;
        tally.reads(&warm_r);
        tally.writes(&warm_w);
        slow.lock().unwrap().clear();
        let before_b = scrape(srv.addr)?;
        let traced_span = spans.start("traced", "run");
        let traced = PhaseCtl {
            parent: "traced",
            ..warmup
        };
        let (reads_b, writes_b, _) = phase(srv.addr, &wl, &live, &mut writer, timed, &traced)?;
        drop(traced_span);
        tally.reads(&reads_b);
        tally.writes(&writes_b);
        let b = scrape(srv.addr)?.minus(before_b);
        layers::stage_layers(&reads_b.traced, &slow.lock().unwrap(), &mut layer);
        let (qps_a, qps_b) = (reads.qps(), reads_b.qps());
        let all = |r: &ReadStats| r.lat_ns.iter().flatten().copied().collect::<Vec<u64>>();
        layer.insert("trace.overhead_pct", (qps_a / qps_b - 1.0) * 100.0);
        layer.insert(
            "trace.p50_overhead_pct",
            (us(&all(&reads_b), 0.5) / us(&all(&reads), 0.5) - 1.0) * 100.0,
        );
        // Lifetime counters of the untraced server: set-up, cold loads and
        // the timed phase.
        layer.insert("registry.loads", after_a.loads);
        layer.insert("registry.evictions", after_a.evictions);
        layer.insert("compact.count", after_a.compactions);
        layer.insert("compact.pending_ops_max", writes_b.pending_max as f64);
        layer.insert(
            "runtime.batch_size_mean",
            b.batch_sum / b.batch_count.max(1.0),
        );
        layer.insert("runtime.shed", b.shed + after_a.minus(before_a).shed);
        layer.insert(
            "net.bytes_per_query",
            b.bytes / reads_b.queries.max(1) as f64,
        );
        layer.insert("train.s", train.iter().sum());
        // Each workload's reason, checked on the stage shares: a point frame
        // mostly waits for the micro-batch window; a bulk frame mostly
        // computes (its queue wait is time behind the same frame's earlier
        // batches, so it is compared through the window, not the queue).
        let (wait, window, infer) = (
            layer["stage.wait_share"],
            layer["stage.batch_wait_share"],
            layer["stage.inference_share"],
        );
        let claim = match a.kind {
            Kind::Point => Some((
                wait > infer && window > infer,
                "queue wait and the batch window each exceed inference in a point frame",
            )),
            Kind::Bulk => Some((
                infer > window,
                "inference exceeds the batch window in a bulk frame",
            )),
            Kind::Ingest => None,
        };
        if let Some((holds, claim)) = claim {
            details.push((
                "stage_claim",
                obj(vec![
                    ("claim", claim.serialize()),
                    ("holds", holds.serialize()),
                ]),
            ));
        }
    }
    srv.kill9();
    if a.trace {
        spans.time(layers::REPLAY, "run", || {
            layers::replay(&wl, &root, &a.work, &spans, &mut layer)
        })?;
    }
    drop(run_span);

    tally.reads(&side);
    let Tally {
        attempted,
        failed,
        fatal,
        bloom_present,
        bloom_missed,
    } = tally;
    let lat = |task, p| reads.latency_us(&wl, task, p);
    let e2e: Vec<(&str, &str, f64)> = vec![
        ("setup_s", "s", median(&setup_s)),
        ("card_p50_us", "us", lat(Cardinality, 0.5)),
        ("index_p50_us", "us", lat(Index, 0.5)),
        ("bloom_p50_us", "us", lat(Bloom, 0.5)),
        ("rss_mb", "MB", rss_mb),
        (
            "ok_frac",
            "fraction",
            1.0 - failed as f64 / attempted.max(1) as f64,
        ),
        (
            "bloom_recall",
            "fraction",
            1.0 - bloom_missed as f64 / bloom_present.max(1) as f64,
        ),
        ("card_qerror_p50", "ratio", median(&reads.qerrors)),
    ];
    let samples = obj(vec![
        ("card_frames", reads.frames(&wl, Cardinality).serialize()),
        ("index_frames", reads.frames(&wl, Index).serialize()),
        ("bloom_frames", reads.frames(&wl, Bloom).serialize()),
        ("writes", writes.lat_ns.len().serialize()),
        (
            "cold_loads",
            cold_kept.iter().map(Vec::len).sum::<usize>().serialize(),
        ),
        ("setups", setup_s.len().serialize()),
        ("card_answers", reads.qerrors.len().serialize()),
        ("bloom_absent", reads.bloom_absent.serialize()),
        ("bloom_absent_positive", reads.bloom_fp.serialize()),
        ("bloom_present", bloom_present.serialize()),
        ("bloom_present_missed", bloom_missed.serialize()),
        ("fpr_probe_sets", wl.fpr_probe.len().serialize()),
        ("pool_index_lookups", reads.pool_index.serialize()),
        ("pool_index_exact", reads.pool_index_exact.serialize()),
        ("checked_outside_phases", side.queries.serialize()),
    ]);
    let metrics_json = |items: &[(&str, &str, f64)]| {
        obj(items
            .iter()
            .map(|&(name, unit, v)| {
                let m = obj(vec![("value", v.serialize()), ("unit", unit.serialize())]);
                (name, m)
            })
            .collect())
    };
    // End-to-end figures that move with how busy the host is far more than
    // a bound allows (see README.md): measured on every run, reported per
    // layer by the traced run, never bounded. Point and bulk write nothing:
    // their write figures read 0.
    let write_us = |p| {
        if writes.lat_ns.is_empty() {
            0.0
        } else {
            writes.latency_us(p)
        }
    };
    let unbounded: Vec<(&'static str, f64)> = vec![
        ("qps", reads.qps()),
        ("card_p90_us", lat(Cardinality, 0.9)),
        ("index_p90_us", lat(Index, 0.9)),
        ("bloom_p90_us", lat(Bloom, 0.9)),
        ("card_p99_us", lat(Cardinality, 0.99)),
        ("index_p99_us", lat(Index, 0.99)),
        ("bloom_p99_us", lat(Bloom, 0.99)),
        ("write_p50_us", write_us(0.5)),
        ("write_p99_us", write_us(0.99)),
        ("cold_load_ms", cold_load_ms),
        ("bloom_fpr", util::mean(&fpr)),
        ("failed_frac", failed as f64 / attempted.max(1) as f64),
    ];
    if a.trace {
        layer.extend(unbounded.iter().copied());
    }
    let layer_items: Vec<(&str, &str, f64)> =
        layer.iter().map(|(k, v)| (*k, layer_unit(k), *v)).collect();
    let reported = if a.trace { &layer_items } else { &e2e };
    let correct =
        fatal.is_empty() && attempted > 0 && reported.iter().all(|(_, _, v)| v.is_finite());
    let result = ResultLine {
        correct,
        attempted,
        failed,
        metrics: metrics_json(reported),
    };

    let per_tenant = |values: &[f64]| {
        obj(wl
            .tenants
            .iter()
            .zip(values)
            .map(|(t, v)| (t.name, v.serialize()))
            .collect())
    };
    let cold_min: Vec<f64> = cold_kept
        .iter()
        .map(|v| v.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let cold_each: Vec<f64> = cold_kept.iter().map(|v| median(v)).collect();
    details.extend([
        ("samples", samples),
        (
            "unbounded",
            obj(unbounded
                .iter()
                .map(|&(name, v)| (name, v.serialize()))
                .chain([("cold_load_min_ms", util::mean(&cold_min).serialize())])
                .collect()),
        ),
        ("setup_s_each", setup_s.serialize()),
        ("train_s_each", per_tenant(&train)),
        // CPU time the hypervisor gave to other guests during the timed
        // phase: a run with much of it measured a busy host, not the program.
        ("host_steal_s_timed_phase", steal.to_vec().serialize()),
        (
            "windows_kept",
            reads.keep.iter().filter(|&&k| k).count().serialize(),
        ),
        ("cold_load_ms_each", per_tenant(&cold_each)),
        ("cold_rounds_steal_s", round_steal.serialize()),
        (
            "cold_rounds_kept",
            cold_keep.iter().filter(|&&k| k).count().serialize(),
        ),
        ("compactions_timed_phase", compactions.serialize()),
        (
            "write_late_max_us",
            (writes.max_late_ns as f64 / 1e3).serialize(),
        ),
        (
            "write_late_mean_us",
            (writes.total_late_ns as f64 / 1e3 / writes.attempted.max(1) as f64).serialize(),
        ),
        ("spans_dropped", spans.dropped().serialize()),
        ("fatal", fatal.serialize()),
    ]);
    let record = Record {
        workload: a.kind.name().to_string(),
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        host: host_info(),
        wall_s: wall.elapsed().as_secs_f64(),
        correct,
        attempted,
        failed,
        end_to_end: metrics_json(&e2e),
        per_layer: metrics_json(&layer_items),
        details: obj(details),
    };
    let stem = format!("{}-s{}-t{}", a.kind.name(), a.seed, u8::from(a.trace));
    std::fs::write(
        a.results.join(format!("{stem}.json")),
        serde_json::to_string(&record).map_err(|e| e.to_string())? + "\n",
    )
    .map_err(|e| e.to_string())?;
    if a.trace {
        std::fs::write(
            a.results.join(format!("{stem}.spans.jsonl")),
            spans.to_jsonl(),
        )
        .map_err(|e| e.to_string())?;
    }
    for f in &fatal {
        eprintln!("perfbench: check failed: {f}");
    }
    serde_json::to_string(&result).map_err(|e| e.to_string())
}

/// Unit of a per-layer metric, from its name's suffix.
fn layer_unit(name: &str) -> &'static str {
    let suffixes: [(&str, &str); 11] = [
        ("ns_per_query", "ns"),
        ("_ns", "ns"),
        ("_us", "us"),
        ("_ms", "ms"),
        ("_pct", "%"),
        ("_share", "fraction"),
        ("_frac", "fraction"),
        ("_fpr", "fraction"),
        ("_bytes", "bytes"),
        (".s", "s"),
        ("_s", "s"),
    ];
    for (suffix, unit) in suffixes {
        if name.ends_with(suffix) {
            return unit;
        }
    }
    match name {
        "kernel.flops_per_query" => "flop",
        "qps" => "1/s",
        "net.bytes_per_query" => "bytes",
        "runtime.batch_size_mean" => "queries",
        "hybrid.index_rows_scanned" => "rows",
        _ => "count",
    }
}
