//! The client side: closed-loop read connections, the open-loop writer, and
//! the per-answer oracle check.

use setlearn::wire::{QueryRequest, QueryValue, WireTask};
use setlearn_data::is_subset;
use setlearn_obs::SlowQueryRecord;
use setlearn_serve::proto::CollectionInfo;
use setlearn_serve::{NetClient, StatsFormat, WireOutcome};
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::inputs::{Query, Truth, Workload, LIVE_WINDOW, WRITE_RATE};
use crate::util::{mean, median, quantile, Spans};

/// Sets each write target currently holds live (acked inserts not yet
/// deleted), indexed by tenant; the reader's count oracle adds them.
pub type LiveSets = Vec<Mutex<Vec<Vec<u32>>>>;

pub fn connect(addr: SocketAddr) -> Result<NetClient, String> {
    NetClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// Sub-windows of a timed phase. Latency percentiles and throughput are
/// taken per window and reported as the median over windows, so a burst of
/// interference from outside the benchmark moves one window, not the run.
pub const WINDOWS: usize = 20;
/// A window in which the hypervisor ran other guests on our CPUs for more
/// than this share of the window measured a busy host, not the program; it
/// is left out while at least half the windows remain.
const STEAL_LIMIT: f64 = 0.02;

/// Seconds of CPU steal on this host so far (all CPUs), from `/proc/stat`.
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let steal: f64 = stat
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    steal / 100.0
}

/// Runs `f` while sampling CPU steal, and returns its result with the
/// steal (seconds) of each of the `WINDOWS` windows of `start..start + length`.
pub fn with_steal<T>(
    start: Instant,
    length: Duration,
    f: impl FnOnce() -> T,
) -> (T, [f64; WINDOWS]) {
    let stop = std::sync::atomic::AtomicBool::new(false);
    let (out, samples) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut samples = vec![(Duration::ZERO, steal_s())];
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(20));
                samples.push((start.elapsed(), steal_s()));
            }
            samples
        });
        let out = f();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        (out, sampler.join().expect("steal sampler does not panic"))
    });
    let at = |t: Duration| {
        samples
            .iter()
            .take_while(|(ts, _)| *ts <= t)
            .last()
            .map_or(samples[0].1, |s| s.1)
    };
    let mut steal = [0.0; WINDOWS];
    for (w, slot) in steal.iter_mut().enumerate() {
        *slot =
            at(length * (w as u32 + 1) / WINDOWS as u32) - at(length * w as u32 / WINDOWS as u32);
    }
    (out, steal)
}

/// Which windows to report: those under the steal limit, or the least
/// stolen half when fewer remain.
pub fn clean_windows(steal: &[f64; WINDOWS], window_s: f64) -> [bool; WINDOWS] {
    let keep = least_stolen(steal, &[window_s; WINDOWS]);
    keep.try_into().expect("one flag per window")
}

/// Which of several measured intervals to keep, given the CPU steal
/// (seconds) and the length (seconds) of each: those in which the host took
/// at most `STEAL_LIMIT` of this VM's CPU time, or the least stolen half
/// when fewer remain.
pub fn least_stolen(steal: &[f64], length_s: &[f64]) -> Vec<bool> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let share: Vec<f64> = steal
        .iter()
        .zip(length_s)
        .map(|(s, l)| s / (l * cpus).max(1e-9))
        .collect();
    let mut keep: Vec<bool> = share.iter().map(|&s| s <= STEAL_LIMIT).collect();
    let half = steal.len().div_ceil(2);
    if keep.iter().filter(|&&k| k).count() < half {
        let mut order: Vec<usize> = (0..steal.len()).collect();
        order.sort_by(|&a, &b| share[a].total_cmp(&share[b]));
        keep = vec![false; steal.len()];
        for &i in &order[..half] {
            keep[i] = true;
        }
    }
    keep
}

/// What one or more read connections saw.
#[derive(Debug, Default)]
pub struct ReadStats {
    /// Frame round trips in nanoseconds, per tenant.
    pub lat_ns: Vec<Vec<u64>>,
    /// Window of each `lat_ns` sample.
    pub lat_win: Vec<Vec<u8>>,
    /// Queries answered per window.
    pub win_queries: [u64; WINDOWS],
    pub window_s: f64,
    /// Windows the metrics are taken over (see `clean_windows`).
    pub keep: [bool; WINDOWS],
    pub queries: u64,
    /// Queries refused, errored or answered wrongly.
    pub failed: u64,
    /// Violations of a guarantee that fail the run.
    pub fatal: Vec<String>,
    /// Cardinality q-errors against the exact live count.
    pub qerrors: Vec<f64>,
    pub bloom_absent: u64,
    pub bloom_fp: u64,
    /// Bloom answers on sets that are members, and how many read "absent".
    pub bloom_present: u64,
    pub bloom_missed: u64,
    pub pool_index: u64,
    pub pool_index_exact: u64,
    /// Traced frames: trace id → tenant index.
    pub traced: HashMap<u64, usize>,
}

impl ReadStats {
    /// Read latency of a task in microseconds: for each of its tenants the
    /// median over windows of the per-window `p`-quantile, averaged over
    /// the tenants. Tenants of one task can differ several-fold (a q8 and a
    /// sharded model on `bulk`); a quantile of their pooled frames would sit
    /// between the two and jump with the mix.
    pub fn latency_us(&self, wl: &Workload, task: WireTask, p: f64) -> f64 {
        let per_tenant: Vec<f64> = wl
            .tenants
            .iter()
            .enumerate()
            .filter(|(ti, t)| t.task == task && *ti < self.lat_ns.len())
            .map(|(ti, _)| windowed_quantile(&self.lat_ns[ti], &self.lat_win[ti], p, &self.keep))
            .collect();
        if per_tenant.is_empty() {
            f64::NAN
        } else {
            mean(&per_tenant)
        }
    }

    /// Frames sent to the tenants of a task.
    pub fn frames(&self, wl: &Workload, task: WireTask) -> usize {
        self.lat_ns
            .iter()
            .zip(&wl.tenants)
            .filter(|(_, t)| t.task == task)
            .map(|(l, _)| l.len())
            .sum()
    }

    /// Median over windows of queries answered per second.
    pub fn qps(&self) -> f64 {
        let per_window: Vec<f64> = (0..WINDOWS)
            .filter(|&w| self.keep[w])
            .map(|w| self.win_queries[w] as f64 / self.window_s)
            .collect();
        median(&per_window)
    }

    pub fn merge(&mut self, other: ReadStats) {
        let n = self.lat_ns.len().max(other.lat_ns.len());
        self.lat_ns.resize(n, Vec::new());
        self.lat_win.resize(n, Vec::new());
        for (a, b) in self.lat_ns.iter_mut().zip(other.lat_ns) {
            a.extend(b);
        }
        for (a, b) in self.lat_win.iter_mut().zip(other.lat_win) {
            a.extend(b);
        }
        for (a, b) in self.win_queries.iter_mut().zip(other.win_queries) {
            *a += b;
        }
        self.window_s = other.window_s;
        self.queries += other.queries;
        self.failed += other.failed;
        self.fatal.extend(other.fatal);
        self.qerrors.extend(other.qerrors);
        self.bloom_absent += other.bloom_absent;
        self.bloom_fp += other.bloom_fp;
        self.bloom_present += other.bloom_present;
        self.bloom_missed += other.bloom_missed;
        self.pool_index += other.pool_index;
        self.pool_index_exact += other.pool_index_exact;
        self.traced.extend(other.traced);
    }

    fn fatal(&mut self, msg: String) {
        if self.fatal.len() < 20 {
            self.fatal.push(msg);
        }
    }
}

/// Settings shared by a phase's readers and writer.
pub struct PhaseCtl<'a> {
    pub spans: &'a Spans,
    /// Name of the phase's span, the parent of every call's span.
    pub parent: &'a str,
    /// Send trace ids and collect the server's per-frame stage records;
    /// the writer polls the compaction backlog.
    pub trace: bool,
    pub slow: &'a Mutex<HashMap<u64, SlowQueryRecord>>,
    /// A Bloom false negative on a trained positive fails the run. Off where
    /// compaction retrains the filter on a new sample (ingest): the filter
    /// then backs up only that sample's misses, so a miss on an earlier
    /// positive is within its guarantee and counts in `bloom_missed` only.
    pub bloom_fn_fatal: bool,
}

/// Checks one answer against the oracle, counting failures and accuracy.
fn check(
    q: &Query,
    outcome: &WireOutcome,
    live: Option<&Mutex<Vec<Vec<u32>>>>,
    st: &mut ReadStats,
    bloom_fn_fatal: bool,
) {
    let resp = match outcome {
        Ok(r) => r,
        Err(_) => {
            st.failed += 1;
            return;
        }
    };
    match (resp.value, q.truth) {
        (QueryValue::Cardinality(est), Truth::Count(base)) => {
            let added = live.map_or(0, |l| {
                l.lock()
                    .unwrap()
                    .iter()
                    .filter(|s| is_subset(&q.elems, s))
                    .count() as u64
            });
            if !est.is_finite() {
                st.failed += 1;
                return;
            }
            let truth = (base + added).max(1) as f64;
            let est = est.max(1.0);
            st.qerrors.push((est / truth).max(truth / est));
        }
        (QueryValue::Position(got), Truth::Pos(want)) => {
            let got = got.map(|p| p as u32);
            if q.pooled {
                st.pool_index += 1;
            }
            if got == want {
                st.pool_index_exact += u64::from(q.pooled);
            } else {
                st.failed += 1;
                if q.pooled {
                    st.fatal(format!(
                        "index answered {got:?} for pool query {:?}, exact {want:?}",
                        q.elems
                    ));
                }
            }
        }
        (QueryValue::Membership(got), Truth::Member(true)) => {
            st.bloom_present += 1;
            if !got {
                st.bloom_missed += 1;
                if bloom_fn_fatal {
                    st.failed += 1;
                    st.fatal(format!(
                        "bloom false negative on trained positive {:?}",
                        q.elems
                    ));
                }
            }
        }
        (QueryValue::Membership(got), Truth::Member(false)) => {
            st.bloom_absent += 1;
            st.bloom_fp += u64::from(got);
        }
        (value, truth) => {
            st.failed += 1;
            st.fatal(format!(
                "answer {value:?} has the wrong task for oracle {truth:?}"
            ));
        }
    }
}

/// Even, nonzero, unique per connection and frame: server-minted ids are odd.
fn trace_id(conn: usize, frame: u64) -> u64 {
    (((conn as u64) << 40) | (frame + 1)) * 2
}

/// Fetches the slow-query ring and keeps the records of this benchmark's
/// traced frames (the ring holds 256, so callers fetch often).
fn collect_slow(
    client: &mut NetClient,
    slow: &Mutex<HashMap<u64, SlowQueryRecord>>,
) -> Result<(), String> {
    client.set_collection(None);
    let text = client
        .stats(StatsFormat::SlowQueries)
        .map_err(|e| format!("slow-query fetch: {e}"))?;
    let records = setlearn_obs::parse_slow_jsonl(&text)?;
    let mut map = slow.lock().unwrap();
    for r in records {
        if r.trace_id % 2 == 0 {
            map.insert(r.trace_id, r);
        }
    }
    Ok(())
}

/// One closed-loop read connection: sends the next frame as soon as the
/// previous answer arrives, until `until`.
pub fn read_loop(
    addr: SocketAddr,
    wl: &Workload,
    live: &LiveSets,
    conn: usize,
    start: Instant,
    until: Instant,
    ctl: &PhaseCtl,
) -> Result<ReadStats, String> {
    let mut client = connect(addr)?;
    let mut st = ReadStats {
        lat_ns: vec![Vec::new(); wl.tenants.len()],
        lat_win: vec![Vec::new(); wl.tenants.len()],
        ..ReadStats::default()
    };
    let length = until
        .saturating_duration_since(start)
        .as_secs_f64()
        .max(1e-9);
    st.window_s = length / WINDOWS as f64;
    let mut cursors: Vec<usize> = wl.tenants.iter().map(|_| conn * 997).collect();
    let mut k: u64 = 0;
    let mut since_fetch = 0;
    while Instant::now() < until {
        let ti = wl.rotation[(k as usize + conn) % wl.rotation.len()];
        let tenant = &wl.tenants[ti];
        let n = tenant.queries.len();
        let batch: Vec<&Query> = (0..wl.frame)
            .map(|j| &tenant.queries[(cursors[ti] + j) % n])
            .collect();
        cursors[ti] = (cursors[ti] + wl.frame) % n;
        let requests: Vec<QueryRequest> = batch
            .iter()
            .map(|q| QueryRequest::new(q.elems.clone()))
            .collect();
        client.set_collection(Some(tenant.name.to_string()));
        let id = ctl.trace.then(|| trace_id(conn, k));
        let mut span = ctl.spans.start(tenant.name, ctl.parent);
        let t0 = Instant::now();
        let result = client.query_batch_traced(tenant.task, &requests, id);
        let dt = t0.elapsed().as_nanos() as u64;
        if let (Some(span), Some(id)) = (span.as_mut(), id) {
            span.field_num("trace_id", id as f64);
        }
        drop(span);
        k += 1;
        st.queries += wl.frame as u64;
        let window = ((t0 - start).as_secs_f64() / length * WINDOWS as f64) as usize;
        let window = window.min(WINDOWS - 1);
        st.lat_ns[ti].push(dt);
        st.lat_win[ti].push(window as u8);
        st.win_queries[window] += wl.frame as u64;
        match result {
            Ok(outcomes) => {
                let live = tenant.wal.then(|| &live[ti]);
                for (q, o) in batch.iter().zip(&outcomes) {
                    check(q, o, live, &mut st, ctl.bloom_fn_fatal);
                }
            }
            Err(e) => {
                st.failed += wl.frame as u64;
                st.fatal(format!("frame to {} failed: {e}", tenant.name));
                client = connect(addr)?;
            }
        }
        if let Some(id) = id {
            st.traced.insert(id, ti);
            since_fetch += 1;
            // Two connections share the 256-record ring.
            if since_fetch >= 96 {
                since_fetch = 0;
                collect_slow(&mut client, ctl.slow)?;
            }
        }
    }
    if ctl.trace {
        collect_slow(&mut client, ctl.slow)?;
    }
    Ok(st)
}

/// Runs the workload's read connections in parallel until `until`.
pub fn read_phase(
    addr: SocketAddr,
    wl: &Workload,
    live: &LiveSets,
    start: Instant,
    until: Instant,
    ctl: &PhaseCtl,
) -> Result<ReadStats, String> {
    let results: Vec<Result<ReadStats, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..wl.read_conns)
            .map(|c| s.spawn(move || read_loop(addr, wl, live, c, start, until, ctl)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("reader panicked".into())))
            .collect()
    });
    let mut total = ReadStats {
        keep: [true; WINDOWS],
        ..ReadStats::default()
    };
    for r in results {
        total.merge(r?);
    }
    Ok(total)
}

/// One acknowledged write.
#[derive(Debug, Clone)]
pub struct Acked {
    pub delete: bool,
    pub set: Vec<u32>,
}

/// The writer's state, kept across phases so the stream continues.
#[derive(Debug, Default)]
pub struct Writer {
    next_insert: usize,
    /// Live inserts per write target, oldest first.
    window: HashMap<usize, VecDeque<Vec<u32>>>,
    /// Every acked op per write target, in ack order.
    pub acked: HashMap<usize, Vec<Acked>>,
}

impl Writer {
    /// Live inserts (acked, not deleted) of one target.
    pub fn live(&self, tenant: usize) -> Vec<Vec<u32>> {
        self.window
            .get(&tenant)
            .map(|w| w.iter().cloned().collect())
            .unwrap_or_default()
    }
}

#[derive(Debug)]
pub struct WriteStats {
    /// Due time → ack, nanoseconds.
    pub lat_ns: Vec<u64>,
    /// Window of each `lat_ns` sample (by due time).
    pub lat_win: Vec<u8>,
    /// Windows the metrics are taken over (see `clean_windows`).
    pub keep: [bool; WINDOWS],
    /// How late the generator sent, at worst and in total (nanoseconds).
    pub max_late_ns: u64,
    pub total_late_ns: u64,
    pub attempted: u64,
    pub failed: u64,
    pub fatal: Vec<String>,
    /// Largest pending-op count seen while polling the collection list.
    pub pending_max: u64,
}

impl Default for WriteStats {
    fn default() -> Self {
        WriteStats {
            lat_ns: Vec::new(),
            lat_win: Vec::new(),
            keep: [true; WINDOWS],
            max_late_ns: 0,
            total_late_ns: 0,
            attempted: 0,
            failed: 0,
            fatal: Vec::new(),
            pending_max: 0,
        }
    }
}

/// The open-loop writer: op `k` is due at `start + k / rate` whatever the
/// server is doing, and its latency runs from that due time to the ack.
/// Targets take turns; each keeps `LIVE_WINDOW` inserts live by deleting
/// its oldest insert once the window is full.
pub fn write_loop(
    addr: SocketAddr,
    wl: &Workload,
    writer: &mut Writer,
    live: &LiveSets,
    until: Instant,
    ctl: &PhaseCtl,
) -> Result<WriteStats, String> {
    let mut client = connect(addr)?;
    let mut st = WriteStats::default();
    let start = Instant::now();
    let period = Duration::from_secs_f64(1.0 / WRITE_RATE);
    let mut last_poll = start;
    let mut k: u32 = 0;
    let length = until
        .saturating_duration_since(start)
        .as_secs_f64()
        .max(1e-9);
    loop {
        let due = start + period * k;
        let slot =
            (((due - start).as_secs_f64() / length * WINDOWS as f64) as usize).min(WINDOWS - 1);
        if due >= until {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        } else {
            let late = (now - due).as_nanos() as u64;
            st.max_late_ns = st.max_late_ns.max(late);
            st.total_late_ns += late;
        }
        let ti = wl.write_targets[k as usize % wl.write_targets.len()];
        k += 1;
        let tenant = &wl.tenants[ti];
        let window = writer.window.entry(ti).or_default();
        let delete = window.len() >= LIVE_WINDOW;
        let set = if delete {
            window.pop_front().expect("window is full")
        } else {
            let s = wl.inserts[writer.next_insert % wl.inserts.len()].clone();
            writer.next_insert += 1;
            s
        };
        client.set_collection(Some(tenant.name.to_string()));
        st.attempted += 1;
        let name = if delete { "delete" } else { "insert" };
        let span = ctl.spans.start(name, ctl.parent);
        let result = if delete {
            client.delete(set.clone())
        } else {
            client.insert(set.clone())
        };
        let lat = due.elapsed().as_nanos() as u64;
        drop(span);
        match result {
            Ok(ack) => {
                st.lat_ns.push(lat);
                st.lat_win.push(slot as u8);
                if !ack.applied {
                    st.failed += 1;
                    st.fatal.push(format!(
                        "{name} of {set:?} on {} acked as not applied",
                        tenant.name
                    ));
                }
                let mut shared = live[ti].lock().unwrap();
                if delete {
                    if let Some(pos) = shared.iter().position(|s| *s == set) {
                        shared.swap_remove(pos);
                    }
                } else {
                    shared.push(set.clone());
                    window.push_back(set.clone());
                }
                writer
                    .acked
                    .entry(ti)
                    .or_default()
                    .push(Acked { delete, set });
            }
            Err(e) => {
                // An unacked insert never became live; an unacked delete
                // keeps its set out of the window (its fate is unknown).
                st.failed += 1;
                if st.fatal.len() < 20 {
                    st.fatal
                        .push(format!("write to {} failed: {e}", tenant.name));
                }
                client = connect(addr)?;
            }
        }
        // The traced run polls the compaction backlog.
        if ctl.trace && last_poll.elapsed() >= Duration::from_millis(250) {
            last_poll = Instant::now();
            st.pending_max = st.pending_max.max(
                pending_of(&mut client, wl)?
                    .values()
                    .copied()
                    .max()
                    .unwrap_or(0),
            );
        }
    }
    Ok(st)
}

impl WriteStats {
    /// Median over windows of the per-window `p`-quantile, microseconds.
    pub fn latency_us(&self, p: f64) -> f64 {
        windowed_quantile(&self.lat_ns, &self.lat_win, p, &self.keep)
    }
}

/// Median over windows of each window's `p`-quantile, in microseconds.
fn windowed_quantile(ns: &[u64], win: &[u8], p: f64, keep: &[bool; WINDOWS]) -> f64 {
    let per_window: Vec<f64> = (0..WINDOWS)
        .filter(|&w| keep[w])
        .filter_map(|w| {
            let mut v: Vec<f64> = ns
                .iter()
                .zip(win)
                .filter(|(_, &x)| x as usize == w)
                .map(|(&n, _)| n as f64 / 1e3)
                .collect();
            (!v.is_empty()).then(|| quantile(&mut v, p))
        })
        .collect();
    median(&per_window)
}

/// Pending (uncompacted) WAL ops of every resident write target.
pub fn pending_of(client: &mut NetClient, wl: &Workload) -> Result<HashMap<usize, u64>, String> {
    client.set_collection(None);
    let rows: Vec<CollectionInfo> = client
        .collections()
        .map_err(|e| format!("collections: {e}"))?;
    Ok(wl
        .write_targets
        .iter()
        .filter_map(|&ti| {
            rows.iter()
                .find(|r| r.name == wl.tenants[ti].name)
                .map(|r| (ti, r.pending_ops))
        })
        .collect())
}

/// False-positive rate of a Bloom tenant on the workload's absent sets, sent
/// in 256-query frames outside the timed phase.
pub fn bloom_fpr(client: &mut NetClient, wl: &Workload, ti: usize) -> Result<f64, String> {
    let tenant = &wl.tenants[ti];
    client.set_collection(Some(tenant.name.to_string()));
    let mut positive = 0usize;
    for chunk in wl.fpr_probe.chunks(256) {
        let reqs: Vec<QueryRequest> = chunk.iter().map(|s| QueryRequest::new(s.clone())).collect();
        let out = client
            .query_batch(tenant.task, &reqs)
            .map_err(|e| format!("fpr probe: {e}"))?;
        for o in out {
            match o {
                Ok(r) => positive += usize::from(r.value == QueryValue::Membership(true)),
                Err(code) => return Err(format!("fpr probe refused: {code}")),
            }
        }
    }
    Ok(positive as f64 / wl.fpr_probe.len().max(1) as f64)
}

/// Sends one query to a tenant, retrying while it loads; returns the time
/// to the first answer. The answer is checked into `st`.
pub fn first_answer(
    client: &mut NetClient,
    wl: &Workload,
    ti: usize,
    st: &mut ReadStats,
    bloom_fn_fatal: bool,
) -> Result<Duration, String> {
    let tenant = &wl.tenants[ti];
    let query = &tenant.queries[0];
    let q = QueryRequest::new(query.elems.clone());
    client.set_collection(Some(tenant.name.to_string()));
    let t0 = Instant::now();
    loop {
        match client.query_batch(tenant.task, std::slice::from_ref(&q)) {
            Ok(out) if out.iter().all(|o| o.is_ok()) => {
                let elapsed = t0.elapsed();
                st.queries += 1;
                // The count oracle here is the base collection's (acked
                // inserts are not added): a cardinality answer only adds a
                // q-error, which no metric takes from here.
                check(query, &out[0], None, st, bloom_fn_fatal);
                return Ok(elapsed);
            }
            Ok(_) | Err(_) if t0.elapsed() < Duration::from_secs(60) => {
                std::thread::sleep(Duration::from_micros(200));
            }
            Ok(out) => return Err(format!("{} answered {out:?}", tenant.name)),
            Err(e) => return Err(format!("{} did not answer: {e}", tenant.name)),
        }
    }
}
