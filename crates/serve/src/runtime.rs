//! The serving runtime: a worker pool draining the bounded request queue
//! with work-conserving micro-batching.
//!
//! ## Batching semantics
//!
//! Each worker blocks for the head of a new batch, takes whatever else is
//! already queued with one non-blocking drain (up to `max_batch` in all),
//! and serves at once. A worker never waits for company: a lone request is
//! served as a batch of 1 the moment it is dequeued. Batches still form
//! under load, because requests pile up while every worker is busy, and a
//! frame admitted with [`ServeRuntime::submit_many`] lands in one lock
//! acquisition, so the next drain takes up to `max_batch` of it.
//!
//! There is deliberately no window that holds a batch open for company.
//! Measured with `perfbench` on a 2-vCPU x86-64 host, a 200 µs top-up
//! window was ~78% of every 1-query request and still left the mean batch
//! at 1.1; without it the median `point` cardinality lookup fell from
//! 349 µs to 53 µs. With 256-query frames every drain is already a full
//! `max_batch`, so a window never fired there.
//!
//! ## Backpressure
//!
//! Admission control happens at [`ServeRuntime::submit`]: a full queue sheds
//! the request with [`ServeError::Overloaded`] instead of buffering without
//! bound, so memory stays bounded by `queue_capacity` and clients see
//! overload immediately rather than as unbounded latency.
//!
//! ## Shutdown
//!
//! [`ServeRuntime::shutdown`] closes the queue (new submissions fail with
//! [`ServeError::ShuttingDown`]), lets the workers drain every request
//! already admitted, then joins them — admitted requests are never dropped.

use crate::error::ServeError;
use crate::hotswap::HotSwap;
use crate::queue::{BoundedQueue, Pop};
use crate::request::RequestCtx;
use crate::task::ServeTask;
use crate::telemetry::RuntimeTele;
use setlearn_obs::Stage;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for a [`ServeRuntime`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads draining the queue.
    pub threads: usize,
    /// Maximum requests per batch (1 disables batching). A worker serves
    /// whatever is queued when it dequeues a batch head, up to this many;
    /// it never waits for a batch to fill.
    pub max_batch: usize,
    /// Bounded queue capacity; submissions beyond it are shed.
    pub queue_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 4,
            max_batch: 64,
            queue_capacity: 1024,
        }
    }
}

impl ServeConfig {
    /// Rejects degenerate configurations.
    pub fn validate(&self) -> Result<(), String> {
        if self.threads == 0 {
            return Err("threads must be positive".into());
        }
        if self.max_batch == 0 {
            return Err("max_batch must be positive".into());
        }
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be positive".into());
        }
        Ok(())
    }
}

/// The completion of one submitted frame — one
/// [`ServeRuntime::submit_many_traced`] call, or one
/// [`ServeRuntime::submit`]: one shared allocation holding every request's
/// result slot and a count of the slots still empty. Workers fill slots
/// (a whole batch's run of one frame under one lock), and waiters are woken
/// once, when the count reaches zero. A per-request rendezvous would instead
/// pay one allocation and, on every fill, one futex wake syscall — 256 per
/// 256-query frame — and wake the connection thread several times per
/// frame.
struct Frame<R> {
    state: Mutex<FrameState<R>>,
    done: Condvar,
}

struct FrameState<R> {
    slots: Vec<Option<Result<R, ServeError>>>,
    /// Slots not yet filled.
    pending: usize,
}

impl<R> Frame<R> {
    fn new(len: usize) -> Arc<Self> {
        let slots = std::iter::repeat_with(|| None).take(len).collect();
        let state = Mutex::new(FrameState { slots, pending: len });
        Arc::new(Frame { state, done: Condvar::new() })
    }

    fn lock(&self) -> MutexGuard<'_, FrameState<R>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Wakes the waiters if `filled` slots just brought `pending` to zero.
    fn finish(&self, mut state: MutexGuard<'_, FrameState<R>>, filled: usize) {
        state.pending -= filled;
        let complete = state.pending == 0;
        drop(state);
        if complete {
            self.done.notify_all();
        }
    }
}

/// The worker-side claim on one slot of a [`Frame`]. Every responder fills
/// its slot exactly once: by [`Responder::send_all`], or — if the envelope
/// is dropped unanswered (a worker died mid-batch, or admission shed it) —
/// by the drop guard with [`ServeError::WorkerLost`], so the frame always
/// completes and no waiter hangs.
struct Responder<R> {
    frame: Option<Arc<Frame<R>>>,
    index: usize,
}

impl<R> Responder<R> {
    /// Answers a batch in order. Consecutive responders of one frame fill
    /// under a single lock, and each frame's waiters are woken at most once.
    fn send_all(
        responders: Vec<Responder<R>>,
        results: impl IntoIterator<Item = Result<R, ServeError>>,
    ) {
        let mut pairs = responders.into_iter().zip(results).peekable();
        while let Some((mut responder, result)) = pairs.next() {
            let Some(frame) = responder.frame.take() else { continue };
            let mut state = frame.lock();
            state.slots[responder.index] = Some(result);
            let mut filled = 1;
            while let Some((mut next, result)) = pairs.next_if(|(next, _)| {
                next.frame.as_ref().is_some_and(|f| Arc::ptr_eq(f, &frame))
            }) {
                next.frame = None;
                state.slots[next.index] = Some(result);
                filled += 1;
            }
            frame.finish(state, filled);
        }
    }
}

impl<R> Drop for Responder<R> {
    fn drop(&mut self) {
        if let Some(frame) = self.frame.take() {
            let mut state = frame.lock();
            state.slots[self.index] = Some(Err(ServeError::WorkerLost));
            frame.finish(state, 1);
        }
    }
}

/// One queued request plus its response slot, admission timestamp, and
/// (for wire requests) its shared tracing context.
struct Envelope<T: ServeTask> {
    request: T::Request,
    enqueued: Instant,
    responder: Responder<T::Response>,
    ctx: Option<Arc<RequestCtx>>,
}

/// Handle to one in-flight request; redeem it with [`Ticket::wait`].
pub struct Ticket<R> {
    frame: Arc<Frame<R>>,
    index: usize,
}

impl<R> std::fmt::Debug for Ticket<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").field("index", &self.index).finish_non_exhaustive()
    }
}

impl<R> Ticket<R> {
    /// Blocks until the runtime answers (or fails) this request. Returns
    /// at once if the answer is already in; otherwise sleeps until the
    /// request's whole frame is answered.
    pub fn wait(self) -> Result<R, ServeError> {
        let mut state = self.frame.lock();
        loop {
            if let Some(result) = state.slots[self.index].take() {
                return result;
            }
            state = self.frame.done.wait(state).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Non-blocking poll; returns the ticket back while the answer is
    /// pending.
    pub fn try_wait(self) -> Result<Result<R, ServeError>, Ticket<R>> {
        let taken = self.frame.lock().slots[self.index].take();
        taken.ok_or(self)
    }
}

/// Runtime-local counters (distinct from the process-global metrics so
/// concurrent runtimes in one process don't blend).
#[derive(Debug, Default)]
pub struct ServeStats {
    submitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    batches: AtomicU64,
    panicked_batches: AtomicU64,
}

impl ServeStats {
    /// Requests admitted into the queue.
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Requests answered (successfully or with a task panic error).
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Requests refused at admission ([`ServeError::Overloaded`]).
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Batches executed.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Batches whose task panicked (caught; the batch failed with
    /// [`ServeError::TaskPanicked`]).
    pub fn panicked_batches(&self) -> u64 {
        self.panicked_batches.load(Ordering::Relaxed)
    }

    /// Mean requests per executed batch.
    pub fn mean_batch_size(&self) -> f64 {
        let batches = self.batches();
        if batches == 0 {
            return 0.0;
        }
        self.completed() as f64 / batches as f64
    }
}

/// Final accounting returned by [`ServeRuntime::shutdown`].
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Requests admitted.
    pub submitted: u64,
    /// Requests answered.
    pub completed: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Batches executed.
    pub batches: u64,
    /// Batches that panicked (caught).
    pub panicked_batches: u64,
    /// Model hot-swaps observed over the runtime's life.
    pub swaps: u64,
}

/// A concurrent serving runtime over one hot-swappable [`ServeTask`].
pub struct ServeRuntime<T: ServeTask> {
    queue: Arc<BoundedQueue<Envelope<T>>>,
    model: Arc<HotSwap<T>>,
    stats: Arc<ServeStats>,
    tele: Arc<RuntimeTele>,
    workers: Vec<JoinHandle<()>>,
}

impl<T: ServeTask> ServeRuntime<T> {
    /// Starts `config.threads` workers serving `task`.
    ///
    /// # Panics
    /// If the configuration is degenerate (see [`ServeConfig::validate`]).
    pub fn start(task: T, config: ServeConfig) -> Self {
        Self::start_shared(Arc::new(HotSwap::new(task)), config)
    }

    /// Starts a runtime over an externally-owned [`HotSwap`] slot, so a
    /// compactor (or test writer threads) can publish new models while
    /// the runtime serves.
    pub fn start_shared(model: Arc<HotSwap<T>>, config: ServeConfig) -> Self {
        Self::start_inner(model, config, None, None)
    }

    /// [`ServeRuntime::start`] for one named collection in a registry:
    /// every metric this runtime records carries a `collection` label
    /// alongside the task label.
    pub fn start_named(task: T, config: ServeConfig, collection: &str) -> Self {
        Self::start_inner(Arc::new(HotSwap::new(task)), config, None, Some(collection))
    }

    /// [`ServeRuntime::start_shared`] over an external slot for one named
    /// collection (the registry's mutable-serving path, where the compactor
    /// publishes into the slot).
    pub fn start_shared_named(
        model: Arc<HotSwap<T>>,
        config: ServeConfig,
        collection: &str,
    ) -> Self {
        Self::start_inner(model, config, None, Some(collection))
    }

    /// [`ServeRuntime::start_shared`] for one shard of a sharded deployment:
    /// every metric this runtime records carries a `shard` label alongside
    /// the task label.
    pub fn start_sharded(model: Arc<HotSwap<T>>, config: ServeConfig, shard: usize) -> Self {
        Self::start_inner(model, config, Some(shard), None)
    }

    /// One shard of a named collection's sharded deployment:
    /// `task` + `collection` + `shard` labels.
    pub fn start_named_sharded(
        model: Arc<HotSwap<T>>,
        config: ServeConfig,
        collection: &str,
        shard: usize,
    ) -> Self {
        Self::start_inner(model, config, Some(shard), Some(collection))
    }

    fn start_inner(
        model: Arc<HotSwap<T>>,
        config: ServeConfig,
        shard: Option<usize>,
        collection: Option<&str>,
    ) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid serve config: {e}");
        }
        let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
        let stats = Arc::new(ServeStats::default());
        let tele = Arc::new(match (collection, shard) {
            (Some(c), Some(s)) => RuntimeTele::named_sharded(T::NAME, c, s),
            (Some(c), None) => RuntimeTele::named(T::NAME, c),
            (None, Some(s)) => RuntimeTele::sharded(T::NAME, s),
            (None, None) => RuntimeTele::new(T::NAME),
        });
        let workers = (0..config.threads)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let model = Arc::clone(&model);
                let stats = Arc::clone(&stats);
                let tele = Arc::clone(&tele);
                let max_batch = config.max_batch;
                std::thread::spawn(move || worker_loop(queue, model, stats, tele, max_batch))
            })
            .collect();
        ServeRuntime { queue, model, stats, tele, workers }
    }

    /// Admits a request, returning a [`Ticket`] to redeem for the answer.
    /// Sheds with [`ServeError::Overloaded`] when the queue is full and
    /// [`ServeError::ShuttingDown`] once shutdown began.
    pub fn submit(&self, request: T::Request) -> Result<Ticket<T::Response>, ServeError> {
        let mut outcomes = self.submit_many_traced(std::iter::once((request, None)));
        outcomes.pop().expect("one outcome per request")
    }

    /// Bulk admission: enqueues the whole slice of requests under a single
    /// queue-lock acquisition and one shared admission timestamp, returning
    /// one [`Ticket`] outcome per request in order. Requests beyond the
    /// queue's free capacity are shed ([`ServeError::Overloaded`]); on a
    /// closed queue every request fails with [`ServeError::ShuttingDown`].
    ///
    /// Clients holding a vector of queries should prefer this over repeated
    /// [`ServeRuntime::submit`]: per-request lock round-trips are exactly
    /// the overhead micro-batching amortizes on the worker side, and this is
    /// the producer-side counterpart.
    pub fn submit_many<I>(&self, requests: I) -> Vec<Result<Ticket<T::Response>, ServeError>>
    where
        I: IntoIterator<Item = T::Request>,
    {
        self.submit_many_traced(requests.into_iter().map(|r| (r, None)))
    }

    /// [`ServeRuntime::submit_many`] with a per-request tracing context: the
    /// worker that serves each request records its queue-wait, batch-wait,
    /// and inference stages into the context. Requests without one
    /// (`None`) are served identically, just untraced.
    pub fn submit_many_traced<I>(
        &self,
        requests: I,
    ) -> Vec<Result<Ticket<T::Response>, ServeError>>
    where
        I: IntoIterator<Item = (T::Request, Option<Arc<RequestCtx>>)>,
    {
        let enqueued = Instant::now();
        let requests: Vec<_> = requests.into_iter().collect();
        let frame = Frame::new(requests.len());
        let envelopes: Vec<Envelope<T>> = requests
            .into_iter()
            .enumerate()
            .map(|(index, (request, ctx))| {
                let responder = Responder { frame: Some(Arc::clone(&frame)), index };
                Envelope { request, enqueued, responder, ctx }
            })
            .collect();
        let len = envelopes.len();
        // Envelopes the queue refuses are dropped inside `try_push_many`;
        // their responders fill `WorkerLost`, so the frame still completes.
        let (admitted, closed) = self.queue.try_push_many(envelopes);
        self.stats.submitted.fetch_add(admitted as u64, Ordering::Relaxed);
        (0..len)
            .map(|index| {
                if index < admitted {
                    Ok(Ticket { frame: Arc::clone(&frame), index })
                } else if closed {
                    Err(ServeError::ShuttingDown)
                } else {
                    self.stats.shed.fetch_add(1, Ordering::Relaxed);
                    self.tele.record_shed();
                    Err(ServeError::Overloaded)
                }
            })
            .collect()
    }

    /// Submit + wait: the synchronous convenience path.
    pub fn call(&self, request: T::Request) -> Result<T::Response, ServeError> {
        self.submit(request)?.wait()
    }

    /// Publishes a new task version; in-flight batches finish on the old
    /// snapshot, subsequent batches serve the new one. Returns the version.
    pub fn swap(&self, task: T) -> u64 {
        let version = self.model.publish(task);
        self.tele.record_swap(version, "manual");
        version
    }

    /// The hot-swap slot (share it with a compactor).
    pub fn model(&self) -> &Arc<HotSwap<T>> {
        &self.model
    }

    /// Live runtime counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Requests currently buffered.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Admission queue capacity (the shed threshold).
    pub fn queue_capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Graceful drain: refuse new submissions, serve everything already
    /// admitted, join the workers, and return the final accounting.
    pub fn shutdown(mut self) -> ServeReport {
        self.queue.close();
        for worker in self.workers.drain(..) {
            // A worker that panicked outside the caught serve call still
            // must not poison shutdown accounting.
            let _ = worker.join();
        }
        ServeReport {
            submitted: self.stats.submitted(),
            completed: self.stats.completed(),
            shed: self.stats.shed(),
            batches: self.stats.batches(),
            panicked_batches: self.stats.panicked_batches(),
            swaps: self.model.swap_count(),
        }
    }
}

impl<T: ServeTask> Drop for ServeRuntime<T> {
    fn drop(&mut self) {
        // `shutdown` drains `workers`; a plain drop still closes the queue
        // and joins so no worker outlives the runtime.
        self.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// One worker: collect a batch, refresh the model snapshot, serve, respond.
fn worker_loop<T: ServeTask>(
    queue: Arc<BoundedQueue<Envelope<T>>>,
    model: Arc<HotSwap<T>>,
    stats: Arc<ServeStats>,
    tele: Arc<RuntimeTele>,
    max_batch: usize,
) {
    let mut cached = model.cache();
    loop {
        // Head of the next batch: wait indefinitely (or until drain).
        let head = match queue.pop_blocking() {
            Pop::Item(envelope) => envelope,
            Pop::Drained => return,
        };
        let head_at = Instant::now();
        let mut batch = Vec::with_capacity(max_batch.min(64));
        batch.push(head);
        // Take whatever is already buffered (one lock per batch) and serve
        // at once: a worker never waits for a batch to fill.
        queue.drain_into(&mut batch, max_batch - 1);

        let dequeued = Instant::now();
        let batch_wait = dequeued.duration_since(head_at);
        let waits: Vec<Duration> =
            batch.iter().map(|e| dequeued.duration_since(e.enqueued)).collect();
        let mut requests = Vec::with_capacity(batch.len());
        let mut responders = Vec::with_capacity(batch.len());
        let mut ctxs = Vec::with_capacity(batch.len());
        for e in batch {
            requests.push(e.request);
            responders.push(e.responder);
            ctxs.push(e.ctx);
        }
        for (ctx, wait) in ctxs.iter().zip(&waits) {
            if let Some(ctx) = ctx {
                ctx.record_stage(Stage::QueueWait, *wait);
                ctx.record_stage(Stage::BatchWait, batch_wait);
            }
        }

        // Refresh the snapshot once per batch: one atomic load when no swap
        // happened, one mutex-guarded Arc clone when one did.
        let snapshot = Arc::clone(model.refresh(&mut cached));
        let version = cached.version();
        let started = Instant::now();
        // A panicking task fails its batch but never kills the worker: the
        // queue keeps draining and other batches are unaffected.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            snapshot.serve_batch(&requests)
        }));
        let duration = started.elapsed();

        for ctx in ctxs.iter().flatten() {
            ctx.record_stage(Stage::Inference, duration);
        }

        stats.batches.fetch_add(1, Ordering::Relaxed);
        match outcome {
            Ok(responses) if responses.len() == requests.len() => {
                stats.completed.fetch_add(responses.len() as u64, Ordering::Relaxed);
                tele.record_batch(responses.len(), queue.len(), &waits, batch_wait, duration, version);
                // A caller that dropped its ticket is not an error.
                Responder::send_all(responders, responses.into_iter().map(Ok));
            }
            Ok(responses) => {
                // Length contract violated: fail the batch loudly but keep
                // serving. (Counted like a panic — both are task bugs.)
                debug_assert_eq!(responses.len(), requests.len(), "serve_batch length contract");
                stats.panicked_batches.fetch_add(1, Ordering::Relaxed);
                let failed = std::iter::repeat_with(|| Err(ServeError::TaskPanicked));
                Responder::send_all(responders, failed);
            }
            Err(_) => {
                stats.panicked_batches.fetch_add(1, Ordering::Relaxed);
                let failed = std::iter::repeat_with(|| Err(ServeError::TaskPanicked));
                Responder::send_all(responders, failed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic toy task: doubles the request.
    struct Doubler;
    impl ServeTask for Doubler {
        type Request = u64;
        type Response = u64;
        const NAME: &'static str = "test_doubler";
        fn serve_batch(&self, requests: &[u64]) -> Vec<u64> {
            requests.iter().map(|r| r * 2).collect()
        }
    }

    /// Panics on request 13.
    struct Superstitious;
    impl ServeTask for Superstitious {
        type Request = u64;
        type Response = u64;
        const NAME: &'static str = "test_superstitious";
        fn serve_batch(&self, requests: &[u64]) -> Vec<u64> {
            assert!(!requests.contains(&13), "unlucky batch");
            requests.to_vec()
        }
    }

    fn quick_config() -> ServeConfig {
        ServeConfig {
            threads: 2,
            max_batch: 8,
            queue_capacity: 64,
        }
    }

    #[test]
    fn answers_match_the_task() {
        // Queue sized for the whole burst: this test exercises correctness,
        // not shedding (overload has its own tests).
        let runtime =
            ServeRuntime::start(Doubler, ServeConfig { queue_capacity: 128, ..quick_config() });
        let tickets: Vec<_> = (0..100u64).map(|i| runtime.submit(i).unwrap()).collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            assert_eq!(ticket.wait().unwrap(), i as u64 * 2);
        }
        let report = runtime.shutdown();
        assert_eq!(report.submitted, 100);
        assert_eq!(report.completed, 100);
        assert_eq!(report.shed, 0);
        assert!(report.batches <= 100);
    }

    #[test]
    fn submit_many_admits_in_order_and_sheds_the_overflow() {
        // One slow-to-start worker, tiny queue: the overflow is deterministic
        // because nothing can drain between admission and the length check.
        // The second frame sheds a one-request tail and is redeemed last
        // ticket first: the shed slot must still count towards the frame's
        // completion, or that wait would hang.
        for (requests, reversed) in [(10u64, false), (5, true)] {
            let runtime = ServeRuntime::start(
                Doubler,
                ServeConfig { threads: 1, queue_capacity: 4, ..quick_config() },
            );
            let outcomes = runtime.submit_many(0..requests);
            assert_eq!(outcomes.len(), requests as usize);
            let admitted = outcomes.iter().filter(|o| o.is_ok()).count();
            let shed = outcomes.iter().filter(|o| o.is_err()).count();
            // Admission is one atomic lock acquisition against an empty queue
            // of capacity 4: exactly the first 4 requests get in.
            assert_eq!(admitted, 4);
            assert_eq!(shed, requests as usize - 4);
            let mut outcomes: Vec<_> = outcomes.into_iter().enumerate().collect();
            if reversed {
                outcomes.reverse();
            }
            for (i, outcome) in outcomes {
                match outcome {
                    Ok(ticket) => assert_eq!(ticket.wait().unwrap(), i as u64 * 2),
                    Err(e) => assert_eq!(e, ServeError::Overloaded),
                }
            }
            let report = runtime.shutdown();
            assert_eq!(report.shed, shed as u64);
            assert_eq!(report.submitted + report.shed, requests);
        }
    }

    #[test]
    fn submit_many_after_shutdown_fails_every_request_typed() {
        let runtime = ServeRuntime::start(Doubler, quick_config());
        runtime.queue.close();
        for outcome in runtime.submit_many(0..3u64) {
            assert_eq!(outcome.unwrap_err(), ServeError::ShuttingDown);
        }
        runtime.shutdown();
    }

    #[test]
    fn call_is_submit_plus_wait() {
        let runtime = ServeRuntime::start(Doubler, quick_config());
        assert_eq!(runtime.call(21).unwrap(), 42);
        runtime.shutdown();
    }

    #[test]
    fn shutdown_drains_admitted_requests() {
        let runtime = ServeRuntime::start(Doubler, quick_config());
        let tickets: Vec<_> = (0..50u64).map(|i| runtime.submit(i).unwrap()).collect();
        let report = runtime.shutdown();
        assert_eq!(report.completed, 50, "every admitted request was served");
        for (i, ticket) in tickets.into_iter().enumerate() {
            assert_eq!(ticket.wait().unwrap(), i as u64 * 2);
        }
    }

    #[test]
    fn submissions_after_shutdown_began_fail_typed() {
        let runtime = ServeRuntime::start(Doubler, quick_config());
        // Close the queue out from under the handle to simulate the race.
        runtime.queue.close();
        assert_eq!(runtime.submit(1).unwrap_err(), ServeError::ShuttingDown);
        runtime.shutdown();
    }

    #[test]
    fn task_panic_fails_the_batch_but_not_the_worker() {
        let runtime = ServeRuntime::start(
            Superstitious,
            ServeConfig { threads: 1, max_batch: 1, ..quick_config() },
        );
        assert_eq!(runtime.call(13).unwrap_err(), ServeError::TaskPanicked);
        // The worker survived and keeps serving.
        assert_eq!(runtime.call(7).unwrap(), 7);
        let report = runtime.shutdown();
        assert_eq!(report.panicked_batches, 1);
        assert_eq!(report.completed, 1);
    }

    /// Records every batch it serves; panics on a batch holding request 13.
    struct Recording(Arc<Mutex<Vec<Vec<u64>>>>);
    impl ServeTask for Recording {
        type Request = u64;
        type Response = u64;
        const NAME: &'static str = "test_recording";
        fn serve_batch(&self, requests: &[u64]) -> Vec<u64> {
            self.0.lock().unwrap().push(requests.to_vec());
            assert!(!requests.contains(&13), "unlucky batch");
            requests.to_vec()
        }
    }

    #[test]
    fn a_panicking_batch_fails_only_its_own_slots_of_the_frame() {
        let batches = Arc::new(Mutex::new(Vec::new()));
        let runtime = ServeRuntime::start(
            Recording(Arc::clone(&batches)),
            ServeConfig { threads: 2, max_batch: 4, queue_capacity: 64 },
        );
        // One 12-request frame served as at least 3 batches of at most 4;
        // request 13 sits in the middle of the frame.
        let frame: Vec<u64> = (8..20).collect();
        let tickets: Vec<_> =
            runtime.submit_many(frame.clone()).into_iter().map(Result::unwrap).collect();
        // Redeem on another thread so a frame that never completes fails the
        // test instead of hanging it.
        let (done, results) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let answers: Vec<_> = tickets.into_iter().map(Ticket::wait).collect();
            let _ = done.send(answers);
        });
        let answers =
            results.recv_timeout(Duration::from_secs(30)).expect("every ticket resolves");
        let batches = batches.lock().unwrap().clone();
        assert!(batches.len() >= 3, "batches: {batches:?}");
        let poisoned = batches.iter().find(|b| b.contains(&13)).expect("13 was served");
        for (request, answer) in frame.iter().zip(answers) {
            if poisoned.contains(request) {
                assert_eq!(answer, Err(ServeError::TaskPanicked), "request {request}");
            } else {
                assert_eq!(answer, Ok(*request), "request {request}");
            }
        }
        let report = runtime.shutdown();
        assert_eq!(report.panicked_batches, 1);
        assert_eq!(report.completed, (frame.len() - poisoned.len()) as u64);
    }

    #[test]
    fn swap_changes_subsequent_answers() {
        struct Plus(u64);
        impl ServeTask for Plus {
            type Request = u64;
            type Response = u64;
            const NAME: &'static str = "test_plus";
            fn serve_batch(&self, requests: &[u64]) -> Vec<u64> {
                requests.iter().map(|r| r + self.0).collect()
            }
        }
        let runtime = ServeRuntime::start(Plus(1), quick_config());
        assert_eq!(runtime.call(10).unwrap(), 11);
        let version = runtime.swap(Plus(100));
        assert_eq!(version, 1);
        assert_eq!(runtime.call(10).unwrap(), 110);
        let report = runtime.shutdown();
        assert_eq!(report.swaps, 1);
    }

    /// Records every batch's size; the first batch blocks inside
    /// `serve_batch` until the gate opens.
    struct Gated {
        sizes: Arc<Mutex<Vec<usize>>>,
        /// `(first batch entered, gate open)`.
        state: Arc<(Mutex<(bool, bool)>, Condvar)>,
    }
    impl ServeTask for Gated {
        type Request = u64;
        type Response = u64;
        const NAME: &'static str = "test_gated";
        fn serve_batch(&self, requests: &[u64]) -> Vec<u64> {
            let first = {
                let mut sizes = self.sizes.lock().unwrap();
                sizes.push(requests.len());
                sizes.len() == 1
            };
            if first {
                let (lock, cvar) = &*self.state;
                let mut state = lock.lock().unwrap();
                state.0 = true;
                cvar.notify_all();
                while !state.1 {
                    state = cvar.wait(state).unwrap();
                }
            }
            requests.to_vec()
        }
    }

    #[test]
    fn requests_queued_behind_a_busy_worker_form_one_batch() {
        let sizes = Arc::new(Mutex::new(Vec::new()));
        let state = Arc::new((Mutex::new((false, false)), Condvar::new()));
        let task = Gated { sizes: Arc::clone(&sizes), state: Arc::clone(&state) };
        let config = quick_config();
        let n = config.max_batch;
        let runtime = ServeRuntime::start(task, ServeConfig { threads: 1, ..config });
        let head = runtime.submit(0).unwrap();
        let (lock, cvar) = &*state;
        {
            // Wait until the only worker is inside the first batch.
            let mut s = lock.lock().unwrap();
            while !s.0 {
                s = cvar.wait(s).unwrap();
            }
        }
        // One submit per request: nothing batches them but the queue.
        let tickets: Vec<_> = (1..=n as u64).map(|i| runtime.submit(i).unwrap()).collect();
        lock.lock().unwrap().1 = true;
        cvar.notify_all();
        assert_eq!(head.wait().unwrap(), 0);
        for (i, ticket) in tickets.into_iter().enumerate() {
            assert_eq!(ticket.wait().unwrap(), i as u64 + 1);
        }
        let report = runtime.shutdown();
        assert_eq!(*sizes.lock().unwrap(), vec![1, n]);
        assert_eq!(report.batches, 2);
        assert_eq!(report.completed, n as u64 + 1);
    }

    #[test]
    #[should_panic(expected = "invalid serve config")]
    fn zero_threads_rejected() {
        let _ = ServeRuntime::start(Doubler, ServeConfig { threads: 0, ..quick_config() });
    }
}
