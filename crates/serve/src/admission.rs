//! Admission control: bounded work queue, deadlines, and a reader pool.
//!
//! The [`Frontend`] is the load-bearing wall between clients and the
//! [`QueryService`]. Read requests are admitted into one bounded queue;
//! a pool of reader threads drains it, each executing against the shared
//! service on `&self`. Two deliberate refusals protect latency under
//! overload:
//!
//! * **Shedding** — a request arriving while the queue sits at its
//!   high-water mark is rejected immediately with
//!   [`ServeError::Overloaded`], never queued. Depth stays bounded, so
//!   queueing delay stays bounded.
//! * **Deadline reaping** — a request that waited in the queue past its
//!   deadline is answered [`ServeError::Timeout`] by the reader that
//!   dequeues it, without executing. Work nobody is still waiting for is
//!   not done.
//!
//! Writer operations (batch ingest, checkpoint) bypass the queue: they go
//! straight to the service's write path, which serializes them on the
//! engine's write lock. There is one writer by construction, so admission
//! control for writes is unnecessary.
//!
//! The queue uses `std::sync::Mutex` + `Condvar` (the vendored
//! `parking_lot` deliberately omits condvars), and replies travel over
//! per-request `mpsc` channels.

use crate::engine::ServeEngine;
use crate::error::ServeError;
use crate::request::{Request, Response};
use crate::service::{QueryService, ServeConfig};
use invidx_obs::names;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One admitted read request waiting for a reader.
struct Job {
    request: Request,
    admitted: Instant,
    deadline: Duration,
    reply: mpsc::Sender<Result<Response, ServeError>>,
    /// Trace context for sampled requests; carried through the queue and
    /// installed on the reader thread for the execute window.
    trace: Option<invidx_obs::TraceCtx>,
}

/// The shared queue state behind the mutex.
struct Queue {
    jobs: Mutex<VecDeque<Job>>,
    wake: Condvar,
    closed: AtomicBool,
}

/// A ticket for a pending request; redeem with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<Response, ServeError>>,
}

impl Ticket {
    /// Block until the reply arrives.
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Shutdown))
    }

    /// Wait up to `timeout` for the reply (load generators use this to
    /// bound client-side stalls).
    pub fn wait_timeout(self, timeout: Duration) -> Result<Response, ServeError> {
        match self.rx.recv_timeout(timeout) {
            Ok(reply) => reply,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                Err(ServeError::Timeout { waited: timeout, deadline: timeout })
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServeError::Shutdown),
        }
    }
}

/// Bounded-queue front end over a [`QueryService`].
pub struct Frontend<E: ServeEngine> {
    service: Arc<QueryService<E>>,
    queue: Arc<Queue>,
    config: ServeConfig,
    readers: Vec<JoinHandle<()>>,
}

impl<E: ServeEngine> Frontend<E> {
    /// Start `config.readers` reader threads over `service`. The config's
    /// shape was validated at `ServeConfig::build()`, so there is nothing
    /// to panic about here.
    pub fn start_with(service: Arc<QueryService<E>>, config: ServeConfig) -> Self {
        assert!(config.readers > 0, "at least one reader thread");
        assert!(config.high_water > 0, "high-water mark must be positive");
        let queue = Arc::new(Queue {
            jobs: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            closed: AtomicBool::new(false),
        });
        let readers = (0..config.readers)
            .map(|i| {
                let service = Arc::clone(&service);
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("serve-reader-{i}"))
                    .spawn(move || reader_loop(&service, &queue))
                    .expect("spawn reader thread")
            })
            .collect();
        Self { service, queue, config, readers }
    }

    /// The service this front end feeds (for the writer path and stats).
    pub fn service(&self) -> &Arc<QueryService<E>> {
        &self.service
    }

    /// Admit a read request with the default deadline.
    pub fn submit(&self, request: Request) -> Result<Ticket, ServeError> {
        self.submit_with_deadline(request, self.config.deadline)
    }

    /// Admit a read request, shedding if the queue is at high water.
    pub fn submit_with_deadline(
        &self,
        request: Request,
        deadline: Duration,
    ) -> Result<Ticket, ServeError> {
        if self.queue.closed.load(Ordering::Acquire) {
            return Err(ServeError::Shutdown);
        }
        let (tx, rx) = mpsc::channel();
        {
            let mut jobs = self.queue.jobs.lock().expect("queue poisoned");
            if jobs.len() >= self.config.high_water {
                drop(jobs);
                self.service.counters().count_shed();
                self.service.telemetry().record_failed();
                // Shed outcomes are always logged — they are the requests
                // the slow-query log exists to explain.
                invidx_obs::counter!(names::SERVE_SLOW_QUERIES).inc();
                invidx_obs::event!("slow_query", {
                    "req": request.to_wire(),
                    "outcome": "overloaded",
                    "total_ms": 0.0,
                    "queue_ms": 0.0,
                    "trace_id": 0u64,
                });
                return Err(ServeError::Overloaded {
                    depth: self.config.high_water,
                    high_water: self.config.high_water,
                });
            }
            let trace = self.service.telemetry().sample();
            jobs.push_back(Job { request, admitted: Instant::now(), deadline, reply: tx, trace });
            // Balanced by the dequeue in `reader_loop` and the drain in
            // `close()`: the gauge returns to zero on every exit path.
            invidx_obs::gauge!(names::SERVE_QUEUE_DEPTH).add(1);
        }
        self.queue.wake.notify_one();
        Ok(Ticket { rx })
    }

    /// Admit and block for the reply — the common client call.
    pub fn call(&self, request: Request) -> Result<Response, ServeError> {
        self.submit(request)?.wait()
    }

    /// Current queue depth (tests, stats).
    pub fn queue_depth(&self) -> usize {
        self.queue.jobs.lock().expect("queue poisoned").len()
    }

    /// Stop accepting work, fail pending jobs with [`ServeError::Shutdown`],
    /// and join the reader threads.
    pub fn shutdown(self) {
        drop(self);
    }

    fn close(&self) {
        self.queue.closed.store(true, Ordering::Release);
        let drained: Vec<Job> = {
            let mut jobs = self.queue.jobs.lock().expect("queue poisoned");
            jobs.drain(..).collect()
        };
        if !drained.is_empty() {
            invidx_obs::gauge!(names::SERVE_QUEUE_DEPTH).add(-(drained.len() as i64));
        }
        for job in drained {
            let _ = job.reply.send(Err(ServeError::Shutdown));
        }
        self.queue.wake.notify_all();
    }
}

impl<E: ServeEngine> Drop for Frontend<E> {
    fn drop(&mut self) {
        self.close();
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
    }
}

fn reader_loop<E: ServeEngine>(service: &QueryService<E>, queue: &Queue) {
    loop {
        let mut job = {
            let mut jobs = queue.jobs.lock().expect("queue poisoned");
            loop {
                if let Some(job) = jobs.pop_front() {
                    break job;
                }
                if queue.closed.load(Ordering::Acquire) {
                    return;
                }
                jobs = queue.wake.wait(jobs).expect("queue poisoned");
            }
        };
        invidx_obs::gauge!(names::SERVE_QUEUE_DEPTH).add(-1);
        let waited = job.admitted.elapsed();
        let waited_ms = waited.as_secs_f64() * 1e3;
        invidx_obs::histogram!(names::SERVE_QUEUE_WAIT_MS, invidx_obs::Buckets::time_ms())
            .record(waited_ms);
        let mut trace = job.trace.take();
        if let Some(ctx) = trace.as_mut() {
            ctx.add_span("queue", 0, waited.as_micros() as u64);
        }
        let reply = if waited > job.deadline {
            service.counters().count_timeout();
            service.telemetry().record_failed();
            Err(ServeError::Timeout { waited, deadline: job.deadline })
        } else {
            // Install the trace for the execute window so stage sites in
            // the service, engine, cache, and disk layers attach to it.
            if let Some(ctx) = trace.take() {
                invidx_obs::trace::install(ctx);
            }
            let reply = service.execute(&job.request);
            trace = invidx_obs::trace::uninstall();
            reply
        };
        let accounted = Instant::now();
        let total_ms = job.admitted.elapsed().as_secs_f64() * 1e3;
        invidx_obs::histogram!(names::SERVE_LATENCY_MS, invidx_obs::Buckets::time_ms())
            .record(total_ms);
        let outcome = match &reply {
            Ok(_) => {
                service.telemetry().record_served(total_ms);
                "ok"
            }
            Err(ServeError::Timeout { .. }) => "timeout", // accounted above
            Err(e) => {
                service.telemetry().record_failed();
                e.code()
            }
        };
        let slow_ms = service.telemetry().slow_threshold_ms();
        let reaped = matches!(reply, Err(ServeError::Timeout { .. }));
        if reaped || (slow_ms > 0 && total_ms >= slow_ms as f64) {
            invidx_obs::counter!(names::SERVE_SLOW_QUERIES).inc();
            invidx_obs::event!("slow_query", {
                "req": job.request.to_wire(),
                "outcome": outcome,
                "total_ms": total_ms,
                "queue_ms": waited_ms,
                "trace_id": trace.as_ref().map(|t| t.trace_id()).unwrap_or(0),
            });
        }
        if let Some(mut ctx) = trace {
            // Latency histograms and SLO accounting sit between the
            // execute window and the trace close; name that slice so the
            // top-level stages still sum to the root.
            ctx.add_span("account", 0, accounted.elapsed().as_micros() as u64);
            ctx.finish(&job.request.to_wire(), outcome);
        }
        // The client may have given up (wait_timeout); that's fine.
        let _ = job.reply.send(reply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Payload;
    use invidx_core::index::IndexConfig;
    use invidx_disk::sparse_array;
    use invidx_ir::DurableEngine;

    fn frontend(config: ServeConfig) -> Frontend<DurableEngine> {
        let array = sparse_array(2, 50_000, 256);
        let engine = DurableEngine::without_log(array, IndexConfig::small()).unwrap();
        let service = Arc::new(QueryService::with_config(engine, ServeConfig::default()).unwrap());
        service.ingest_batch(&["the quick brown fox", "lazy dog sleeps"]).unwrap();
        Frontend::start_with(service, config)
    }

    #[test]
    fn calls_round_trip_through_the_pool() {
        let fe = frontend(ServeConfig { readers: 2, ..ServeConfig::default() });
        let resp = fe.call(Request::Boolean("fox".into())).unwrap();
        assert_eq!(resp.payload, Payload::Docs(vec![1]));
        let resp = fe.call(Request::Ping).unwrap();
        assert_eq!(resp.payload, Payload::Pong);
        fe.shutdown();
    }

    #[test]
    fn concurrent_clients_all_get_answers() {
        let fe = Arc::new(frontend(ServeConfig { readers: 4, ..ServeConfig::default() }));
        let handles: Vec<_> = (0..16)
            .map(|i| {
                let fe = Arc::clone(&fe);
                std::thread::spawn(move || {
                    let word = if i % 2 == 0 { "fox" } else { "dog" };
                    fe.call(Request::Boolean(word.into())).unwrap()
                })
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let resp = h.join().unwrap();
            let want = if i % 2 == 0 { vec![1] } else { vec![2] };
            assert_eq!(resp.payload, Payload::Docs(want));
        }
        if let Ok(fe) = Arc::try_unwrap(fe) {
            fe.shutdown();
        }
    }

    #[test]
    fn full_queue_sheds_with_typed_error() {
        // One reader, wedged on a query while we overfill the queue: park
        // the reader by submitting against a *stalled* engine write lock.
        let fe = frontend(ServeConfig {
            readers: 1,
            high_water: 2,
            deadline: Duration::from_secs(5),
            ..ServeConfig::default()
        });
        let service = Arc::clone(fe.service());
        // Hold the write lock so the reader blocks inside execute().
        let gate = Arc::new(std::sync::Barrier::new(2));
        let gate2 = Arc::clone(&gate);
        let blocker = std::thread::spawn(move || {
            service.with_blocked_writer(|| {
                gate2.wait(); // writer lock held
                gate2.wait(); // released when the test is done
            });
        });
        gate.wait();
        // First submit is picked up by the reader and blocks on the lock;
        // give the reader a moment to dequeue it.
        let t1 = fe.submit(Request::Boolean("fox".into())).unwrap();
        while fe.queue_depth() > 0 {
            std::thread::yield_now();
        }
        let _t2 = fe.submit(Request::Boolean("dog".into())).unwrap();
        let _t3 = fe.submit(Request::Boolean("quick".into())).unwrap();
        let err = fe.submit(Request::Boolean("lazy".into())).unwrap_err();
        assert!(matches!(err, ServeError::Overloaded { high_water: 2, .. }));
        assert!(err.is_load_response());
        assert_eq!(fe.service().counters().shed(), 1);
        gate.wait();
        blocker.join().unwrap();
        assert!(t1.wait().is_ok());
        fe.shutdown();
    }

    #[test]
    fn expired_jobs_are_reaped_not_executed() {
        let fe = frontend(ServeConfig {
            readers: 1,
            high_water: 16,
            deadline: Duration::from_secs(5),
            ..ServeConfig::default()
        });
        let service = Arc::clone(fe.service());
        let gate = Arc::new(std::sync::Barrier::new(2));
        let gate2 = Arc::clone(&gate);
        let blocker = std::thread::spawn(move || {
            service.with_blocked_writer(|| {
                gate2.wait();
                gate2.wait();
            });
        });
        gate.wait();
        // Reader dequeues t1 and blocks on the engine lock. t2 sits in the
        // queue with a zero deadline, so it is expired by the time the
        // reader reaches it.
        let t1 = fe.submit(Request::Boolean("fox".into())).unwrap();
        while fe.queue_depth() > 0 {
            std::thread::yield_now();
        }
        let t2 = fe.submit_with_deadline(Request::Boolean("dog".into()), Duration::ZERO).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        gate.wait();
        blocker.join().unwrap();
        assert!(t1.wait().is_ok());
        let err = t2.wait().unwrap_err();
        assert!(matches!(err, ServeError::Timeout { .. }));
        assert_eq!(fe.service().counters().timeouts(), 1);
        fe.shutdown();
    }

    #[test]
    fn closed_frontend_rejects_at_admission() {
        let fe = frontend(ServeConfig { readers: 1, ..ServeConfig::default() });
        fe.call(Request::Ping).unwrap();
        fe.queue.closed.store(true, Ordering::Release);
        let err = fe.submit(Request::Ping).unwrap_err();
        assert_eq!(err.code(), "shutdown");
        fe.shutdown();
    }

    #[test]
    fn drop_joins_readers_cleanly() {
        let fe = frontend(ServeConfig { readers: 3, ..ServeConfig::default() });
        fe.call(Request::Boolean("fox".into())).unwrap();
        drop(fe); // must not hang or panic
    }
}
