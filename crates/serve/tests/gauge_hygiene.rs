//! Regression test for queue-depth gauge hygiene: `serve_queue_depth` is
//! incremented exactly once at admission and must be decremented on every
//! exit path — served, shed, deadline-reaped, abandoned client, and the
//! shutdown drain — so it always returns to zero when the queue is idle.
//!
//! One `#[test]` on purpose: the gauge is process-global, so concurrent
//! tests in the same binary would race on its value.

use invidx_core::index::IndexConfig;
use invidx_disk::sparse_array;
use invidx_ir::DurableEngine;
use invidx_obs::names;
use invidx_serve::{Frontend, QueryService, Request, ServeConfig, ServeError};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn frontend(config: ServeConfig) -> Frontend<DurableEngine> {
    let array = sparse_array(2, 50_000, 256);
    let engine = DurableEngine::without_log(array, IndexConfig::small()).unwrap();
    let service = Arc::new(QueryService::with_config(engine, ServeConfig::default()).unwrap());
    service.ingest_batch(&["the quick brown fox", "lazy dog sleeps"]).unwrap();
    Frontend::start_with(service, config)
}

fn depth() -> i64 {
    invidx_obs::registry().gauge(names::SERVE_QUEUE_DEPTH).get()
}

/// Wedge the single reader on the engine write lock, run `f` while it is
/// stuck (submissions queue up behind it), then release and return.
fn with_wedged_reader(fe: &Frontend<DurableEngine>, f: impl FnOnce()) {
    let service = Arc::clone(fe.service());
    let gate = Arc::new(Barrier::new(2));
    let gate2 = Arc::clone(&gate);
    let blocker = std::thread::spawn(move || {
        service.with_blocked_writer(|| {
            gate2.wait(); // lock held
            gate2.wait(); // released when the caller is done
        });
    });
    gate.wait();
    // The reader dequeues this job and blocks inside execute(); its gauge
    // decrement has already happened by the time the queue is empty again.
    let parked = fe.submit(Request::Boolean("fox".into())).unwrap();
    while fe.queue_depth() > 0 {
        std::thread::yield_now();
    }
    f();
    gate.wait();
    blocker.join().unwrap();
    parked.wait().unwrap();
}

#[test]
fn queue_depth_gauge_returns_to_zero_on_every_exit_path() {
    assert_eq!(depth(), 0, "gauge must start clean");

    // Path 1: served. A normal round trip ends at zero.
    let fe = frontend(ServeConfig { readers: 1, ..ServeConfig::default() });
    fe.call(Request::Boolean("fox".into())).unwrap();
    assert_eq!(depth(), 0, "served");

    // Path 2: abandoned client. The ticket is dropped before the reply;
    // the reader still dequeues (and decrements) normally.
    let ticket = fe.submit(Request::Boolean("dog".into())).unwrap();
    drop(ticket);
    fe.call(Request::Ping).unwrap(); // fence: the dropped job has been processed
    assert_eq!(depth(), 0, "abandoned client");
    fe.shutdown();

    // Path 3: shed. Overfill the queue past high_water; the rejected job
    // must not leave a phantom increment behind.
    let fe = frontend(ServeConfig {
        readers: 1,
        high_water: 2,
        deadline: Duration::from_secs(5),
        ..ServeConfig::default()
    });
    let mut tickets = Vec::new();
    with_wedged_reader(&fe, || {
        tickets.push(fe.submit(Request::Boolean("dog".into())).unwrap());
        tickets.push(fe.submit(Request::Boolean("quick".into())).unwrap());
        assert_eq!(depth(), 2, "two jobs queued behind the wedged reader");
        let err = fe.submit(Request::Boolean("lazy".into())).unwrap_err();
        assert!(matches!(err, ServeError::Overloaded { .. }));
        assert_eq!(depth(), 2, "shed admission must not bump the gauge");
    });
    for t in tickets.drain(..) {
        t.wait().unwrap();
    }
    assert_eq!(depth(), 0, "shed");
    fe.shutdown();

    // Path 4: deadline-reaped. A zero-deadline job queued behind the wedge
    // is expired by the reader, not executed — still decremented.
    let fe = frontend(ServeConfig {
        readers: 1,
        high_water: 16,
        deadline: Duration::from_secs(5),
        ..ServeConfig::default()
    });
    let mut reaped = None;
    with_wedged_reader(&fe, || {
        reaped = Some(
            fe.submit_with_deadline(Request::Boolean("dog".into()), Duration::ZERO).unwrap(),
        );
        assert_eq!(depth(), 1);
        std::thread::sleep(Duration::from_millis(5));
    });
    let err = reaped.unwrap().wait().unwrap_err();
    assert!(matches!(err, ServeError::Timeout { .. }));
    assert_eq!(depth(), 0, "deadline-reaped");
    fe.shutdown();

    // Path 5: shutdown drain. Jobs still queued when the frontend closes
    // are failed with Shutdown and drained in bulk — gauge included.
    let fe = frontend(ServeConfig {
        readers: 1,
        high_water: 16,
        deadline: Duration::from_secs(5),
        ..ServeConfig::default()
    });
    let service = Arc::clone(fe.service());
    let gate = Arc::new(Barrier::new(2));
    let gate2 = Arc::clone(&gate);
    let blocker = std::thread::spawn(move || {
        service.with_blocked_writer(|| {
            gate2.wait();
            gate2.wait();
        });
    });
    gate.wait();
    let parked = fe.submit(Request::Boolean("fox".into())).unwrap();
    while fe.queue_depth() > 0 {
        std::thread::yield_now();
    }
    let t2 = fe.submit(Request::Boolean("dog".into())).unwrap();
    let t3 = fe.submit(Request::Boolean("quick".into())).unwrap();
    assert_eq!(depth(), 2);
    // shutdown() drains the queue first, then joins the reader — release
    // the wedge from a helper so the join can complete.
    let unwedge = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        gate.wait();
    });
    fe.shutdown();
    unwedge.join().unwrap();
    blocker.join().unwrap();
    parked.wait().unwrap();
    assert_eq!(t2.wait().unwrap_err().code(), "shutdown");
    assert_eq!(t3.wait().unwrap_err().code(), "shutdown");
    assert_eq!(depth(), 0, "shutdown drain");
}
