//! WAL shipping, replica half: tail the primary's log, replay it locally.
//!
//! A read replica is just another engine (usually a `DurableEngine` over
//! its own directory) whose *only* writer is a [`ReplicaTailer`] thread.
//! The tailer polls the primary's `WALTAIL <from_batch>` endpoint over
//! the ordinary line protocol ([`Client::framed`] — one connection per
//! poll, every line bounded), decodes each shipped record as its line
//! arrives, and applies it through the replica's own update path
//! ([`QueryService::apply_replicated`]).
//!
//! Replaying through the update path — not copying bytes — is the same
//! argument the recovery path makes: a `Batch` record carries the
//! documents' text in its metadata, the replica re-lexes and re-interns
//! in the identical order, and therefore converges to the identical
//! index state. It also means every applied record lands in the
//! *replica's own* WAL, so a restarted replica recovers locally and
//! resumes tailing from wherever it got to — no snapshot transfer.
//!
//! Pull, not push: the replica knows what it has (its committed batch
//! count), so `from_batch` makes the poll idempotent and a torn
//! connection costs nothing but a retry. Replication **lag** is the
//! primary-epoch-minus-replica-epoch delta, published per shard as the
//! `replica_lag_batches` gauge.
//!
//! The primary must run with `checkpoint_every: 0` while serving
//! replicas — a checkpoint resets the primary's WAL, which would open a
//! gap a tailing replica can detect but not repair.

use invidx_durable::WalRecord;
use invidx_obs::names;
use invidx_serve::{from_hex, Client, QueryService, ServeEngine};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning for one tailer.
#[derive(Debug, Clone, Copy)]
pub struct TailerOptions {
    /// Sleep between polls that found nothing new (a poll that applied
    /// records re-polls immediately to drain a burst).
    pub poll: Duration,
    /// Transport timeout for connect/read/write against the primary.
    pub timeout: Duration,
    /// Shard index, for the per-shard lag gauge.
    pub shard: usize,
}

impl Default for TailerOptions {
    fn default() -> Self {
        Self { poll: Duration::from_millis(20), timeout: Duration::from_secs(2), shard: 0 }
    }
}

/// A background thread keeping one replica caught up with one primary.
pub struct ReplicaTailer {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ReplicaTailer {
    /// Start tailing `primary` into `service`. The service must be the
    /// replica's **only** writer while the tailer runs — the shipped
    /// batch sequence is dense, and an interloping local write would
    /// desynchronize it (and be caught as a gap on the next poll).
    pub fn start<E: ServeEngine>(
        service: Arc<QueryService<E>>,
        primary: SocketAddr,
        options: TailerOptions,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(format!("replica-tailer-{}", options.shard))
            .spawn(move || tail_loop(&service, primary, options, &stop2))
            .expect("spawn replica tailer");
        Self { stop, handle: Some(handle) }
    }

    /// Stop polling and join the thread.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ReplicaTailer {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

fn tail_loop<E: ServeEngine>(
    service: &QueryService<E>,
    primary: SocketAddr,
    options: TailerOptions,
    stop: &AtomicBool,
) {
    let applied = invidx_obs::registry().counter(names::REPLICA_APPLIED_RECORDS);
    let poll_errors = invidx_obs::registry().counter(names::REPLICA_POLL_ERRORS);
    let lag = invidx_obs::registry()
        .gauge(&names::per_shard(names::REPLICA_LAG_BATCHES, options.shard));
    while !stop.load(Ordering::Acquire) {
        match poll_once(service, primary, options.timeout) {
            Ok(polled) => {
                applied.add(polled.applied);
                lag.set(polled.primary_epoch.saturating_sub(service.epoch()) as i64);
                if polled.applied > 0 {
                    continue; // drain a burst without sleeping
                }
            }
            Err(_) => poll_errors.inc(),
        }
        // Sleep in slices so `stop` stays responsive.
        let mut remaining = options.poll;
        let slice = Duration::from_millis(5);
        while !remaining.is_zero() && !stop.load(Ordering::Acquire) {
            let nap = slice.min(remaining);
            std::thread::sleep(nap);
            remaining -= nap;
        }
    }
}

struct Polled {
    applied: u64,
    primary_epoch: u64,
}

/// One poll: ask for everything after our committed batch count, apply
/// each record as its line arrives.
fn poll_once<E: ServeEngine>(
    service: &QueryService<E>,
    primary: SocketAddr,
    timeout: Duration,
) -> Result<Polled, String> {
    let from = service.with_read(|_, engine| engine.batches());
    let mut applied = 0u64;
    let primary_epoch = Client::connect(primary, timeout)
        .and_then(|mut client| {
            client.framed(&format!("WALTAIL {from}"), "WALTAIL", |line| {
                let bytes = from_hex(line).map_err(io::Error::other)?;
                let record = WalRecord::decode_payload(&bytes).map_err(io::Error::other)?;
                service.apply_replicated(&record).map_err(io::Error::other)?;
                applied += 1;
                Ok(())
            })
        })
        .map_err(|e| format!("waltail transport: {e}"))?
        .map_err(|e| format!("waltail refused: {e}"))?;
    Ok(Polled { applied, primary_epoch })
}
