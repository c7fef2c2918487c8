//! Where a shard's reads go, and what happens when one stops answering.
//!
//! A [`ShardBackend`] is one place that can answer a serving [`Request`]:
//! the shard's own service in-process ([`LocalShard`]), an admission
//! front end with its bounded queue ([`FrontendShard`]), or a server on
//! the other end of the line protocol ([`RemoteShard`], one
//! [`invidx_serve::Client`] per request — connect timeout, I/O timeout
//! and the reply-size bound are the client's). A [`ReplicaSet`]
//! is the router's per-shard view: the primary and its read replicas,
//! with reads spread round-robin and a [`ReadPolicy`] deciding when to
//! retry elsewhere and when to hedge.
//!
//! Failover semantics, precisely:
//!
//! * **Retry** — an attempt *failed* (transport error, shed, engine
//!   error); the next backend in rotation gets the request, while the
//!   total deadline keeps running.
//! * **Hedge** — an attempt has produced *nothing* for `hedge_after`; a
//!   duplicate is launched on the next backend and whichever answers
//!   first wins. The slow attempt is not cancelled (the line protocol has
//!   no cancel), it is simply ignored.
//! * **Deadline** — the per-shard budget for the whole dance. When it
//!   runs out with no success, the caller gets the last failure (or a
//!   timeout if nothing ever came back).

use invidx_serve::{
    Client, Frontend, QueryService, Request, Response, ServeEngine, ServeError,
};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// One place that can answer serving requests for a shard.
pub trait ShardBackend: Send + Sync {
    /// Execute one request to completion (or typed failure).
    fn execute(&self, request: &Request) -> Result<Response, ServeError>;
    /// A short name for telemetry and error messages.
    fn label(&self) -> &str;
}

/// A shard served directly by its in-process [`QueryService`] — no queue,
/// no shedding; reads go straight through the service's read lock.
pub struct LocalShard<E: ServeEngine> {
    service: Arc<QueryService<E>>,
    label: String,
}

impl<E: ServeEngine> LocalShard<E> {
    /// Wrap a service as a backend.
    pub fn new(service: Arc<QueryService<E>>, label: impl Into<String>) -> Self {
        Self { service, label: label.into() }
    }
}

impl<E: ServeEngine> ShardBackend for LocalShard<E> {
    fn execute(&self, request: &Request) -> Result<Response, ServeError> {
        self.service.execute(request)
    }

    fn label(&self) -> &str {
        &self.label
    }
}

/// A shard served through an admission [`Frontend`]: reads contend for
/// the replica's bounded reader pool and can be shed or time out — the
/// honest model of a replica with finite capacity, which is what the
/// scaling ablation measures.
pub struct FrontendShard<E: ServeEngine> {
    frontend: Arc<Frontend<E>>,
    label: String,
}

impl<E: ServeEngine> FrontendShard<E> {
    /// Wrap a front end as a backend.
    pub fn new(frontend: Arc<Frontend<E>>, label: impl Into<String>) -> Self {
        Self { frontend, label: label.into() }
    }
}

impl<E: ServeEngine> ShardBackend for FrontendShard<E> {
    fn execute(&self, request: &Request) -> Result<Response, ServeError> {
        self.frontend.call(request.clone())
    }

    fn label(&self) -> &str {
        &self.label
    }
}

/// A shard served over TCP by a [`invidx_serve::Server`]. One connection
/// per request: simple, self-healing (a dead server is a fresh
/// connection-refused, not a poisoned stream), and honest about failure
/// detection — exactly what the failover tests kill and restart. A
/// transport failure or an unparseable reply is an `engine` error
/// carrying the backend's label.
pub struct RemoteShard {
    addr: SocketAddr,
    timeout: Duration,
    label: String,
}

impl RemoteShard {
    /// A backend speaking the line protocol to `addr`, bounding connect
    /// and read/write with `timeout`.
    pub fn new(addr: SocketAddr, timeout: Duration, label: impl Into<String>) -> Self {
        Self { addr, timeout, label: label.into() }
    }
}

impl ShardBackend for RemoteShard {
    fn execute(&self, request: &Request) -> Result<Response, ServeError> {
        Client::connect(self.addr, self.timeout)
            .and_then(|mut client| client.call(request))
            .map_err(|e| ServeError::Engine(format!("{}: {e}", self.label)))?
    }

    fn label(&self) -> &str {
        &self.label
    }
}

/// When to give up on a backend and try another.
#[derive(Debug, Clone, Copy)]
pub struct ReadPolicy {
    /// Total per-shard budget for one request, all attempts included.
    pub deadline: Duration,
    /// Launch a duplicate attempt after this much silence (`None`
    /// disables hedging).
    pub hedge_after: Option<Duration>,
    /// Maximum attempts launched per request (first + retries + hedges).
    pub max_attempts: usize,
}

impl Default for ReadPolicy {
    fn default() -> Self {
        Self { deadline: Duration::from_secs(2), hedge_after: None, max_attempts: 2 }
    }
}

/// What one [`ReplicaSet::call`] did beyond the answer — the router feeds
/// these into its per-shard counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallOutcome {
    /// Attempts launched because an earlier one failed.
    pub retries: u64,
    /// Attempts launched because an earlier one was silent past the hedge
    /// threshold.
    pub hedges: u64,
    /// Failures observed across all attempts (a hedged call that
    /// ultimately succeeds can still have seen errors).
    pub errors: u64,
}

/// The read targets for one shard: backends in preference rotation.
pub struct ReplicaSet {
    backends: Vec<Arc<dyn ShardBackend>>,
    cursor: AtomicUsize,
}

impl ReplicaSet {
    /// A set over `backends`; must be non-empty.
    pub fn new(backends: Vec<Arc<dyn ShardBackend>>) -> Result<Self, ServeError> {
        if backends.is_empty() {
            return Err(ServeError::Config("replica set needs at least one backend".into()));
        }
        Ok(Self { backends, cursor: AtomicUsize::new(0) })
    }

    /// Backends in the set.
    pub fn len(&self) -> usize {
        self.backends.len()
    }

    /// Whether the set is empty (never, by construction — for clippy).
    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }

    /// Execute `request` under `policy`: round-robin start, sequential
    /// failover on error, hedging on silence, all within one deadline.
    pub fn call(
        &self,
        request: &Request,
        policy: &ReadPolicy,
    ) -> (Result<Response, ServeError>, CallOutcome) {
        let started = Instant::now();
        let mut outcome = CallOutcome::default();
        let (tx, rx) = mpsc::channel::<Result<Response, ServeError>>();
        let start = self.cursor.fetch_add(1, Ordering::Relaxed);
        let launch = |attempt: usize| {
            let backend = Arc::clone(&self.backends[(start + attempt) % self.backends.len()]);
            let request = request.clone();
            let tx = tx.clone();
            // Detached on purpose: a hedged-out attempt finishes into a
            // channel nobody reads and the thread exits. Threads block at
            // most as long as the backend's own transport timeout.
            std::thread::spawn(move || {
                let _ = tx.send(backend.execute(&request));
            });
        };
        let max_attempts = policy.max_attempts.max(1);
        launch(0);
        let mut launched = 1usize;
        let mut outstanding = 1usize;
        let mut last_err: Option<ServeError> = None;
        while outstanding > 0 {
            let remaining = policy.deadline.saturating_sub(started.elapsed());
            if remaining.is_zero() {
                break;
            }
            // Wait only up to the hedge threshold when another attempt
            // could still be launched; otherwise ride out the deadline.
            let can_launch = launched < max_attempts;
            let wait = match policy.hedge_after {
                Some(h) if can_launch => h.min(remaining),
                _ => remaining,
            };
            match rx.recv_timeout(wait) {
                Ok(Ok(response)) => return (Ok(response), outcome),
                Ok(Err(e)) => {
                    outcome.errors += 1;
                    last_err = Some(e);
                    outstanding -= 1;
                    if can_launch {
                        outcome.retries += 1;
                        launch(launched);
                        launched += 1;
                        outstanding += 1;
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if can_launch && policy.hedge_after.is_some() {
                        outcome.hedges += 1;
                        launch(launched);
                        launched += 1;
                        outstanding += 1;
                    }
                    // Without hedging the timeout just consumed the whole
                    // remaining deadline; the loop exits above.
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        let err = last_err.unwrap_or(ServeError::Timeout {
            waited: started.elapsed(),
            deadline: policy.deadline,
        });
        if outcome.errors == 0 {
            outcome.errors = 1; // the deadline itself is the failure
        }
        (Err(err), outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invidx_serve::Payload;
    use std::sync::atomic::AtomicU64;

    /// A scriptable backend: fails the first `fail_first` calls, then
    /// answers after `delay`.
    struct Scripted {
        fail_first: u64,
        delay: Duration,
        calls: AtomicU64,
        label: String,
    }

    impl Scripted {
        fn new(fail_first: u64, delay: Duration, label: &str) -> Arc<Self> {
            Arc::new(Self {
                fail_first,
                delay,
                calls: AtomicU64::new(0),
                label: label.to_string(),
            })
        }
    }

    impl ShardBackend for Scripted {
        fn execute(&self, _request: &Request) -> Result<Response, ServeError> {
            let n = self.calls.fetch_add(1, Ordering::SeqCst);
            if n < self.fail_first {
                return Err(ServeError::Engine(format!("{} scripted failure", self.label)));
            }
            std::thread::sleep(self.delay);
            Ok(Response { epoch: 7, payload: Payload::Pong })
        }

        fn label(&self) -> &str {
            &self.label
        }
    }

    #[test]
    fn failover_retries_on_error_within_deadline() {
        let dead = Scripted::new(u64::MAX, Duration::ZERO, "dead");
        let live = Scripted::new(0, Duration::ZERO, "live");
        let set = ReplicaSet::new(vec![dead, live]).unwrap();
        let policy = ReadPolicy {
            deadline: Duration::from_secs(2),
            hedge_after: None,
            max_attempts: 2,
        };
        // Both rotation starts must succeed: either the first attempt
        // lands on `live`, or it fails on `dead` and retries onto `live`.
        let mut retried = 0;
        for _ in 0..4 {
            let (resp, outcome) = set.call(&Request::Ping, &policy);
            assert_eq!(resp.unwrap().payload, Payload::Pong);
            retried += outcome.retries;
        }
        assert_eq!(retried, 2, "half the rotations start on the dead backend");
    }

    #[test]
    fn hedging_fires_on_silence_and_first_answer_wins() {
        let slow = Scripted::new(0, Duration::from_millis(300), "slow");
        let fast = Scripted::new(0, Duration::ZERO, "fast");
        let set = ReplicaSet::new(vec![slow, fast]).unwrap();
        let policy = ReadPolicy {
            deadline: Duration::from_secs(2),
            hedge_after: Some(Duration::from_millis(30)),
            max_attempts: 2,
        };
        // Pin the rotation so the slow backend goes first.
        set.cursor.store(0, Ordering::SeqCst);
        let started = Instant::now();
        let (resp, outcome) = set.call(&Request::Ping, &policy);
        assert_eq!(resp.unwrap().payload, Payload::Pong);
        assert_eq!(outcome.hedges, 1);
        assert!(
            started.elapsed() < Duration::from_millis(250),
            "the hedge, not the slow primary, must answer"
        );
    }

    #[test]
    fn exhausted_deadline_returns_last_failure() {
        let dead = Scripted::new(u64::MAX, Duration::ZERO, "dead");
        let set = ReplicaSet::new(vec![dead]).unwrap();
        let policy = ReadPolicy {
            deadline: Duration::from_millis(50),
            hedge_after: None,
            max_attempts: 2,
        };
        let (resp, outcome) = set.call(&Request::Ping, &policy);
        assert!(resp.is_err());
        assert!(outcome.errors >= 1);
        assert!(ReplicaSet::new(vec![]).is_err());
    }
}
