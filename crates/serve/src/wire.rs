//! The line protocol's sockets: one listener loop, one client, one framed
//! reply — for a shard and for the router alike.
//!
//! One request per line, one reply line per request, all UTF-8 — designed
//! so `nc localhost 7700` is a usable client:
//!
//! ```text
//! > QUERY cat and dog
//! < OK 3 DOCS 2 17
//! > LIKE 5 information retrieval systems
//! < OK 3 HITS 9:1.8312 2:0.4401
//! > ADD some new document text
//! < OK 3 ADDED 1
//! > FLUSH
//! < OK 4 FLUSHED 5
//! > QUERY cat and dog
//! < ERR overloaded overloaded: queue depth 128 at high-water 128
//! ```
//!
//! [`Server`] is generic over an [`Endpoint`] — the handful of things
//! that differ between a shard (a [`Frontend`]) and the router
//! (`invidx_router::Router`):
//!
//! * the **stamp** after `OK`: one epoch (`OK 3`), or one per shard
//!   (`OK 4,3,4`);
//! * where a **read** goes: the bounded admission queue, which can shed
//!   or time out, or a scatter to every shard and a merge;
//! * what **`FLUSH`** does with the staged batch and what it counts: one
//!   atomic batch and `FLUSHED <postings>`, or a split by the partition
//!   map and `FLUSHED <documents>`;
//! * which gauges **`METRICS`** refreshes before rendering the process
//!   registry (`serve_*` or `router_*`);
//! * the shard's **own verbs**, `CHECKPOINT` and `WALTAIL <from_batch>`,
//!   which the router does not answer.
//!
//! Everything else is the loop's and exists once: `ADD` stages text into
//! a per-connection batch that `FLUSH` applies, `QUIT` closes, and
//! `METRICS`/`WALTAIL` answer with a *framed* reply — a header line
//! `OK <stamp> <KIND> <n>` followed by `n` body lines — written by
//! `write_framed` and read by [`Client::framed`]. Both bypass the
//! admission queue on purpose: observability and replication must keep
//! answering while the queue sheds.
//!
//! Input from the socket is bounded. A request line longer than
//! [`MAX_LINE_BYTES`], or a staged batch holding more than
//! [`MAX_STAGED_BYTES`], is answered `ERR badrequest ...` and the
//! connection closes (a line that never ends cannot be resynchronised); a
//! line that is not UTF-8 is answered the same way and the connection
//! stays open. A [`Client`] bounds every line it reads by
//! [`MAX_REPLY_LINE_BYTES`], so a broken server cannot balloon a replica
//! or the router.
//!
//! Plain `std::net` + one thread per connection: serviceable at the tested
//! scale (tens of clients) without pulling an async runtime into the tree.
//! DESIGN.md ("Wire protocol") has the verb-by-endpoint table.

use crate::admission::Frontend;
use crate::engine::ServeEngine;
use crate::error::ServeError;
use crate::request::{
    error_to_wire, ok_line, parse_response, reply_to_wire, to_hex, Payload, Request, Response,
    Stamp,
};
use crate::service::{QueryService, ServeConfig};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest request line a server reads, terminator excluded.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Most a connection may stage with `ADD` before it must `FLUSH`: the
/// documents' text plus one `String` header each.
pub const MAX_STAGED_BYTES: usize = 16 << 20;

/// Longest reply line a [`Client`] reads. Replies outgrow requests by
/// nature — a `DOCS` list names every match, and a `WALTAIL` body line is
/// one batch's whole WAL record (text plus four bytes per posting) in hex
/// — so the bound is sized by the largest batch the wire admits, not by
/// the request line.
pub const MAX_REPLY_LINE_BYTES: usize = 4 * MAX_STAGED_BYTES;

/// How long the accept loop sleeps after `accept` fails (`EMFILE` does
/// not clear by retrying at once).
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// How long a refused connection waits for its client to stop sending
/// before it closes anyway.
const REFUSAL_LINGER: Duration = Duration::from_secs(1);

/// What the listener loop serves: everything that differs between a shard
/// and a router, and nothing else.
pub trait Endpoint: Send + Sync + 'static {
    /// Thread-name prefix (`serve-accept`, `router-conn`, ...).
    const NAME: &'static str;
    /// What this endpoint prints between `OK` and the payload.
    type Stamp: Stamp;

    /// The stamp of a reply that reads nothing (`ADDED`, `METRICS`).
    fn stamp(&self) -> Self::Stamp;

    /// Answer one read request.
    fn read(&self, request: Request) -> Result<(Self::Stamp, Payload), ServeError>;

    /// Apply one staged batch; returns the stamp after it and the
    /// `FLUSHED` operand. The operand is the one place the two dialects
    /// disagree: a shard reports the postings the batch produced, the
    /// router the documents it routed.
    fn flush(&self, staged: &[String]) -> Result<(Self::Stamp, u64), ServeError>;

    /// The Prometheus text behind `METRICS`.
    fn metrics(&self) -> String;

    /// Answer a verb only this endpoint has on `out`, or return `None` to
    /// let the line parse as a read request.
    fn own_verb(&self, _verb: &str, _rest: &str, _out: &mut impl Write) -> Option<io::Result<()>> {
        None
    }
}

/// A shard: reads through the admission queue, writes straight to the
/// service's writer path, plus the durability verbs of its store.
impl<E: ServeEngine> Endpoint for Frontend<E> {
    const NAME: &'static str = "serve";
    type Stamp = u64;

    fn stamp(&self) -> u64 {
        self.service().epoch()
    }

    fn read(&self, request: Request) -> Result<(u64, Payload), ServeError> {
        self.call(request).map(|r| (r.epoch, r.payload))
    }

    fn flush(&self, staged: &[String]) -> Result<(u64, u64), ServeError> {
        let (report, epoch) = self.service().ingest_batch(staged)?;
        Ok((epoch, report.postings))
    }

    fn metrics(&self) -> String {
        self.service().render_metrics()
    }

    fn own_verb(&self, verb: &str, rest: &str, out: &mut impl Write) -> Option<io::Result<()>> {
        let service = self.service();
        let reply = match verb {
            "CHECKPOINT" => match service.checkpoint() {
                Ok(Some(bytes)) => Ok(format!("{}CHECKPOINTED {bytes}", ok_line(&service.epoch()))),
                Ok(None) => Err(ServeError::BadRequest("engine has no durability layer".into())),
                Err(e) => Err(e),
            },
            // WAL shipping: every committed record after `from_batch`, one
            // hex payload per body line. Pull-based and queue-bypassing
            // like METRICS: a replica polling for records must not contend
            // with (or be shed by) the query queue.
            "WALTAIL" => match rest.parse::<u64>() {
                Err(e) => Err(ServeError::BadRequest(format!("WALTAIL from_batch: {e}"))),
                Ok(from) => match service
                    .with_read(|epoch, engine| Ok((epoch, engine.wal_records_from(from)?)))
                {
                    Ok((epoch, records)) => {
                        let body: String = records
                            .iter()
                            .map(|record| to_hex(&record.encode_payload()) + "\n")
                            .collect();
                        return Some(write_framed(out, &epoch, "WALTAIL", &body));
                    }
                    Err(e) => Err(ServeError::Engine(e)),
                },
            },
            _ => return None,
        };
        Some(write_line(out, reply.unwrap_or_else(|e| error_to_wire(&e))))
    }
}

/// A running TCP server; dropping it (or calling [`Server::shutdown`])
/// stops the accept loop and joins every connection thread.
pub struct Server<S: Endpoint> {
    service: Arc<S>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl<E: ServeEngine> Server<Frontend<E>> {
    /// Bind `addr` (use port 0 for an ephemeral port) and serve one shard:
    /// an admission front end with `config`'s reader pool over `service`.
    pub fn bind(
        addr: &str,
        service: Arc<QueryService<E>>,
        config: ServeConfig,
    ) -> io::Result<Self> {
        Self::start(addr, Arc::new(Frontend::start_with(service, config)))
    }
}

impl<S: Endpoint> Server<S> {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `service`.
    pub fn start(addr: &str, service: Arc<S>) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(format!("{}-accept", S::NAME))
                .spawn(move || accept_loop(&listener, &service, &stop))?
        };
        Ok(Self { service, addr, stop, accept: Some(accept) })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// What this server serves (for in-process stats and ingest).
    pub fn service(&self) -> &Arc<S> {
        &self.service
    }

    /// Stop accepting, unblock and join every connection thread.
    pub fn shutdown(mut self) {
        self.stop_accepting();
    }

    fn stop_accepting(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection to ourselves.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl<S: Endpoint> Drop for Server<S> {
    fn drop(&mut self) {
        self.stop_accepting();
    }
}

/// A clone of every live connection's socket, so shutdown can unblock
/// threads idle in a read. A connection thread removes its own entry on
/// the way out — which closes the descriptor while the server keeps
/// running.
type Peers = Mutex<HashMap<u64, TcpStream>>;

fn accept_loop<S: Endpoint>(listener: &TcpListener, service: &Arc<S>, stop: &Arc<AtomicBool>) {
    let peers: Arc<Peers> = Arc::default();
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    for (id, conn) in (0u64..).zip(listener.incoming()) {
        if stop.load(Ordering::Acquire) {
            break;
        }
        // Reap the threads of connections that have closed since.
        let (done, live): (Vec<_>, Vec<_>) =
            workers.into_iter().partition(JoinHandle::is_finished);
        workers = live;
        for handle in done {
            let _ = handle.join();
        }
        let Ok(stream) = conn else {
            std::thread::sleep(ACCEPT_BACKOFF);
            continue;
        };
        // One-line request/reply turns: Nagle+delayed-ACK would add ~40ms
        // to every round trip.
        let _ = stream.set_nodelay(true);
        let Ok(peer) = stream.try_clone() else { continue };
        peers.lock().insert(id, peer);
        let spawned = {
            let service = Arc::clone(service);
            let stop = Arc::clone(stop);
            let peers = Arc::clone(&peers);
            std::thread::Builder::new().name(format!("{}-conn", S::NAME)).spawn(move || {
                let _ = serve_connection(stream, &*service, &stop);
                peers.lock().remove(&id);
            })
        };
        match spawned {
            Ok(handle) => workers.push(handle),
            // Out of threads: refuse this connection, keep accepting.
            Err(e) => {
                if let Some(mut peer) = peers.lock().remove(&id) {
                    let _ = writeln!(peer, "ERR overloaded no thread for this connection: {e}");
                }
            }
        }
    }
    // A thread idle in a read would block the join until its client hung
    // up: shut every live socket down first.
    for peer in peers.lock().values() {
        let _ = peer.shutdown(Shutdown::Both);
    }
    for handle in workers {
        let _ = handle.join();
    }
}

/// What [`read_line_capped`] found.
enum Line {
    /// End of stream before any byte.
    Eof,
    /// A line (or the unterminated tail of the stream) is in the buffer.
    Read,
    /// More than the cap arrived without a terminator.
    TooLong,
}

/// Read one `\n`-terminated line of at most `cap` bytes into `buf`
/// (cleared first; the terminator is dropped).
fn read_line_capped(reader: &mut impl BufRead, buf: &mut Vec<u8>, cap: usize) -> io::Result<Line> {
    buf.clear();
    (&mut *reader).take(cap as u64 + 1).read_until(b'\n', buf)?;
    Ok(match buf.last() {
        None => Line::Eof,
        Some(b'\n') => {
            buf.pop();
            Line::Read
        }
        Some(_) if buf.len() > cap => Line::TooLong,
        Some(_) => Line::Read,
    })
}

/// Write a framed reply: `OK <stamp> <KIND> <n>`, then the `n` lines of
/// `body` (each `\n`-terminated).
fn write_framed(
    out: &mut impl Write,
    stamp: &impl Stamp,
    kind: &str,
    body: &str,
) -> io::Result<()> {
    use std::fmt::Write as _;
    let mut frame = ok_line(stamp);
    // Writing into a `String` cannot fail.
    let _ = write!(frame, "{kind} {}\n{body}", body.lines().count());
    out.write_all(frame.as_bytes())?;
    out.flush()
}

/// Write one reply line with its terminator, in one `write`.
fn write_line(out: &mut impl Write, mut line: String) -> io::Result<()> {
    line.push('\n');
    out.write_all(line.as_bytes())
}

/// Answer input the connection cannot survive, then close without losing
/// the answer: closing a socket with unread input resets it, and a reset
/// discards replies still on their way. So send the refusal, end our
/// side, and discard what the client already has in flight — at most
/// another batch's worth, waiting at most [`REFUSAL_LINGER`] for more.
fn refuse(reader: &mut impl Read, writer: &mut TcpStream, reply: String) -> io::Result<()> {
    write_line(writer, reply)?;
    writer.shutdown(Shutdown::Write)?;
    writer.set_read_timeout(Some(REFUSAL_LINGER))?;
    io::copy(&mut reader.take(MAX_STAGED_BYTES as u64), &mut io::sink())?;
    Ok(())
}

fn serve_connection<S: Endpoint>(
    stream: TcpStream,
    service: &S,
    stop: &AtomicBool,
) -> io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    // Documents staged by ADD, applied atomically by FLUSH.
    let mut staged: Vec<String> = Vec::new();
    let mut staged_bytes = 0usize;
    let bad = |m: String| error_to_wire(&ServeError::BadRequest(m));
    loop {
        match read_line_capped(&mut reader, &mut buf, MAX_LINE_BYTES)? {
            Line::Eof => break,
            Line::Read => {}
            Line::TooLong => {
                let reply = bad(format!("request line exceeds {MAX_LINE_BYTES} bytes"));
                return refuse(&mut reader, &mut writer, reply);
            }
        }
        if stop.load(Ordering::Acquire) {
            write_line(&mut writer, error_to_wire(&ServeError::Shutdown))?;
            break;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            write_line(&mut writer, bad("request line is not UTF-8".into()))?;
            continue;
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (verb, rest) = match line.split_once(' ') {
            Some((v, r)) => (v.to_ascii_uppercase(), r.trim()),
            None => (line.to_ascii_uppercase(), ""),
        };
        let reply = match verb.as_str() {
            "QUIT" => break,
            "ADD" if rest.is_empty() => bad("ADD needs document text".into()),
            "ADD" => {
                staged_bytes += rest.len() + std::mem::size_of::<String>();
                if staged_bytes > MAX_STAGED_BYTES {
                    let reply =
                        bad(format!("staged batch exceeds {MAX_STAGED_BYTES} bytes without FLUSH"));
                    return refuse(&mut reader, &mut writer, reply);
                }
                staged.push(rest.to_string());
                format!("{}ADDED {}", ok_line(&service.stamp()), staged.len())
            }
            "FLUSH" => match service.flush(&staged) {
                Ok((stamp, flushed)) => {
                    staged.clear();
                    staged_bytes = 0;
                    format!("{}FLUSHED {flushed}", ok_line(&stamp))
                }
                Err(e) => error_to_wire(&e),
            },
            // Telemetry scrape: bypasses the admission queue on purpose —
            // observability must keep answering while the queue sheds.
            "METRICS" => {
                let text = service.metrics();
                write_framed(&mut writer, &service.stamp(), "METRICS", &text)?;
                continue;
            }
            verb => match service.own_verb(verb, rest, &mut writer) {
                Some(written) => {
                    written?;
                    continue;
                }
                None => match Request::parse(line).and_then(|request| service.read(request)) {
                    Ok((stamp, payload)) => reply_to_wire(&stamp, &payload),
                    Err(e) => error_to_wire(&e),
                },
            },
        };
        write_line(&mut writer, reply)?;
    }
    Ok(())
}

/// The client half of the line protocol: one connection, bounded reads.
pub struct Client {
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
}

impl Client {
    /// Connect to `addr`, bounding the connect and every later read and
    /// write by `timeout`.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Self> {
        let mut last = io::Error::new(io::ErrorKind::InvalidInput, "address resolves to nothing");
        for addr in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(timeout))?;
                    stream.set_write_timeout(Some(timeout))?;
                    return Ok(Self { reader: BufReader::new(stream), buf: Vec::new() });
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Send one line (the terminator is added here).
    fn send(&mut self, line: &str) -> io::Result<()> {
        self.buf.clear();
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        self.reader.get_mut().write_all(&self.buf)
    }

    /// Read one reply line of at most [`MAX_REPLY_LINE_BYTES`].
    fn recv(&mut self) -> io::Result<&str> {
        match read_line_capped(&mut self.reader, &mut self.buf, MAX_REPLY_LINE_BYTES)? {
            Line::Eof => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed")),
            Line::TooLong => {
                Err(invalid(format!("reply line exceeds {MAX_REPLY_LINE_BYTES} bytes")))
            }
            Line::Read => {
                std::str::from_utf8(&self.buf).map_err(|e| invalid(format!("reply line: {e}")))
            }
        }
    }

    /// Send one raw line and return its one-line reply.
    pub fn line(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv().map(|reply| reply.trim_end().to_string())
    }

    /// Send one read request to a shard and parse its reply: the outer
    /// error is the transport's (or an unparseable reply), the inner one
    /// the server's own `ERR` answer.
    pub fn call(&mut self, request: &Request) -> io::Result<Result<Response, ServeError>> {
        self.send(&request.to_wire())?;
        parse_response(self.recv()?).map_err(|e| invalid(e.to_string()))
    }

    /// Send `line` and read the framed reply it asks for — the header
    /// `OK <stamp> <kind> <n>`, then `n` body lines, each handed to
    /// `each` as it arrives (terminator dropped). Returns the header's
    /// stamp, or the server's `ERR` answer.
    pub fn framed<S: Stamp>(
        &mut self,
        line: &str,
        kind: &str,
        mut each: impl FnMut(&str) -> io::Result<()>,
    ) -> io::Result<Result<S, ServeError>> {
        self.send(line)?;
        let header = self.recv()?;
        if header.starts_with("ERR ") {
            let parsed = parse_response(header).map_err(|e| invalid(e.to_string()))?;
            return Ok(Err(parsed.expect_err("an ERR line parses to Err")));
        }
        let fields: Vec<&str> = header.split_whitespace().collect();
        let (stamp, count) = match fields.as_slice() {
            ["OK", stamp, k, n] if *k == kind => (
                S::parse(stamp).map_err(|e| invalid(e.to_string()))?,
                n.parse::<u64>().map_err(|e| invalid(format!("{kind} line count: {e}")))?,
            ),
            _ => return Err(invalid(format!("{kind} header {header:?}"))),
        };
        for _ in 0..count {
            each(self.recv()?)?;
        }
        Ok(Ok(stamp))
    }
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use invidx_core::index::IndexConfig;
    use invidx_disk::sparse_array;
    use invidx_ir::DurableEngine;

    fn server() -> Server<Frontend<DurableEngine>> {
        let array = sparse_array(2, 50_000, 256);
        let engine = DurableEngine::without_log(array, IndexConfig::small()).unwrap();
        let service = Arc::new(QueryService::with_config(engine, ServeConfig::default()).unwrap());
        Server::bind("127.0.0.1:0", service, ServeConfig::default()).unwrap()
    }

    fn connect(srv: &Server<Frontend<DurableEngine>>) -> Client {
        Client::connect(srv.addr(), Duration::from_secs(30)).unwrap()
    }

    fn scrape_metrics(c: &mut Client) -> String {
        let mut body = String::new();
        let _epoch: u64 = c
            .framed("METRICS", "METRICS", |line| {
                body.push_str(line);
                body.push('\n');
                Ok(())
            })
            .unwrap()
            .unwrap();
        body
    }

    #[test]
    fn wire_session_end_to_end() {
        let srv = server();
        let mut c = connect(&srv);
        assert_eq!(c.line("PING").unwrap(), "OK 0 PONG");
        assert_eq!(c.line("ADD the cat sat on the mat").unwrap(), "OK 0 ADDED 1");
        assert_eq!(c.line("ADD the dog chased the cat").unwrap(), "OK 0 ADDED 2");
        let flushed = c.line("FLUSH").unwrap();
        assert!(flushed.starts_with("OK 1 FLUSHED "), "got: {flushed}");
        let resp = c.call(&Request::Boolean("cat and dog".into())).unwrap().unwrap();
        assert_eq!((resp.epoch, resp.payload), (1, Payload::Docs(vec![2])));
        let resp = c.call(&Request::Doc(1)).unwrap().unwrap();
        assert_eq!(resp.payload, Payload::Text(Some("the cat sat on the mat".into())));
        let resp = c.call(&Request::Near("cat".into(), "dog".into(), 3)).unwrap().unwrap();
        assert_eq!(resp.payload, Payload::Docs(vec![2]));
        srv.shutdown();
    }

    #[test]
    fn errors_come_back_typed_on_the_wire() {
        let srv = server();
        let mut c = connect(&srv);
        let reply = c.line("BOGUS verb").unwrap();
        assert!(reply.starts_with("ERR badrequest "), "got: {reply}");
        let reply = c.line("QUERY (cat and").unwrap();
        assert!(reply.starts_with("ERR badrequest "), "got: {reply}");
        let reply = c.line("CHECKPOINT").unwrap();
        assert!(reply.contains("engine has no durability"), "got: {reply}");
        let err = parse_response(&c.line("ADD").unwrap()).unwrap().unwrap_err();
        assert_eq!(err.code(), "badrequest");
        srv.shutdown();
    }

    #[test]
    fn concurrent_wire_clients() {
        let srv = server();
        {
            let mut seed = connect(&srv);
            seed.line("ADD alpha beta").unwrap();
            seed.line("ADD beta gamma").unwrap();
            seed.line("FLUSH").unwrap();
        }
        let addr = srv.addr();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr, Duration::from_secs(30)).unwrap();
                    c.call(&Request::Boolean("beta".into())).unwrap().unwrap()
                })
            })
            .collect();
        for h in handles {
            let resp = h.join().unwrap();
            assert_eq!(resp.payload, Payload::Docs(vec![1, 2]));
        }
        srv.shutdown();
    }

    #[test]
    fn metrics_over_the_wire() {
        let srv = server();
        let mut c = connect(&srv);
        c.line("ADD one two three").unwrap();
        c.line("FLUSH").unwrap();
        c.line("QUERY two").unwrap();
        let body = scrape_metrics(&mut c);
        // The exposition must parse cleanly and carry the serving metrics.
        let snap = invidx_obs::parse_prometheus(&body)
            .unwrap_or_else(|e| panic!("exposition must parse: {e}"));
        assert!(snap.counters.iter().any(|(n, _)| n == "serve_queries_total"));
        assert!(snap.gauges.iter().any(|(n, _)| n == "serve_latency_p99_us"));
        assert!(snap.gauges.iter().any(|(n, _)| n == "slo_error_budget_remaining_ppm"));
        assert!(snap
            .histograms
            .iter()
            .any(|h| h.name == "serve_latency_ms" && h.count > 0));
        // A second scrape still parses (idempotent, no framing drift).
        let again = scrape_metrics(&mut c);
        invidx_obs::parse_prometheus(&again).unwrap();
        srv.shutdown();
    }

    #[test]
    fn stats_over_the_wire() {
        let srv = server();
        let mut c = connect(&srv);
        c.line("ADD one two three").unwrap();
        c.line("FLUSH").unwrap();
        c.line("QUERY two").unwrap();
        c.line("QUERY two").unwrap();
        let resp = c.call(&Request::Stats).unwrap().unwrap();
        let Payload::Stats(stats) = resp.payload else { panic!("want stats: {resp:?}") };
        assert_eq!(stats.docs, 1);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.cache_hits, 1);
        srv.shutdown();
    }
}
