//! Line-oriented TCP front end over the admission layer.
//!
//! The protocol is one request per line, one reply line per request, all
//! UTF-8 — designed so `nc localhost 7700` is a usable client:
//!
//! ```text
//! > QUERY cat and dog
//! < OK 3 DOCS 2 17
//! > PHRASE the quick brown
//! < OK 3 DOCS 4
//! > LIKE 5 information retrieval systems
//! < OK 3 HITS 9:1.8312 2:0.4401
//! > DOC 4
//! < OK 3 TEXT the quick brown fox
//! > ADD some new document text
//! < OK 3 ADDED 18
//! > FLUSH
//! < OK 4 FLUSHED 1
//! > QUERY cat and dog
//! < ERR overloaded queue depth 128 at high-water 128
//! ```
//!
//! Read verbs (`QUERY`, `PHRASE`, `NEAR`, `LIKE`, `DOC`, `STATS`, `PING`)
//! pass through the bounded queue and can be shed or time out. Write verbs
//! (`ADD`, `FLUSH`, `CHECKPOINT`) go straight to the service's write path,
//! and `METRICS` — the telemetry scrape — bypasses the queue entirely so
//! dashboards keep working while the queue sheds.
//! `ADD` stages text into a per-connection batch; `FLUSH` applies the
//! whole batch atomically and bumps the epoch. Every `OK` reply carries
//! the epoch it was computed at, so clients can reason about staleness.
//!
//! Plain `std::net` + one thread per connection: serviceable at the tested
//! scale (tens of clients) without pulling an async runtime into the tree.

use crate::admission::Frontend;
use crate::engine::ServeEngine;
use crate::error::ServeError;
use crate::request::{error_to_wire, to_hex, Request};
use crate::service::{QueryService, ServeConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running TCP server; dropping it (or calling [`Server::shutdown`])
/// stops the accept loop and joins every connection thread.
pub struct Server<E: ServeEngine> {
    frontend: Arc<Frontend<E>>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl<E: ServeEngine> Server<E> {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving.
    pub fn bind(
        addr: &str,
        service: Arc<QueryService<E>>,
        config: ServeConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let frontend = Arc::new(Frontend::start_with(service, config));
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let frontend = Arc::clone(&frontend);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(&listener, &frontend, &stop))
                .expect("spawn accept thread")
        };
        Ok(Self { frontend, addr, stop, accept: Some(accept) })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The admission front end (for in-process stats and ingest).
    pub fn frontend(&self) -> &Arc<Frontend<E>> {
        &self.frontend
    }

    /// Stop accepting, close the queue, join all threads.
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

impl<E: ServeEngine> Drop for Server<E> {
    fn drop(&mut self) {
        self.stop_accepting();
    }
}

fn accept_loop<E: ServeEngine>(
    listener: &TcpListener,
    frontend: &Arc<Frontend<E>>,
    stop: &Arc<AtomicBool>,
) {
    // Connection threads park their handles (plus a socket clone) here; on
    // the way out the accept loop shuts every socket down first — a thread
    // idle in `read_line` would otherwise block the join until its client
    // hung up.
    let mut workers: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
    for conn in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = conn else { continue };
        // One-line request/reply turns: Nagle+delayed-ACK would add ~40ms
        // to every round trip.
        let _ = stream.set_nodelay(true);
        let Ok(peer) = stream.try_clone() else { continue };
        let frontend = Arc::clone(frontend);
        let stop = Arc::clone(stop);
        let handle = std::thread::Builder::new()
            .name("serve-conn".into())
            .spawn(move || {
                let _ = serve_connection(stream, &frontend, &stop);
            })
            .expect("spawn connection thread");
        workers.push((peer, handle));
    }
    for (peer, handle) in workers {
        let _ = peer.shutdown(std::net::Shutdown::Both);
        let _ = handle.join();
    }
}

fn serve_connection<E: ServeEngine>(
    stream: TcpStream,
    frontend: &Frontend<E>,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    let mut writer = stream.try_clone()?;
    let reader = BufReader::new(stream);
    // Documents staged by ADD, applied atomically by FLUSH.
    let mut staged: Vec<String> = Vec::new();
    for line in reader.lines() {
        let line = line?;
        if stop.load(Ordering::Acquire) {
            writeln!(writer, "{}", error_to_wire(&ServeError::Shutdown))?;
            break;
        }
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
            "ADD" => {
                if rest.is_empty() {
                    error_to_wire(&ServeError::BadRequest("ADD needs document text".into()))
                } else {
                    staged.push(rest.to_string());
                    format!(
                        "OK {} ADDED {}",
                        frontend.service().epoch(),
                        staged.len()
                    )
                }
            }
            "FLUSH" => match frontend.service().ingest_batch(&staged) {
                Ok((report, epoch)) => {
                    staged.clear();
                    format!("OK {epoch} FLUSHED {}", report.postings)
                }
                Err(e) => error_to_wire(&e),
            },
            // Telemetry scrape: bypasses the admission queue on purpose —
            // observability must keep answering while the queue sheds.
            // Reply is framed as `OK <epoch> METRICS <nlines>` followed by
            // that many lines of Prometheus text exposition.
            "METRICS" => {
                let text = frontend.service().render_metrics();
                write!(
                    writer,
                    "OK {} METRICS {}\n{text}",
                    frontend.service().epoch(),
                    text.lines().count()
                )?;
                writer.flush()?;
                continue;
            }
            // WAL shipping: `WALTAIL <from_batch>` returns every committed
            // record after `from_batch`, framed as `OK <epoch> WALTAIL <n>`
            // followed by n lines of `<hex payload>`. Pull-based and
            // queue-bypassing like METRICS: a replica polling for records
            // must not contend with (or be shed by) the query queue, and
            // reading the WAL takes only the shared lock.
            "WALTAIL" => {
                let reply = match rest.parse::<u64>() {
                    Err(e) => {
                        error_to_wire(&ServeError::BadRequest(format!("WALTAIL from_batch: {e}")))
                    }
                    Ok(from) => frontend.service().with_read(|epoch, engine| {
                        match engine.wal_records_from(from) {
                            Ok(records) => {
                                let mut s = format!("OK {epoch} WALTAIL {}", records.len());
                                for rec in &records {
                                    s.push('\n');
                                    s.push_str(&to_hex(&rec.encode_payload()));
                                }
                                s
                            }
                            Err(e) => error_to_wire(&ServeError::Engine(e)),
                        }
                    }),
                };
                writeln!(writer, "{reply}")?;
                writer.flush()?;
                continue;
            }
            "CHECKPOINT" => match frontend.service().checkpoint() {
                Ok(Some(bytes)) => {
                    format!("OK {} CHECKPOINTED {bytes}", frontend.service().epoch())
                }
                Ok(None) => error_to_wire(&ServeError::BadRequest(
                    "engine has no durability layer".into(),
                )),
                Err(e) => error_to_wire(&e),
            },
            _ => match Request::parse(line) {
                Ok(request) => match frontend.call(request) {
                    Ok(response) => response.to_wire(),
                    Err(e) => error_to_wire(&e),
                },
                Err(e) => error_to_wire(&e),
            },
        };
        writeln!(writer, "{reply}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{parse_response, Payload};
    use invidx_core::index::IndexConfig;
    use invidx_disk::sparse_array;
    use invidx_ir::DurableEngine;
    use std::io::BufWriter;

    struct Client {
        reader: BufReader<TcpStream>,
        writer: BufWriter<TcpStream>,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Self {
            let stream = TcpStream::connect(addr).unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            Self { reader, writer: BufWriter::new(stream) }
        }

        fn roundtrip(&mut self, line: &str) -> String {
            writeln!(self.writer, "{line}").unwrap();
            self.writer.flush().unwrap();
            let mut reply = String::new();
            self.reader.read_line(&mut reply).unwrap();
            reply.trim_end().to_string()
        }

        /// Send `METRICS`, parse the `OK <epoch> METRICS <n>` header, and
        /// return the n-line exposition body.
        fn scrape_metrics(&mut self) -> String {
            let header = self.roundtrip("METRICS");
            let nlines: usize = header
                .strip_prefix("OK ")
                .and_then(|r| r.split_once(" METRICS "))
                .map(|(_, n)| n.parse().unwrap())
                .unwrap_or_else(|| panic!("bad METRICS header: {header}"));
            let mut body = String::new();
            for _ in 0..nlines {
                self.reader.read_line(&mut body).unwrap();
            }
            body
        }
    }

    fn server() -> Server<DurableEngine> {
        let array = sparse_array(2, 50_000, 256);
        let engine = DurableEngine::without_log(array, IndexConfig::small()).unwrap();
        let service = Arc::new(QueryService::with_config(engine, ServeConfig::default()).unwrap());
        Server::bind("127.0.0.1:0", service, ServeConfig::default()).unwrap()
    }

    #[test]
    fn wire_session_end_to_end() {
        let srv = server();
        let mut c = Client::connect(srv.addr());
        assert_eq!(c.roundtrip("PING"), "OK 0 PONG");
        assert_eq!(c.roundtrip("ADD the cat sat on the mat"), "OK 0 ADDED 1");
        assert_eq!(c.roundtrip("ADD the dog chased the cat"), "OK 0 ADDED 2");
        let flushed = c.roundtrip("FLUSH");
        assert!(flushed.starts_with("OK 1 FLUSHED "), "got: {flushed}");
        let reply = c.roundtrip("QUERY cat and dog");
        let resp = parse_response(&reply).unwrap().unwrap();
        assert_eq!((resp.epoch, resp.payload), (1, Payload::Docs(vec![2])));
        let reply = c.roundtrip("DOC 1");
        let resp = parse_response(&reply).unwrap().unwrap();
        assert_eq!(resp.payload, Payload::Text(Some("the cat sat on the mat".into())));
        let reply = c.roundtrip("NEAR cat dog 3");
        let resp = parse_response(&reply).unwrap().unwrap();
        assert_eq!(resp.payload, Payload::Docs(vec![2]));
        srv.shutdown();
    }

    #[test]
    fn errors_come_back_typed_on_the_wire() {
        let srv = server();
        let mut c = Client::connect(srv.addr());
        let reply = c.roundtrip("BOGUS verb");
        assert!(reply.starts_with("ERR badrequest "), "got: {reply}");
        let reply = c.roundtrip("QUERY (cat and");
        assert!(reply.starts_with("ERR badrequest "), "got: {reply}");
        let reply = c.roundtrip("CHECKPOINT");
        assert!(reply.contains("engine has no durability"), "got: {reply}");
        let err = parse_response(&c.roundtrip("ADD")).unwrap().unwrap_err();
        assert_eq!(err.code(), "badrequest");
        srv.shutdown();
    }

    #[test]
    fn concurrent_wire_clients() {
        let srv = server();
        {
            let mut seed = Client::connect(srv.addr());
            seed.roundtrip("ADD alpha beta");
            seed.roundtrip("ADD beta gamma");
            seed.roundtrip("FLUSH");
        }
        let addr = srv.addr();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr);
                    let reply = c.roundtrip("QUERY beta");
                    parse_response(&reply).unwrap().unwrap()
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
        let mut c = Client::connect(srv.addr());
        c.roundtrip("ADD one two three");
        c.roundtrip("FLUSH");
        c.roundtrip("QUERY two");
        let body = c.scrape_metrics();
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
        let again = c.scrape_metrics();
        invidx_obs::parse_prometheus(&again).unwrap();
        srv.shutdown();
    }

    #[test]
    fn stats_over_the_wire() {
        let srv = server();
        let mut c = Client::connect(srv.addr());
        c.roundtrip("ADD one two three");
        c.roundtrip("FLUSH");
        c.roundtrip("QUERY two");
        c.roundtrip("QUERY two");
        let reply = c.roundtrip("STATS");
        let resp = parse_response(&reply).unwrap().unwrap();
        let Payload::Stats(stats) = resp.payload else { panic!("want stats: {reply}") };
        assert_eq!(stats.docs, 1);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.cache_hits, 1);
        srv.shutdown();
    }
}
