//! The listener loop against clients that do not play by the protocol,
//! and against plain connection churn — once per endpoint, because there
//! is one loop. Nothing a socket sends may panic a thread, grow a buffer
//! without bound, or cost the server a descriptor it never gets back.
//!
//! Both tests read process-wide state (the descriptor table, thread
//! names, the queue-depth gauge), so they take turns.

mod common;

use common::{connect, routed, shard};
use invidx_serve::wire::{MAX_LINE_BYTES, MAX_STAGED_BYTES};
use invidx_serve::{Endpoint, Server};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static TURN: Mutex<()> = Mutex::new(());

fn raw(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn reply(reader: &mut impl BufRead) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line
}

/// Threads of this process whose name starts with `prefix`.
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.unwrap().path().join("comm")).ok())
        .filter(|comm| comm.starts_with(prefix))
        .count()
}

fn open_descriptors() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

fn queue_depth() -> i64 {
    let snap = invidx_obs::snapshot();
    snap.gauges.iter().find(|(name, _)| name == "serve_queue_depth").map_or(0, |(_, v)| *v)
}

fn hostile_session<S: Endpoint>(server: Server<S>) {
    let addr = server.addr();

    // Bytes that are not UTF-8: answered, and the connection lives on.
    let (mut stream, mut reader) = raw(addr);
    stream.write_all(b"QUERY \xff\xfe\xfd\n\xc3\x28\nPING\n").unwrap();
    for _ in 0..2 {
        let line = reply(&mut reader);
        assert!(line.starts_with("ERR badrequest ") && line.contains("UTF-8"), "{line:?}");
    }
    assert!(reply(&mut reader).ends_with(" PONG\n"));

    // Two MiB with no newline: answered once the cap is crossed, then
    // closed — the loop never holds more than the cap.
    let (mut stream, mut reader) = raw(addr);
    let flood = std::thread::spawn(move || {
        // The server stops reading at the cap; the rest may not fit.
        let _ = stream.write_all(&vec![b'a'; 2 * MAX_LINE_BYTES]);
    });
    let line = reply(&mut reader);
    assert!(line.starts_with("ERR badrequest ") && line.contains("exceeds"), "{line:?}");
    flood.join().unwrap();
    let mut rest = Vec::new();
    let _ = reader.read_to_end(&mut rest);
    assert!(rest.is_empty(), "nothing follows the refusal");

    // Half a line, then the client is gone.
    let (mut stream, _) = raw(addr);
    stream.write_all(b"QUER").unwrap();
    drop(stream);
    // Half a line, then only the sending side closes: the tail is still
    // a request, as it always was.
    let (mut stream, mut reader) = raw(addr);
    stream.write_all(b"PING").unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    assert!(reply(&mut reader).ends_with(" PONG\n"));
    assert_eq!(reply(&mut reader), "", "then the server closes too");

    // Pipelined garbage: one reply per non-empty line, all typed.
    let (mut stream, mut reader) = raw(addr);
    let mut garbage = Vec::new();
    for i in 0..500u32 {
        garbage.extend_from_slice(match i % 5 {
            0 => b"\x00\x01\x02 \x7f\n".as_slice(),
            1 => b"NEAR only two\n",
            2 => b"DOC -1\n",
            3 => b"WLIKE 1 9 a:zz\n",
            _ => b"))))((((\r\n",
        });
        garbage.extend_from_slice(b"\n   \n");
    }
    stream.write_all(&garbage).unwrap();
    for _ in 0..500 {
        let line = reply(&mut reader);
        assert!(line.starts_with("ERR badrequest "), "{line:?}");
    }
    assert!(connect(addr).line("PING").unwrap().ends_with(" PONG"));
    drop(stream);

    // 100k ADDs and never a FLUSH: the batch stops growing at its cap.
    let (mut stream, reader) = raw(addr);
    let replies = std::thread::spawn(move || {
        let lines: Vec<String> = reader.lines().map_while(Result::ok).collect();
        lines
    });
    let text = "w".repeat(200);
    for _ in 0..100_000 {
        // Refused part-way: the rest has nowhere to go.
        if writeln!(stream, "ADD {text}").is_err() {
            break;
        }
    }
    let replies = replies.join().unwrap();
    let (last, added) = replies.split_last().unwrap();
    let per_document = text.len() + std::mem::size_of::<String>();
    assert_eq!(added.len(), MAX_STAGED_BYTES / per_document);
    assert!(added.iter().all(|line| line.starts_with("OK ") && line.contains(" ADDED ")));
    assert!(last.starts_with("ERR badrequest ") && last.contains("FLUSH"), "{last:?}");

    // After all that a well-formed client is served as if nothing
    // happened, and nothing staged by the others leaked into the index.
    let mut client = connect(addr);
    assert!(client.line("ADD the cat sat on the mat").unwrap().ends_with(" ADDED 1"));
    assert!(client.line("FLUSH").unwrap().contains(" FLUSHED "));
    assert!(client.line("QUERY cat").unwrap().ends_with(" DOCS 1 1"));
    assert!(client.line("QUERY w").unwrap().ends_with(" DOCS 0"));

    // Shutdown joins every connection thread, the idle ones included.
    let idle = connect(addr);
    server.shutdown();
    assert_eq!(threads_named(&format!("{}-conn", S::NAME)), 0);
    assert_eq!(queue_depth(), 0);
    assert_eq!(client.line("PING").unwrap_err().kind(), ErrorKind::UnexpectedEof);
    drop(idle);
}

#[test]
fn hostile_clients_cost_the_server_nothing() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    hostile_session(shard());
    hostile_session(routed());
}

/// 200 connect/PING/close cycles must leave the descriptor table where
/// it was: a closed connection gives its socket back while the server
/// runs. (The accept loop used to park a clone of every socket it ever
/// accepted until shutdown: 200 cycles, 200 descriptors.)
fn churn<S: Endpoint>(server: Server<S>) {
    let addr = server.addr();
    // One cycle first, so lazily opened descriptors are in the baseline.
    assert!(connect(addr).line("PING").unwrap().ends_with(" PONG"));
    let before = open_descriptors();
    for _ in 0..200 {
        assert!(connect(addr).line("PING").unwrap().ends_with(" PONG"));
    }
    // The last few connection threads may still be on their way out.
    let deadline = Instant::now() + Duration::from_secs(10);
    while open_descriptors() > before + 4 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let after = open_descriptors();
    assert!(after <= before + 4, "{} descriptors leaked over 200 connections", after - before);
    server.shutdown();
}

#[test]
fn closed_connections_give_their_descriptors_back() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    churn(shard());
    churn(routed());
}
