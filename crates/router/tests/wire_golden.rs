//! The "same functionality" oracle of the one-listener-loop refactor:
//! one scripted session per endpoint, compared with the literal reply
//! lines the two separate servers of the parent commit (PR 23) gave.
//! Engines are log-less and fresh, so epochs, ids, scores and counters
//! repeat exactly.

mod common;

use common::{connect, routed, shard};
use invidx_core::index::IndexConfig;
use invidx_durable::{DurableOptions, StoreGeometry};
use invidx_ir::DurableEngine;
use invidx_router::{parse_routed_response, RoutedResponse};
use invidx_serve::{Client, Payload, QueryService, Request, ServeConfig, Server, Stamp};
use std::io::ErrorKind;
use std::net::SocketAddr;
use std::sync::Arc;

/// Play `script` (request line, expected reply line) against `addr`, then
/// the METRICS header and `QUIT`.
fn play<S: Stamp + PartialEq + std::fmt::Debug>(
    addr: SocketAddr,
    script: &[(&str, &str)],
    metrics_stamp: S,
    tail: &[(&str, &str)],
) {
    let mut client = connect(addr);
    let turns = |client: &mut Client, script: &[(&str, &str)]| {
        for (request, want) in script {
            assert_eq!(client.line(request).unwrap(), *want, "reply to {request:?}");
        }
    };
    turns(&mut client, script);
    // The body is the process-wide registry, so only the header is
    // golden: the stamp, and a line count the body then honours.
    let mut lines = 0;
    let count = |_: &str| {
        lines += 1;
        Ok(())
    };
    let stamp: S = client.framed("METRICS", "METRICS", count).unwrap().unwrap();
    assert_eq!(stamp, metrics_stamp);
    assert!(lines > 0, "an empty exposition");
    turns(&mut client, tail);
    // QUIT has no reply line: the server closes the connection.
    assert_eq!(client.line("QUIT").unwrap_err().kind(), ErrorKind::UnexpectedEof);
}

#[test]
fn shard_session_matches_the_parent_byte_for_byte() {
    let server = shard();
    play(
        server.addr(),
        &[
            ("PING", "OK 0 PONG"),
            ("ADD the cat sat on the mat", "OK 0 ADDED 1"),
            ("ADD the dog chased the cat", "OK 0 ADDED 2"),
            ("FLUSH", "OK 1 FLUSHED 9"),
            ("QUERY cat and dog", "OK 1 DOCS 1 2"),
            ("PHRASE the cat", "OK 1 DOCS 2 1 2"),
            ("NEAR cat dog 3", "OK 1 DOCS 1 2"),
            ("LIKE 2 cat mat", "OK 1 HITS 2 1:1.791759469228055 2:0.6931471805599453"),
            ("RANK 2 cat dog", "OK 1 HITS 2 2:1.8609690624600401 1:0.6682932975916605"),
            ("DOC 1", "OK 1 TEXT the cat sat on the mat"),
            ("DOC 9", "OK 1 NONE"),
            (
                "STATS",
                "OK 1 STATS docs=2 queries=9 cache_hits=0 cache_misses=5 cache_evictions=0 \
                 cache_stale_drops=0 shed=0 timeouts=0 batches=1",
            ),
        ],
        1u64,
        &[
            ("BOGUS verb", "ERR badrequest bad request: unknown verb \"BOGUS\""),
            ("QUERY (cat and", "ERR badrequest bad request: expected word or '(', found None"),
            ("ADD", "ERR badrequest bad request: ADD needs document text"),
            ("CHECKPOINT", "ERR badrequest bad request: engine has no durability layer"),
            (
                "WALTAIL x",
                "ERR badrequest bad request: WALTAIL from_batch: invalid digit found in string",
            ),
            ("WALTAIL 0", "ERR engine engine error: engine has no write-ahead log"),
            ("\u{e9}t\u{e9} caf\u{e9}", "ERR badrequest bad request: unknown verb \"\u{e9}T\u{e9}\""),
            ("ADD caf\u{e9} \"quoted\" back\\slash", "OK 1 ADDED 1"),
            ("FLUSH", "OK 2 FLUSHED 4"),
            ("DOC 3", "OK 2 TEXT caf\\u{e9} \\\"quoted\\\" back\\\\slash"),
            ("FLUSH", "OK 3 FLUSHED 0"),
            (
                "RANK 1001 cat",
                "ERR badrequest bad request: RANK k 1001 exceeds the configured ceiling 1000",
            ),
            ("DF cat dog", "OK 3 DF 3 15 2 2 1"),
        ],
    );
    server.shutdown();
}

#[test]
fn routed_session_matches_the_parent_byte_for_byte() {
    let server = routed();
    play(
        server.addr(),
        &[
            ("PING", "OK 0,0 PONG"),
            ("ADD the cat sat on the mat", "OK 0,0 ADDED 1"),
            ("ADD the dog chased the cat", "OK 0,0 ADDED 2"),
            // Documents here, postings on a shard: the one operand the
            // two dialects disagree on.
            ("FLUSH", "OK 1,1 FLUSHED 2"),
            ("QUERY cat and dog", "OK 1,1 DOCS 1 2"),
            ("PHRASE the cat", "OK 1,1 DOCS 2 1 2"),
            ("NEAR cat dog 3", "OK 1,1 DOCS 1 2"),
            ("LIKE 2 cat mat", "OK 1,1 HITS 2 1:1.791759469228055 2:0.6931471805599453"),
            ("RANK 2 cat dog", "OK 1,1 HITS 2 2:1.8609690624600401 1:0.6682932975916605"),
            ("DOC 1", "OK 1,1 TEXT the cat sat on the mat"),
            ("DOC 9", "OK 1,1 NONE"),
            (
                "STATS",
                "OK 1,1 STATS docs=2 queries=19 cache_hits=0 cache_misses=6 cache_evictions=0 \
                 cache_stale_drops=0 shed=0 timeouts=0 batches=2",
            ),
        ],
        vec![1u64, 1],
        &[
            ("BOGUS verb", "ERR badrequest bad request: unknown verb \"BOGUS\""),
            ("QUERY (cat and", "ERR badrequest bad request: expected word or '(', found None"),
            ("ADD", "ERR badrequest bad request: ADD needs document text"),
            // The durability verbs stay with the shards.
            ("CHECKPOINT", "ERR badrequest bad request: unknown verb \"CHECKPOINT\""),
            ("WALTAIL 0", "ERR badrequest bad request: unknown verb \"WALTAIL\""),
            ("\u{e9}t\u{e9} caf\u{e9}", "ERR badrequest bad request: unknown verb \"\u{e9}T\u{e9}\""),
            ("ADD caf\u{e9} \"quoted\" back\\slash", "OK 1,1 ADDED 1"),
            ("FLUSH", "OK 2,1 FLUSHED 1"),
            ("DOC 3", "OK 2,1 TEXT caf\\u{e9} \\\"quoted\\\" back\\\\slash"),
            ("FLUSH", "OK 2,1 FLUSHED 0"),
            // The router turns RANK into WRANK, which has no ceiling.
            ("RANK 1001 cat", "OK 2,1 HITS 2 2:0.9162907318741551 1:0.8469914328248495"),
            ("DF cat dog", "OK 2,1 DF 3 15 2 2 1"),
        ],
    );
    server.shutdown();
}

/// The shard-only verbs over a store that has a log: the framed WALTAIL
/// reply and CHECKPOINT, byte for byte as the parent gave them.
#[test]
fn durable_shard_ships_its_log_as_the_parent_did() {
    let dir = std::env::temp_dir().join(format!("invidx-wire-golden-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let engine = DurableEngine::create(
        &dir,
        IndexConfig::small(),
        StoreGeometry { disks: 2, blocks_per_disk: 20_000, block_size: 256 },
        DurableOptions { checkpoint_every: 0, ..Default::default() },
    )
    .unwrap();
    let service = Arc::new(QueryService::with_config(engine, ServeConfig::default()).unwrap());
    let server = Server::bind("127.0.0.1:0", service, ServeConfig::default()).unwrap();
    let mut client = connect(server.addr());
    let waltail = |client: &mut Client, from: u64| {
        let mut body = Vec::new();
        let collect = |line: &str| {
            body.push(line.to_string());
            Ok(())
        };
        let epoch: u64 =
            client.framed(&format!("WALTAIL {from}"), "WALTAIL", collect).unwrap().unwrap();
        (epoch, body)
    };
    const FIRST: &str = "0101000000000000000300000001000000000000000100000001000000020000000000\
        0000010000000100000003000000000000000100000001000000000000001700000001000000010000000b\
        0000007468652063617420736174";
    const SECOND: &str = "0102000000000000000200000004000000000000000100000002000000050000000000\
        0000010000000200000000000000110000000100000002000000050000006120646f67";
    assert_eq!(waltail(&mut client, 0), (0, vec![]));
    assert_eq!(client.line("ADD the cat sat").unwrap(), "OK 0 ADDED 1");
    assert_eq!(client.line("FLUSH").unwrap(), "OK 1 FLUSHED 3");
    assert_eq!(client.line("ADD a dog").unwrap(), "OK 1 ADDED 1");
    assert_eq!(client.line("FLUSH").unwrap(), "OK 2 FLUSHED 2");
    assert_eq!(
        waltail(&mut client, 0),
        (2, vec![FIRST.to_string(), SECOND.to_string()])
    );
    assert_eq!(waltail(&mut client, 1), (2, vec![SECOND.to_string()]));
    assert_eq!(waltail(&mut client, 2), (2, vec![]));
    assert_eq!(client.line("CHECKPOINT").unwrap(), "OK 2 CHECKPOINTED 8132");
    assert_eq!(waltail(&mut client, 0), (2, vec![]));
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// `parse_routed_response` against what a real routed socket sends, not
/// only against `to_wire`: for every payload kind the line on the wire
/// parses back to the answer the router gives in process.
#[test]
fn routed_replies_round_trip_through_a_real_socket() {
    let server = routed();
    let router = Arc::clone(server.service());
    router.ingest(&["the cat sat on the mat", "the dog chased the cat", "a mouse ran"]).unwrap();
    let mut client = connect(server.addr());
    for request in [
        Request::Ping,
        Request::Boolean("cat or mouse".into()),
        Request::Phrase("the cat".into()),
        Request::Near("cat".into(), "dog".into(), 3),
        Request::Like(3, "cat mouse".into()),
        Request::Rank(2, "dog cat".into()),
        Request::Df(vec!["cat".into(), "nope".into()]),
        Request::Doc(2),
        Request::Doc(40),
    ] {
        let line = client.line(&request.to_wire()).unwrap();
        let parsed = parse_routed_response(&line).unwrap().unwrap();
        let local = router.execute(&request).unwrap();
        assert_eq!(parsed, local, "{line:?}");
        assert_eq!(line, local.to_wire());
        assert_eq!(parsed.epochs, vec![1, 1]);
    }
    // STATS moves with every request, so only its shape is comparable.
    let line = client.line("STATS").unwrap();
    let RoutedResponse { epochs, payload: Payload::Stats(stats) } =
        parse_routed_response(&line).unwrap().unwrap()
    else {
        panic!("want stats: {line}")
    };
    assert_eq!((epochs, stats.docs, stats.batches), (vec![1, 1], 3, 2));
    let err = parse_routed_response(&client.line("NEAR cat").unwrap()).unwrap().unwrap_err();
    assert_eq!(err.code(), "badrequest");
    server.shutdown();
}
