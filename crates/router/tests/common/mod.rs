//! Both endpoints of the line protocol, over log-less engines so every
//! epoch, id and counter a test sees is deterministic.
#![allow(dead_code)]

use invidx_core::index::IndexConfig;
use invidx_disk::sparse_array;
use invidx_ir::DurableEngine;
use invidx_router::{LocalShard, Partitioner, ReadPolicy, ReplicaSet, Router, ShardBackend};
use invidx_serve::{Client, Frontend, QueryService, ServeConfig, Server};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

pub fn service() -> Arc<QueryService<DurableEngine>> {
    let engine =
        DurableEngine::without_log(sparse_array(2, 50_000, 256), IndexConfig::small()).unwrap();
    Arc::new(QueryService::with_config(engine, ServeConfig::default()).unwrap())
}

/// One shard behind its admission front end.
pub fn shard() -> Server<Frontend<DurableEngine>> {
    Server::bind("127.0.0.1:0", service(), ServeConfig::default()).unwrap()
}

/// A router over two in-process shards, documents dealt out alternately.
pub fn routed() -> Server<Router<DurableEngine>> {
    let mut writers = Vec::new();
    let mut readers = Vec::new();
    for shard in 0..2 {
        let service = service();
        let backend: Arc<dyn ShardBackend> =
            Arc::new(LocalShard::new(Arc::clone(&service), format!("shard-{shard}")));
        writers.push(service);
        readers.push(ReplicaSet::new(vec![backend]).unwrap());
    }
    let partitioner = Partitioner::Range { shards: 2, chunk: 1 };
    let router = Router::new(writers, readers, partitioner, ReadPolicy::default()).unwrap();
    Server::start("127.0.0.1:0", Arc::new(router)).unwrap()
}

pub fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr, Duration::from_secs(30)).unwrap()
}
