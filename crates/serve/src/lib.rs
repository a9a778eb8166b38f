//! # gnn4tdl-serve
//!
//! Online inference for gnn4tdl servable models: a dependency-free
//! threaded HTTP/1.1 + JSON server, hand-rolled the way `shims/`
//! hand-rolled rand and proptest — no tokio, no axum, no serde.
//!
//! ## Request lifecycle
//!
//! 1. The acceptor thread takes the TCP connection and pushes it onto a
//!    **bounded** queue; a full queue is answered `503` immediately
//!    (typed backpressure, bounded memory).
//! 2. A worker pops the connection and owns it for its keep-alive
//!    lifetime. [`http::parse_request`] frames each request (typed 4xx on
//!    protocol violations; `consumed` offsets make pipelining exact).
//! 3. `POST /predict` / `POST /predict_proba` bodies are parsed by the
//!    workspace JSON parser ([`json`], from `gnn4tdl-tensor`), then the
//!    request's rows go through [`engine::Engine::predict_batch`]: neighbor
//!    lookup (exact, or HNSW insert-then-query under `IndexKind::Hnsw`)
//!    followed by a local-subgraph forward pass — O(neighborhood) per
//!    request, never O(corpus).
//! 4. `GET /healthz` reports model shape and served count; `GET /metrics`
//!    dumps the obs `RunReport` (per-request spans, latency histogram,
//!    request/error counters).
//!
//! ## Determinism contract
//!
//! Under `IndexKind::Exact` serving is stateless: responses are a pure
//! function of (snapshot, request row) and bitwise-identical across
//! reruns and thread counts. Under `IndexKind::Hnsw` each request inserts
//! its row, so responses are a pure function of (snapshot, request
//! *sequence*); the index rebuild from a snapshot is itself deterministic
//! (seeded level draws), so replaying the same sequence reproduces the
//! same responses.
//!
//! ## Durable serving state
//!
//! With a state directory ([`engine::Engine::durable`], CLI
//! `--state-dir`), every accepted incremental row is appended to a
//! checksummed, fsync'd write-ahead log *before* it enters the index
//! ([`wal`]); a restarted server replays the WAL and resumes
//! bitwise-identically (torn tails are truncated and counted, never
//! fatal). At the request cap the retained rows are folded into a new
//! `.gsrv` snapshot generation instead of thrown away, and
//! `POST /admin/reload` hot-swaps a new snapshot behind the
//! [`engine::EngineSlot`] handle with zero dropped requests.
//! [`server::Server::shutdown`] drains: in-flight and queued connections
//! finish (bounded by a deadline) before workers exit.
//!
//! The fault sites `servable.load` (snapshot load), `serve.request`
//! (per-request), and `wal.append` (durability) honor the `GNN4TDL_FAULT`
//! chaos harness; see `tests/chaos.rs` and `tests/recovery.rs`.

pub mod engine;
pub mod http;
pub mod server;
pub mod wal;

pub use engine::{Engine, EngineSlot, RecoveryStats};
pub use gnn4tdl_tensor::json::{self, Json};
pub use http::{HttpError, Limits, ParseOutcome, Request, Response};
pub use server::{serve, Server, ServerConfig};
pub use wal::{StateDir, Wal};

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Blocking one-shot HTTP client for tests and the bench harness: writes
/// `raw` to `addr`, reads until the response is complete (or the peer
/// closes), and returns the parsed response.
pub fn send_raw(addr: SocketAddr, raw: &[u8]) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(raw)?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 8192];
    loop {
        match http::parse_response(&buf) {
            Ok(Some((response, _))) => return Ok(response),
            Ok(None) => {}
            Err(detail) => return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, detail)),
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Convenience wrapper: one POST with a JSON body, fresh connection.
pub fn post_json(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<Response> {
    let raw = format!(
        "POST {path} HTTP/1.1\r\nHost: gnn4tdl\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    send_raw(addr, raw.as_bytes())
}

/// Convenience wrapper: one GET, fresh connection.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<Response> {
    let raw = format!("GET {path} HTTP/1.1\r\nHost: gnn4tdl\r\nConnection: close\r\n\r\n");
    send_raw(addr, raw.as_bytes())
}
