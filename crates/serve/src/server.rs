//! The threaded server: a TCP acceptor feeding a bounded connection queue
//! drained by a fixed worker pool.
//!
//! Backpressure is explicit and typed: when the queue is full the acceptor
//! answers `503 Service Unavailable` *immediately* and drops the
//! connection — memory is bounded by `queue_cap` parked sockets plus one
//! in-flight request per worker, never by client count. Workers own whole
//! keep-alive connections (requests on one connection are sequential, as
//! HTTP/1.1 pipelining semantics require); parallelism comes from
//! connections, not from splitting a connection.
//!
//! Request handlers may freely call into `tensor`'s parallel kernels: the
//! persistent `tensor::parallel` pool lets at most one broadcast through at
//! a time and every other caller (including these request workers, which
//! race each other and any concurrent training) runs its region inline on
//! its own thread — same bits either way, and no pool-related deadlock or
//! cross-request stall is possible by construction.
//!
//! # Lifecycle
//!
//! Requests are routed against the [`EngineSlot`]'s *current* engine,
//! fetched per request — so a hot reload or compaction is visible to the
//! very next request, even on a kept-alive connection, while the request
//! that is mid-flight finishes on the engine it started with.
//!
//! [`Server::shutdown`] drains instead of abandoning: the acceptor stops
//! taking connections (late arrivals get a typed 503), queued and
//! in-flight connections finish their buffered requests (answered with
//! `Connection: close`) up to `ServerConfig::drain_deadline`, and only
//! then do the workers exit and join. The queue wakes its waiters with an
//! explicit `notify_all` — drain latency is bounded by work, not polling.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gnn4tdl_tensor::{obs, GnnError};

use crate::engine::{Engine, EngineSlot};
use crate::http::{self, Limits, ParseOutcome, Request};
use crate::json;

/// Server tunables. `addr` with port 0 binds an ephemeral port (tests);
/// `queue_cap` is the backpressure knob.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    pub addr: String,
    pub workers: usize,
    pub queue_cap: usize,
    pub limits: Limits,
    /// Idle keep-alive connections are dropped after this long without a
    /// complete request, so a stalled client can never wedge a worker.
    pub read_timeout: Duration,
    /// How long [`Server::shutdown`] lets in-flight and queued work finish
    /// before closing connections mid-request.
    pub drain_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_cap: 64,
            limits: Limits::default(),
            read_timeout: Duration::from_secs(5),
            drain_deadline: Duration::from_secs(5),
        }
    }
}

/// Bounded MPMC connection queue. `close()` wakes every waiter with
/// `notify_all` — no timed polling anywhere in the wait loop.
struct ConnQueue {
    inner: Mutex<QueueState>,
    ready: Condvar,
    cap: usize,
}

struct QueueState {
    conns: VecDeque<TcpStream>,
    closed: bool,
}

impl ConnQueue {
    fn new(cap: usize) -> Self {
        ConnQueue {
            inner: Mutex::new(QueueState { conns: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
            cap,
        }
    }

    /// Non-blocking: a full (or closed) queue returns the stream to the
    /// caller so the acceptor can answer 503 instead of parking unbounded
    /// sockets.
    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut q = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if q.closed || q.conns.len() >= self.cap {
            return Err(stream);
        }
        q.conns.push_back(stream);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until a connection arrives or the queue is closed *and*
    /// empty — queued connections are always served before workers exit.
    fn pop(&self) -> Option<TcpStream> {
        let mut q = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(s) = q.conns.pop_front() {
                return Some(s);
            }
            if q.closed {
                return None;
            }
            q = self.ready.wait(q).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Stops accepting pushes and wakes every parked worker. The flag is
    /// set under the same mutex the waiters hold, so no wakeup can be
    /// missed.
    fn close(&self) {
        let mut q = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        q.closed = true;
        drop(q);
        self.ready.notify_all();
    }
}

/// Drain coordination shared by the acceptor and the workers: the flag
/// flips when `shutdown()` is called, and the deadline bounds how long
/// partially-read requests may keep a worker alive.
struct DrainState {
    draining: AtomicBool,
    deadline: Mutex<Option<Instant>>,
}

impl DrainState {
    fn begin(&self, grace: Duration) {
        *self.deadline.lock().unwrap_or_else(|p| p.into_inner()) = Some(Instant::now() + grace);
        self.draining.store(true, Ordering::SeqCst);
    }

    fn active(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn expired(&self) -> bool {
        self.deadline
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .is_some_and(|deadline| Instant::now() >= deadline)
    }
}

/// A running server. Dropping without `shutdown()` detaches the threads;
/// call `shutdown()` for a graceful drain + join (tests always should).
pub struct Server {
    addr: SocketAddr,
    drain: Arc<DrainState>,
    drain_deadline: Duration,
    queue: Arc<ConnQueue>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful drain: stop accepting, let workers finish in-flight and
    /// queued connections up to the drain deadline, then join everything.
    pub fn shutdown(mut self) {
        self.drain.begin(self.drain_deadline);
        // Unblock the acceptor's blocking accept() with a throwaway connect.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // With the acceptor joined nothing pushes anymore; closing wakes
        // every parked worker, and pop() drains the queue before None.
        self.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Binds, spawns the acceptor + workers, and returns the handle. Requests
/// route against `slot.current()`, so swaps (compaction, `/admin/reload`)
/// take effect per request with zero downtime.
pub fn serve(slot: Arc<EngineSlot>, config: ServerConfig) -> std::io::Result<Server> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let drain = Arc::new(DrainState { draining: AtomicBool::new(false), deadline: Mutex::new(None) });
    let queue = Arc::new(ConnQueue::new(config.queue_cap.max(1)));
    let drain_deadline = config.drain_deadline;

    let mut workers = Vec::with_capacity(config.workers.max(1));
    for _ in 0..config.workers.max(1) {
        let slot = Arc::clone(&slot);
        let queue = Arc::clone(&queue);
        let drain = Arc::clone(&drain);
        let cfg = config.clone();
        workers.push(std::thread::spawn(move || {
            while let Some(stream) = queue.pop() {
                serve_connection(&slot, stream, &cfg, &drain);
                if drain.active() {
                    obs::counter_add("serve.drained", 1);
                }
            }
        }));
    }

    let acceptor = {
        let slot = Arc::clone(&slot);
        let queue = Arc::clone(&queue);
        let drain = Arc::clone(&drain);
        std::thread::spawn(move || loop {
            match listener.accept() {
                Ok((mut stream, _)) => {
                    if drain.active() {
                        // Late arrival during drain: typed, retryable, and
                        // never queued (the queue is about to close).
                        let body = json::error_body("draining", "server is draining; retry elsewhere");
                        let _ = stream.write_all(&respond(&slot, 503, "Service Unavailable", &body, false));
                        return;
                    }
                    if let Err(mut rejected) = queue.push(stream) {
                        obs::counter_add("serve.requests", 1);
                        obs::counter_add("serve.errors", 1);
                        obs::counter_add("serve.rejected", 1);
                        let body = json::error_body("overloaded", "connection queue is full; retry later");
                        let _ = rejected.write_all(&respond(&slot, 503, "Service Unavailable", &body, false));
                    }
                }
                Err(_) => {
                    if drain.active() {
                        return;
                    }
                }
            }
        })
    };

    Ok(Server { addr, drain, drain_deadline, queue, acceptor: Some(acceptor), workers })
}

/// Encodes a response stamped with the serving snapshot generation, so
/// clients can detect mid-session reloads on any endpoint.
fn respond(slot: &EngineSlot, status: u16, reason: &str, body: &str, keep_alive: bool) -> Vec<u8> {
    let generation = slot.current().generation().to_string();
    http::encode_response_with(status, reason, body, keep_alive, &[("X-Snapshot-Generation", generation)])
}

/// Read slice length: short enough that a drain request is noticed
/// promptly, long enough to stay out of the way of normal keep-alive
/// waits (idle time still accumulates against `read_timeout`).
const READ_SLICE: Duration = Duration::from_millis(100);

/// Runs one connection to completion: parse → route → respond, repeating
/// while keep-alive holds. Protocol errors answer with their typed status
/// and close; the parser's `consumed` offset makes pipelining work.
///
/// During a drain, buffered complete requests are still answered (with
/// `Connection: close`), an idle connection closes immediately, and a
/// partially-read request gets until the drain deadline to finish
/// arriving.
fn serve_connection(slot: &Arc<EngineSlot>, mut stream: TcpStream, cfg: &ServerConfig, drain: &DrainState) {
    let _ = stream.set_read_timeout(Some(READ_SLICE));
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 8192];
    let mut idle = Duration::ZERO;
    loop {
        match http::parse_request(&buf, &cfg.limits) {
            ParseOutcome::Complete(request, consumed) => {
                buf.drain(..consumed);
                idle = Duration::ZERO;
                let started = Instant::now();
                let _span = gnn4tdl_tensor::span!("serve.request");
                obs::counter_add("serve.requests", 1);
                // An engine per request (not per connection): a reload or
                // compaction swap is visible to the next request.
                let engine = slot.current();
                let draining = drain.active();
                let keep_alive = request.keep_alive && !draining;
                let (status, reason, body) = route(slot, &engine, &request);
                if status >= 400 {
                    obs::counter_add("serve.errors", 1);
                }
                obs::histogram_record("serve.latency_ms", started.elapsed().as_secs_f64() * 1e3);
                if stream.write_all(&respond(slot, status, reason, &body, keep_alive)).is_err() {
                    return;
                }
                // Durable engines fold retained rows into a new snapshot
                // generation once the cap is reached; a failure (e.g. an
                // injected install fault) leaves the old generation
                // serving and is retried after a later request.
                if let Err(e) = slot.compact_if_needed() {
                    obs::counter_add("serve.compaction_failures", 1);
                    let _ = e;
                }
                if !keep_alive {
                    return;
                }
            }
            ParseOutcome::Incomplete => {
                if drain.active() && (buf.is_empty() || drain.expired()) {
                    // Idle connections close as soon as the drain starts;
                    // half-received requests get until the deadline.
                    return;
                }
                match stream.read(&mut chunk) {
                    Ok(0) => return, // client closed
                    Ok(n) => {
                        buf.extend_from_slice(&chunk[..n]);
                        idle = Duration::ZERO;
                    }
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        // One quiet read slice; only cumulative quiet time
                        // counts against the keep-alive timeout.
                        idle += READ_SLICE;
                        if idle >= cfg.read_timeout {
                            return;
                        }
                    }
                    Err(_) => return, // reset
                }
            }
            ParseOutcome::Error(e) => {
                obs::counter_add("serve.requests", 1);
                obs::counter_add("serve.errors", 1);
                let body = json::error_body("protocol", &e.detail);
                let _ = stream.write_all(&respond(slot, e.status, e.reason, &body, false));
                return;
            }
        }
    }
}

fn route(slot: &Arc<EngineSlot>, engine: &Engine, request: &Request) -> (u16, &'static str, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let body = format!(
                "{{\"status\": \"ok\", \"corpus_rows\": {}, \"in_dim\": {}, \"classes\": {}, \"served\": {}, \
                 \"retained_requests\": {}, \"snapshot_generation\": {}, \"wal_records\": {}, \
                 \"last_compaction\": {}, \"durable\": {}}}",
                engine.corpus_len(),
                engine.in_dim(),
                engine.num_classes(),
                engine.served(),
                engine.retained_requests(),
                engine.generation(),
                engine.wal_records(),
                engine.last_compaction(),
                engine.is_durable(),
            );
            (200, "OK", body)
        }
        ("GET", "/metrics") => (200, "OK", obs::collect("serve").to_json()),
        ("POST", "/predict") => predict_route(engine, &request.body, false),
        ("POST", "/predict_proba") => predict_route(engine, &request.body, true),
        ("POST", "/admin/reload") => reload_route(slot, &request.body),
        ("GET" | "POST", _) => (404, "Not Found", json::error_body("not_found", &request.path)),
        _ => (405, "Method Not Allowed", json::error_body("method_not_allowed", &request.method)),
    }
}

/// `POST /admin/reload` — body `{}` (or empty) rescans the state dir for a
/// newer generation; `{"snapshot": "/path/to/model.gsrv"}` loads that
/// file. Either way validation happens before the swap: a bad snapshot is
/// a typed error and the old generation keeps serving.
fn reload_route(slot: &Arc<EngineSlot>, body: &[u8]) -> (u16, &'static str, String) {
    let snapshot = if body.is_empty() {
        None
    } else {
        let text = match std::str::from_utf8(body) {
            Ok(t) => t,
            Err(_) => return (400, "Bad Request", json::error_body("bad_request", "body is not utf-8")),
        };
        match json::parse(text) {
            Ok(doc) => match doc.get("snapshot") {
                Some(v) => match v.as_str() {
                    Some(path) => Some(path.to_string()),
                    None => {
                        return (
                            400,
                            "Bad Request",
                            json::error_body("bad_request", "'snapshot' must be a string path"),
                        )
                    }
                },
                None => None,
            },
            Err(e) => {
                return (400, "Bad Request", json::error_body("bad_request", &format!("invalid json: {e}")))
            }
        }
    };
    match slot.reload(snapshot.as_deref().map(std::path::Path::new)) {
        Ok(generation) => {
            (200, "OK", format!("{{\"status\": \"reloaded\", \"snapshot_generation\": {generation}}}"))
        }
        Err(e) => {
            obs::counter_add("serve.reload_failures", 1);
            error_response(&e)
        }
    }
}

/// Shared handler for the two predict endpoints; `proba` selects which
/// vector the response carries.
fn predict_route(engine: &Engine, body: &[u8], proba: bool) -> (u16, &'static str, String) {
    let (rows, single) = match parse_body(body, engine.in_dim()) {
        Ok(parsed) => parsed,
        Err(detail) => return (400, "Bad Request", json::error_body("bad_request", &detail)),
    };
    match engine.predict_batch(&rows) {
        Ok(predictions) => {
            let mut out = String::with_capacity(64 * predictions.len());
            let vector = |p: &gnn4tdl::servable::LocalPrediction| {
                if proba {
                    p.proba.clone()
                } else {
                    p.logits.clone()
                }
            };
            let field = if proba { "proba" } else { "logits" };
            if single {
                let p = &predictions[0];
                out.push_str("{\"pred\": ");
                out.push_str(&argmax(&p.proba).to_string());
                out.push_str(&format!(", \"{field}\": "));
                json::write_f32_array(&mut out, &vector(p));
                out.push('}');
            } else {
                out.push_str("{\"preds\": [");
                for (i, p) in predictions.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&argmax(&p.proba).to_string());
                }
                let batch_field = if proba { "probas" } else { "logits" };
                out.push_str(&format!("], \"{batch_field}\": ["));
                for (i, p) in predictions.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    json::write_f32_array(&mut out, &vector(p));
                }
                out.push_str("]}");
            }
            (200, "OK", out)
        }
        Err(e) => error_response(&e),
    }
}

/// Request body → feature rows. Accepts `{"row": [..]}` (single) or
/// `{"rows": [[..], ..]}` (batch); anything else is a typed 400.
fn parse_body(body: &[u8], in_dim: usize) -> Result<(Vec<Vec<f32>>, bool), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    let doc = json::parse(text).map_err(|e| format!("invalid json: {e}"))?;
    if let Some(row) = doc.get("row") {
        return Ok((vec![parse_row(row, in_dim)?], true));
    }
    if let Some(rows) = doc.get("rows") {
        let items = rows.as_array().ok_or_else(|| "'rows' must be an array of arrays".to_string())?;
        if items.is_empty() {
            return Err("'rows' is empty".into());
        }
        let rows = items.iter().map(|r| parse_row(r, in_dim)).collect::<Result<Vec<_>, _>>()?;
        return Ok((rows, false));
    }
    Err("body must be an object with 'row' or 'rows'".into())
}

fn parse_row(value: &json::Json, in_dim: usize) -> Result<Vec<f32>, String> {
    let items = value.as_array().ok_or_else(|| "row must be an array of numbers".to_string())?;
    if items.len() != in_dim {
        return Err(format!("row has {} features, model expects {in_dim}", items.len()));
    }
    items
        .iter()
        .map(|v| {
            let x = v.as_f64().ok_or_else(|| "row entries must be numbers".to_string())?;
            // The JSON layer only guarantees a finite f64; a value like
            // 1e300 overflows the f32 cast, and a non-finite feature must
            // be a typed 400 before it can reach the engine (or, worse,
            // the incremental index).
            let f = x as f32;
            if !f.is_finite() {
                return Err(format!("row entry {x:e} is not a finite f32"));
            }
            Ok(f)
        })
        .collect()
}

fn argmax(proba: &[f32]) -> usize {
    let mut best = 0;
    for (i, &p) in proba.iter().enumerate() {
        if p > proba[best] {
            best = i;
        }
    }
    best
}

/// Maps engine errors to HTTP statuses: injected/transient I/O faults are
/// 503 (retryable), request-shape problems are 400, snapshot/WAL
/// integrity failures are 409 (the reload/compaction was refused, state
/// unchanged), anything else is 500.
fn error_response(e: &GnnError) -> (u16, &'static str, String) {
    match e {
        GnnError::Io { detail } => (503, "Service Unavailable", json::error_body("unavailable", detail)),
        GnnError::InvalidConfig { detail } => (400, "Bad Request", json::error_body("bad_request", detail)),
        GnnError::NonFiniteFeature { .. } => {
            (400, "Bad Request", json::error_body("bad_request", &e.to_string()))
        }
        GnnError::Checkpoint { detail } => (409, "Conflict", json::error_body("snapshot_rejected", detail)),
        other => (500, "Internal Server Error", json::error_body("internal", &other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::fitted;
    use gnn4tdl_construct::IndexKind;
    use gnn4tdl_tensor::fault;

    /// The keys of both predict endpoints' bodies, single and batch.
    #[test]
    fn predict_bodies_name_their_vectors() {
        let _guard = fault::TEST_MUTEX.lock().unwrap_or_else(|p| p.into_inner());
        let engine = Engine::new(fitted(IndexKind::Exact)).unwrap();
        let row = format!("[{}]", vec!["0.25"; engine.in_dim()].join(", "));
        let keys = |body: String, proba: bool| -> Vec<String> {
            let (status, _, out) = predict_route(&engine, body.as_bytes(), proba);
            assert_eq!(status, 200, "{out}");
            match json::parse(&out).unwrap() {
                json::Json::Obj(fields) => fields.into_iter().map(|(key, _)| key).collect(),
                other => panic!("body is not an object: {other:?}"),
            }
        };
        let single = format!("{{\"row\": {row}}}");
        let batch = format!("{{\"rows\": [{row}, {row}]}}");
        assert_eq!(keys(single.clone(), false), ["pred", "logits"]);
        assert_eq!(keys(single, true), ["pred", "proba"]);
        assert_eq!(keys(batch.clone(), false), ["preds", "logits"]);
        assert_eq!(keys(batch, true), ["preds", "probas"]);
    }
}
