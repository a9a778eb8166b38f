//! The serve workloads.
//!
//! Set-up fits a servable GCN on a 10k-row corpus, builds its engine and
//! binds the in-process server with `ServerConfig::default()` (port 0).
//! The load is closed-loop: two client threads, each owning one keep-alive
//! connection, send a request only after the previous reply. Requests are
//! corpus rows plus a little noise, drawn from the seed. The traced phase
//! replays requests one at a time on a fresh engine built from the same
//! snapshot bytes, through the public calls the server makes.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gnn4tdl::servable::{LocalPrediction, ServableConfig, ServableModel};
use gnn4tdl::EncoderSpec;
use gnn4tdl_construct::{build_instance_graph_with, EdgeRule, IndexKind, Similarity};
use gnn4tdl_data::encode_all;
use gnn4tdl_serve::engine::DEFAULT_REQUEST_CAP;
use gnn4tdl_serve::json::{self, Json};
use gnn4tdl_serve::{
    http, serve, Engine, EngineSlot, Limits, ParseOutcome, Response, Server, ServerConfig, StateDir, Wal,
};
use gnn4tdl_tensor::{fnv1a64, kernel, pool, Matrix};
use gnn4tdl_train::{NeighborSampler, TrainConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::{mean, median, percentile, sorted, tail_percentile, Metrics, P99_SAMPLES};
use crate::probe;
use crate::trace::Tracer;
use crate::workload::{synthesize, Sample, CLASSES};
use crate::Outcome;

const CORPUS: usize = 10_000;
const HIDDEN: usize = 16;
const K: usize = 10;
/// Training epochs of the served model. At 8 the served accuracy still
/// ranged 0.88–0.93 across seeds; at 50 it settles at 0.96–0.98, and the
/// extra epochs cost 0.4 s of set-up next to 0.9 s of HNSW construction.
const EPOCHS: usize = 50;
const INDEX: IndexKind = IndexKind::Hnsw { m: 12, ef_construction: 64, ef_search: 48, seed: 17 };
const CLIENTS: usize = 2;
/// Requests sent before the measured window, one at a time.
const WARMUP: u64 = 20;
/// Set-ups per run; `setup_s` is their median and the last one serves.
const SETUPS: usize = 3;
/// Largest change a request row makes to each feature of its corpus row.
const NOISE: f32 = 0.05;
/// Replay rows reused for the batch-versus-single probe, in batches of
/// `PROBE_BATCH`.
const PROBE_ROWS: usize = 256;
const PROBE_BATCH: usize = 16;
/// Scratch WAL appends timed on serve-durable.
const WAL_APPENDS: usize = 1000;

/// What distinguishes the three serve workloads.
pub struct Plan {
    corpus: usize,
    rows_per_request: usize,
    /// The engine's request cap, in rows.
    cap: usize,
    durable: bool,
    /// The load ends on a multiple of this many requests, so every run
    /// covers whole cap cycles (one rebuild or compaction each).
    cycle: u64,
    /// Requests in the traced replay.
    replay: u64,
}

pub fn plan(workload: &str) -> Option<Plan> {
    match workload {
        // A cap no run reaches: the index never rebuilds.
        "serve-single" => Some(Plan {
            corpus: CORPUS,
            rows_per_request: 1,
            cap: 1 << 24,
            durable: false,
            cycle: 1,
            replay: 1000,
        }),
        "serve-batch" => Some(Plan {
            corpus: CORPUS,
            rows_per_request: 16,
            cap: DEFAULT_REQUEST_CAP,
            durable: false,
            cycle: (DEFAULT_REQUEST_CAP / 16) as u64,
            replay: 64,
        }),
        "serve-durable" => Some(Plan {
            corpus: CORPUS,
            rows_per_request: 1,
            cap: 1024,
            durable: true,
            cycle: 1024,
            replay: 1000,
        }),
        _ => None,
    }
}

/// The request stream: row `i` is corpus row `source(i)` plus uniform
/// noise of at most [`NOISE`] per feature, both drawn from the seed.
struct Requests<'a> {
    corpus: &'a Matrix,
    labels: &'a [usize],
    seed: u64,
}

impl Requests<'_> {
    fn row(&self, i: u64) -> (Vec<f32>, usize) {
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i);
        let source = rng.gen_range(0..self.corpus.rows());
        let row = self.corpus.row(source).iter().map(|&v| v + rng.gen_range(-NOISE..NOISE)).collect();
        (row, self.labels[source])
    }

    /// Request `ticket` as raw HTTP bytes, with the labels of its rows'
    /// source corpus rows.
    fn request(&self, ticket: u64, rows_per_request: usize) -> (Vec<u8>, Vec<usize>) {
        let mut body = String::new();
        let mut labels = Vec::with_capacity(rows_per_request);
        let first = ticket * rows_per_request as u64;
        for r in 0..rows_per_request as u64 {
            let (row, label) = self.row(first + r);
            body.push_str(match (rows_per_request, r) {
                (1, _) => "{\"row\": ",
                (_, 0) => "{\"rows\": [",
                _ => ",",
            });
            json::write_f32_array(&mut body, &row);
            labels.push(label);
        }
        body.push_str(if rows_per_request == 1 { "}" } else { "]}" });
        let head = format!(
            "POST /predict_proba HTTP/1.1\r\nHost: gnnbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        ([head.into_bytes(), body.into_bytes()].concat(), labels)
    }
}

/// One keep-alive client connection.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        stream.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| format!("timeout: {e}"))?;
        Ok(Conn { stream, buf: Vec::new() })
    }

    fn call(&mut self, raw: &[u8]) -> Result<Response, String> {
        self.stream.write_all(raw).map_err(|e| format!("send: {e}"))?;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some((response, used)) = http::parse_response(&self.buf)? {
                self.buf.drain(..used);
                return Ok(response);
            }
            let n = self.stream.read(&mut chunk).map_err(|e| format!("receive: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

fn argmax(values: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = i;
        }
    }
    best
}

/// Checks one reply: status 200, a body that parses, per row a `proba` of
/// [`CLASSES`] entries summing to 1 ± 1e-5 and a `pred` that is its
/// argmax. Returns how many predictions equal `labels`.
fn check_reply(response: &Response, labels: &[usize]) -> Result<u64, String> {
    if response.status != 200 {
        return Err(format!("status {}: {}", response.status, String::from_utf8_lossy(&response.body)));
    }
    let text = std::str::from_utf8(&response.body).map_err(|_| "body is not utf-8".to_string())?;
    let doc = json::parse(text).map_err(|e| format!("body does not parse: {e}"))?;
    let field = |key: &str| doc.get(key).ok_or_else(|| format!("body has no {key:?}"));
    let (preds, probas): (Vec<&Json>, Vec<&Json>) = if labels.len() == 1 {
        (vec![field("pred")?], vec![field("proba")?])
    } else {
        let list = |key: &str| field(key)?.as_array().ok_or_else(|| format!("{key:?} is not an array"));
        (list("preds")?.iter().collect(), list("probas")?.iter().collect())
    };
    if preds.len() != labels.len() || probas.len() != labels.len() {
        return Err(format!("{} predictions for {} rows", preds.len(), labels.len()));
    }
    let mut correct = 0;
    for ((pred, proba), &label) in preds.iter().zip(&probas).zip(labels) {
        let p: Vec<f64> = proba
            .as_array()
            .ok_or("proba is not an array")?
            .iter()
            .map(|v| v.as_f64().ok_or("proba entry is not a number"))
            .collect::<Result<_, _>>()?;
        let sum: f64 = p.iter().sum();
        if p.len() != CLASSES || (sum - 1.0).abs() > 1e-5 {
            return Err(format!("proba {p:?} is not {CLASSES} entries summing to 1"));
        }
        let pred = pred.as_f64().ok_or("pred is not a number")?;
        if pred != argmax(&p) as f64 {
            return Err(format!("pred {pred} is not the argmax of {p:?}"));
        }
        correct += u64::from(pred == label as f64);
    }
    Ok(correct)
}

/// What one client saw.
#[derive(Default)]
struct Log {
    latency_ms: Vec<f64>,
    sent: u64,
    rows: u64,
    correct: u64,
    failures: Vec<String>,
}

impl Log {
    /// Sends `ticket` and records the reply. Returns false once the
    /// connection has failed and cannot carry another request.
    fn exchange(&mut self, conn: &mut Conn, requests: &Requests, ticket: u64, rows: usize) -> bool {
        let (raw, labels) = requests.request(ticket, rows);
        self.sent += 1;
        let start = Instant::now();
        let reply = conn.call(&raw);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        match reply.map(|response| check_reply(&response, &labels)) {
            Ok(Ok(correct)) => {
                self.latency_ms.push(ms);
                self.rows += labels.len() as u64;
                self.correct += correct;
                true
            }
            Ok(Err(e)) => {
                self.failures.push(e);
                true
            }
            Err(e) => {
                self.failures.push(e);
                false
            }
        }
    }
}

/// Hands out request numbers. Once the window has passed and a p99 is
/// supported, the last number is fixed at the next multiple of the plan's
/// cycle.
struct Tickets {
    next: u64,
    limit: Option<u64>,
}

fn drive(
    addr: SocketAddr,
    requests: &Requests,
    plan: &Plan,
    tickets: &Mutex<Tickets>,
    start: Instant,
    window: Duration,
) -> Log {
    let mut log = Log::default();
    let mut conn = match Conn::open(addr) {
        Ok(conn) => conn,
        Err(e) => {
            log.failures.push(e);
            return log;
        }
    };
    loop {
        let ticket = {
            let mut t = tickets.lock().expect("a client panicked holding the ticket lock");
            if t.limit.is_none() && start.elapsed() >= window && t.next - WARMUP >= P99_SAMPLES as u64 {
                t.limit = Some(t.next.div_ceil(plan.cycle) * plan.cycle);
            }
            if t.limit.is_some_and(|limit| t.next >= limit) {
                break;
            }
            t.next += 1;
            t.next - 1
        };
        if !log.exchange(&mut conn, requests, ticket, plan.rows_per_request) {
            break;
        }
    }
    log
}

/// Encodes the corpus, fits the servable model and builds its engine.
fn fit_engine(sample: &Sample, plan: &Plan, state_dir: &Path, tracer: &Tracer) -> Result<Engine, String> {
    let features = tracer.span("data.encode", 0, || encode_all(&sample.table).features);
    let config = ServableConfig {
        encoder: EncoderSpec::Gcn,
        in_dim: features.cols(),
        hidden: HIDDEN,
        layers: 2,
        num_classes: CLASSES,
        dropout: 0.0,
        k: K,
        similarity: Similarity::Euclidean,
        index: INDEX,
    };
    let train = TrainConfig { epochs: EPOCHS, patience: 0, ..TrainConfig::default() };
    let model = tracer
        .span("train.fit", 0, || {
            ServableModel::fit(features, sample.labels.clone(), &sample.split, config, &train)
        })
        .map_err(|e| format!("servable fit: {e}"))?;
    engine_for(model, plan, state_dir)
}

/// An ephemeral engine, or a durable one over a fresh state directory.
fn engine_for(model: ServableModel, plan: &Plan, state_dir: &Path) -> Result<Engine, String> {
    if !plan.durable {
        return Engine::with_request_cap(model, plan.cap).map_err(|e| format!("engine: {e}"));
    }
    let _ = std::fs::remove_dir_all(state_dir);
    let state = StateDir::new(state_dir).map_err(|e| format!("state dir: {e}"))?;
    state.install(&model).map_err(|e| format!("snapshot install: {e}"))?;
    Engine::recover_with(model, state, plan.cap, 0)
        .map(|(engine, _)| engine)
        .map_err(|e| format!("engine: {e}"))
}

fn health_field(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key).and_then(Json::as_f64).map(|v| v as u64).ok_or_else(|| format!("/healthz has no {key:?}"))
}

/// `/healthz` once the server has settled: on a durable engine, after the
/// compaction the last reply may have started.
fn settled_health(addr: SocketAddr, plan: &Plan) -> Result<Json, String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let response = gnn4tdl_serve::get(addr, "/healthz").map_err(|e| format!("/healthz: {e}"))?;
        let doc =
            json::parse(&String::from_utf8_lossy(&response.body)).map_err(|e| format!("/healthz: {e}"))?;
        if !plan.durable
            || health_field(&doc, "retained_requests")? < plan.cap as u64
            || Instant::now() > deadline
        {
            return Ok(doc);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

pub fn run(
    workload: &str,
    plan: &Plan,
    seed: u64,
    window: Duration,
    tracer: &Tracer,
    out: &Path,
) -> Result<Outcome, String> {
    // The buffer pool parks buffers by exact length and a local subgraph
    // has a new length almost every request, so with the pool on one
    // serve-batch run parked 7.5 GiB (171 MiB with it off; 2 cores, 10 s).
    // Serving runs without it unless GNN4TDL_POOL asks otherwise.
    if std::env::var_os("GNN4TDL_POOL").is_none() {
        pool::disable();
    }
    let sample = synthesize(plan.corpus, seed, 0.05, 0.05);
    let state_dir = out.join(format!("{workload}-seed{seed}-state"));

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut live: Option<(Server, Arc<EngineSlot>)> = None;
    for _ in 0..SETUPS {
        if let Some((server, _)) = live.take() {
            server.shutdown();
        }
        let start = Instant::now();
        let slot = EngineSlot::new(fit_engine(&sample, plan, &state_dir, tracer)?);
        let server = serve(Arc::clone(&slot), ServerConfig::default()).map_err(|e| format!("bind: {e}"))?;
        setup_s.push(start.elapsed().as_secs_f64());
        live = Some((server, slot));
    }
    let (server, slot) = live.expect("at least one set-up");
    let (snapshot, corpus) = {
        let engine = slot.current();
        (engine.model().to_bytes(), engine.model().features.clone())
    };
    drop(slot);

    // -- end-to-end load ---------------------------------------------------
    let addr = server.addr();
    let requests = Requests { corpus: &corpus, labels: &sample.labels, seed };
    let mut warm = Log::default();
    let mut conn = Conn::open(addr)?;
    for ticket in 0..WARMUP {
        if !warm.exchange(&mut conn, &requests, ticket, plan.rows_per_request) {
            break;
        }
    }
    drop(conn);
    let tickets = Mutex::new(Tickets { next: WARMUP, limit: None });
    let start = Instant::now();
    let logs: Vec<Log> = std::thread::scope(|s| {
        let clients: Vec<_> =
            (0..CLIENTS).map(|_| s.spawn(|| drive(addr, &requests, plan, &tickets, start, window))).collect();
        clients.into_iter().map(|c| c.join().expect("client thread panicked")).collect()
    });
    let load_s = start.elapsed().as_secs_f64();

    let mut checks = Vec::new();
    let failures: Vec<&String> = warm.failures.iter().chain(logs.iter().flat_map(|l| &l.failures)).collect();
    let attempted = warm.sent + logs.iter().map(|l| l.sent).sum::<u64>();
    if let Some(first) = failures.first() {
        checks.push(format!("responses: {} of {attempted} failed, first: {first}", failures.len()));
    }
    let acked = warm.rows + logs.iter().map(|l| l.rows).sum::<u64>();
    let health = settled_health(addr, plan)?;
    server.shutdown();
    let served = health_field(&health, "served")?;
    if served != acked {
        checks.push(format!("healthz.served: {served} served, {acked} rows acked"));
    }
    let cap = plan.cap as u64;
    let (rebuilds, compactions) = if plan.durable {
        // Every acked row is either folded into the corpus by a compaction
        // or still in the WAL. With two clients a compaction can fold a
        // row or two past the cap, so the generation is not ⌊acked/cap⌋.
        let folded = health_field(&health, "corpus_rows")?.saturating_sub(plan.corpus as u64);
        let wal = health_field(&health, "wal_records")?;
        if folded + wal != acked {
            checks.push(format!("ack_invariant: {folded} rows folded + {wal} in the WAL, {acked} acked"));
        }
        (0, health_field(&health, "snapshot_generation")?)
    } else {
        let rebuilds = acked.saturating_sub(1) / cap;
        let retained = health_field(&health, "retained_requests")?;
        if retained != acked - rebuilds * cap {
            checks.push(format!("healthz.retained_requests: {retained} after {acked} acks with cap {cap}"));
        }
        (rebuilds, 0)
    };

    let latency: Vec<f64> = logs.iter().flat_map(|l| l.latency_ms.iter().copied()).collect();
    let ordered = sorted(&latency);
    let rows: u64 = logs.iter().map(|l| l.rows).sum();
    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(&setup_s));
    metrics.set("p50_ms", percentile(&ordered, 50.0));
    metrics.set("p99_ms", tail_percentile(&ordered, 99.0).map_err(|e| format!("p99_ms: {e}"))?);
    metrics.set("rows_per_s", rows as f64 / load_s);
    metrics.set("accuracy", logs.iter().map(|l| l.correct).sum::<u64>() as f64 / rows as f64);

    let mut digest = None;
    if tracer.on() {
        let load = Load { mean_latency_s: mean(&latency) / 1e3, wall_s: load_s, rebuilds, compactions };
        let replay = Replay { plan, requests: &requests, tracer, workload, seed, out };
        digest = Some(replay.run(&snapshot, &sample, &load, &mut metrics)?);
    }
    let _ = std::fs::remove_dir_all(&state_dir);
    Ok(Outcome { metrics, attempted, failed: failures.len() as u64, checks, digest })
}

/// What the end-to-end load measured that per-layer shares divide by.
struct Load {
    mean_latency_s: f64,
    wall_s: f64,
    rebuilds: u64,
    compactions: u64,
}

/// The traced phase of a serve workload.
struct Replay<'a> {
    plan: &'a Plan,
    requests: &'a Requests<'a>,
    tracer: &'a Tracer,
    workload: &'a str,
    seed: u64,
    out: &'a Path,
}

/// Rows, their corpus neighbors and their predictions for one request.
type Served = (Vec<Vec<f32>>, Vec<Vec<usize>>, Vec<LocalPrediction>);

impl Replay<'_> {
    /// Replays request `i` through the calls the server makes for it:
    /// framing, body parse, neighbors per row, local forward, encode.
    fn request(&self, engine: &Engine, i: u64) -> Result<Served, String> {
        let t = self.tracer;
        let (raw, _) = self.requests.request(i, self.plan.rows_per_request);
        t.span("serve.request", i, || {
            let request =
                match t.span("serve.http.parse", i, || http::parse_request(&raw, &Limits::default())) {
                    ParseOutcome::Complete(request, _) => request,
                    other => return Err(format!("replay request {i} did not frame: {other:?}")),
                };
            let rows = t.span("serve.json.parse", i, || parse_rows(&request.body))?;
            let mut neighbors = Vec::with_capacity(rows.len());
            for row in &rows {
                let found = t.span("serve.engine.neighbors", i, || engine.neighbors(row));
                neighbors.push(found.map_err(|e| format!("replay neighbors: {e}"))?);
            }
            let model = engine.model();
            let predictions = t
                .span("servable.predict", i, || match rows.len() {
                    1 => model.predict_local(&rows[0], &neighbors[0]).map(|p| vec![p]),
                    _ => model.predict_local_batch(&rows, &neighbors),
                })
                .map_err(|e| format!("replay predict: {e}"))?;
            t.span("serve.json.encode", i, || {
                let generation = engine.generation().to_string();
                let body = response_body(&predictions);
                http::encode_response_with(
                    200,
                    "OK",
                    &body,
                    request.keep_alive,
                    &[("X-Snapshot-Generation", generation)],
                )
            });
            Ok((rows, neighbors, predictions))
        })
    }

    /// Replays the plan's requests in order on `engine`.
    fn replay(&self, engine: &Engine) -> Result<Replayed, String> {
        let mut bits = Vec::new();
        let (mut found, mut wanted, mut nodes, mut predicted) = (0usize, 0usize, 0usize, 0usize);
        let mut probe_rows = Vec::with_capacity(PROBE_ROWS);
        for i in 0..self.plan.replay {
            let (rows, neighbors, predictions) = self.request(engine, i)?;
            for p in &predictions {
                bits.extend(p.proba.iter().flat_map(|v| v.to_bits().to_le_bytes()));
                nodes += p.subgraph_nodes;
            }
            predicted += predictions.len();
            for (row, ids) in rows.into_iter().zip(neighbors) {
                let exact = engine.model().exact_neighbors(&row);
                wanted += exact.len();
                found += exact.iter().filter(|(j, _)| ids.contains(j)).count();
                if probe_rows.len() < PROBE_ROWS {
                    probe_rows.push((row, ids));
                }
            }
        }
        Ok(Replayed {
            digest: fnv1a64(&bits),
            recall: found as f64 / wanted.max(1) as f64,
            subgraph_nodes: nodes as f64 / predicted.max(1) as f64,
            probe_rows,
        })
    }

    /// The replay on a fresh engine from `snapshot`, then the probes; sets
    /// every per-layer metric and returns the replay's digest.
    fn run(
        &self,
        snapshot: &[u8],
        sample: &Sample,
        load: &Load,
        metrics: &mut Metrics,
    ) -> Result<u64, String> {
        let t = self.tracer;
        let e2e_mean_s = load.mean_latency_s;
        let state_dir = self.out.join(format!("{}-seed{}-replay-state", self.workload, self.seed));
        let model = ServableModel::from_bytes(snapshot).map_err(|e| format!("snapshot: {e}"))?;
        let engine = engine_for(model, self.plan, &state_dir)?;

        pool::reset_global_stats();
        kernel::reset_pack_stats();
        let replayed = self.replay(&engine)?;
        let pool_stats = pool::global_stats();
        let pack = kernel::pack_stats();
        let probe_rows = &replayed.probe_rows;

        let model = engine.model();
        for group in probe_rows.chunks(PROBE_BATCH) {
            let (rows, ids): (Vec<Vec<f32>>, Vec<Vec<usize>>) = group.iter().cloned().unzip();
            t.span("servable.batch_probe", 0, || model.predict_local_batch(&rows, &ids))
                .map_err(|e| format!("batch probe: {e}"))?;
            for (row, ids) in group {
                t.span("servable.single_probe", 0, || model.predict_local(row, ids))
                    .map_err(|e| format!("single probe: {e}"))?;
            }
        }
        if self.plan.durable {
            let path = self.out.join(format!("{}-seed{}-scratch.wal", self.workload, self.seed));
            let mut wal =
                Wal::create(&path, 0, model.config.in_dim).map_err(|e| format!("scratch wal: {e}"))?;
            for (row, _) in probe_rows.iter().cycle().take(WAL_APPENDS) {
                t.span("serve.wal.append", 0, || wal.append(row)).map_err(|e| format!("scratch wal: {e}"))?;
            }
            drop(wal);
            let _ = std::fs::remove_file(&path);
            t.span("serve.compact", 0, || engine.compact()).map_err(|e| format!("compaction: {e}"))?;
        }
        t.span("construct.graph", 0, || {
            build_instance_graph_with(
                &model.features,
                model.config.similarity,
                EdgeRule::Knn { k: K },
                &INDEX,
            )
        });
        t.span("nn.predict", 0, || model.corpus_proba());

        let per_request = |name: &str| t.total_self(name) / self.plan.replay as f64 / e2e_mean_s;
        metrics.set("serve.http.parse_share", per_request("serve.http.parse"));
        metrics.set("serve.json.parse_share", per_request("serve.json.parse"));
        metrics.set("serve.engine.neighbors_share", per_request("serve.engine.neighbors"));
        metrics.set("servable.predict_share", per_request("servable.predict"));
        metrics.set("serve.json.encode_share", per_request("serve.json.encode"));
        metrics.set("serve.unattributed_share", 1.0 - mean(&t.durations("serve.request")) / e2e_mean_s);
        let (wal_share, compact_share) = if self.plan.durable {
            let compact_s = mean(&t.durations("serve.compact"));
            (
                mean(&t.durations("serve.wal.append")) / e2e_mean_s,
                load.compactions as f64 * compact_s / load.wall_s,
            )
        } else {
            (0.0, 0.0)
        };
        metrics.set("serve.wal.append_share", wal_share);
        metrics.set("serve.compact_share", compact_share);
        metrics.set("serve.engine.rebuilds", load.rebuilds as f64);
        metrics.set("serve.compactions", load.compactions as f64);
        metrics.set("serve.engine.recall", replayed.recall);
        metrics.set("servable.subgraph_nodes", replayed.subgraph_nodes);
        metrics.set(
            "servable.batch_vs_single",
            t.total_self("servable.batch_probe") / t.total_self("servable.single_probe"),
        );
        metrics.set("data.encode_ms", median(&t.durations("data.encode")) * 1e3);
        metrics.set("construct.graph_s", median(&t.durations("construct.graph")));
        metrics.set("train.fit_s", median(&t.durations("train.fit")));
        metrics.set("train.sample_share", 0.0);
        metrics.set("nn.predict_ms", median(&t.durations("nn.predict")) * 1e3);
        metrics.set("tensor.pool_hit_rate", pool_stats.hit_rate());
        metrics.set("tensor.pool_misses", pool_stats.misses as f64);
        metrics.set("tensor.pack_hit_rate", pack.hit_rate());
        let forward_rows = (replayed.subgraph_nodes * self.plan.rows_per_request as f64).round() as usize;
        let sampler = NeighborSampler::new(128, vec![4, 3], 11);
        let epoch = probe::sample_epoch(&sampler, &model.graph, &model.features, &sample.split.train);
        probe::shared(metrics, &epoch, &model.graph, &model.features, forward_rows, HIDDEN, self.seed);

        drop(engine);
        let _ = std::fs::remove_dir_all(&state_dir);
        Ok(replayed.digest)
    }
}

/// What a replay produced.
struct Replayed {
    /// FNV-1a-64 of every replayed probability's bits, in order.
    digest: u64,
    /// Share of the exact neighbors the engine found.
    recall: f64,
    subgraph_nodes: f64,
    /// The first rows with their neighbors, for the probes.
    probe_rows: Vec<(Vec<f32>, Vec<usize>)>,
}

/// The rows of a predict body: `{"row": [..]}` or `{"rows": [[..], ..]}`.
fn parse_rows(body: &[u8]) -> Result<Vec<Vec<f32>>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    let doc = json::parse(text)?;
    let row = |v: &Json| -> Result<Vec<f32>, String> {
        v.as_array()
            .ok_or("row is not an array")?
            .iter()
            .map(|x| x.as_f64().map(|f| f as f32).ok_or_else(|| "row entry is not a number".to_string()))
            .collect()
    };
    match (doc.get("row"), doc.get("rows").and_then(Json::as_array)) {
        (Some(single), _) => Ok(vec![row(single)?]),
        (None, Some(many)) => many.iter().map(row).collect(),
        _ => Err("body has neither \"row\" nor \"rows\"".into()),
    }
}

/// The `/predict_proba` reply body for `predictions`.
fn response_body(predictions: &[LocalPrediction]) -> String {
    let pred = |p: &LocalPrediction| {
        let proba: Vec<f64> = p.proba.iter().map(|&v| f64::from(v)).collect();
        argmax(&proba)
    };
    let mut out = String::with_capacity(64 * predictions.len());
    if let [p] = predictions {
        out.push_str(&format!("{{\"pred\": {}, \"proba\": ", pred(p)));
        json::write_f32_array(&mut out, &p.proba);
        out.push('}');
        return out;
    }
    let preds: Vec<String> = predictions.iter().map(|p| pred(p).to_string()).collect();
    out.push_str(&format!("{{\"preds\": [{}], \"probas\": [", preds.join(",")));
    for (i, p) in predictions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_f32_array(&mut out, &p.proba);
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use gnn4tdl_tensor::parallel;

    #[test]
    fn replay_digests_repeat_on_fresh_engines_and_across_thread_counts() {
        let sample = synthesize(300, 3, 0.3, 0.2);
        let tracer = Tracer::new(false);
        let unused = Path::new("unused");
        for rows_per_request in [1, 4] {
            let plan =
                Plan { corpus: 300, rows_per_request, cap: 1 << 24, durable: false, cycle: 1, replay: 40 };
            let engine = fit_engine(&sample, &plan, unused, &tracer).unwrap();
            let snapshot = engine.model().to_bytes();
            let corpus = engine.model().features.clone();
            let requests = Requests { corpus: &corpus, labels: &sample.labels, seed: 3 };
            let replay = Replay {
                plan: &plan,
                requests: &requests,
                tracer: &tracer,
                workload: "t",
                seed: 3,
                out: unused,
            };
            let digest = |threads| {
                parallel::with_threads(threads, || {
                    let model = ServableModel::from_bytes(&snapshot).unwrap();
                    replay.replay(&engine_for(model, &plan, unused).unwrap()).unwrap().digest
                })
            };
            let first = digest(2);
            assert_eq!(first, digest(2), "two fresh replays, {rows_per_request} rows per request");
            assert_eq!(first, digest(1), "one thread against two, {rows_per_request} rows per request");
        }
    }

    #[test]
    fn traced_serve_runs_pass_their_checks_and_report_every_metric() {
        let out = std::env::temp_dir().join(format!("gnnbench-serve-{}", std::process::id()));
        std::fs::create_dir_all(&out).unwrap();
        for workload in ["serve-single", "serve-batch", "serve-durable"] {
            let plan = Plan { corpus: 400, ..plan(workload).unwrap() };
            let outcome = run(workload, &plan, 5, Duration::ZERO, &Tracer::new(true), &out).unwrap();
            assert_eq!(outcome.checks, Vec::<String>::new(), "{workload}");
            assert_eq!(outcome.failed, 0, "{workload}");
            for catalogue in [END_TO_END, PER_LAYER] {
                assert_eq!(outcome.metrics.select(catalogue).len(), catalogue.len(), "{workload}");
            }
        }
        let _ = std::fs::remove_dir_all(&out);
    }

    fn reply(status: u16, body: String) -> Response {
        Response { status, reason: String::new(), headers: Default::default(), body: body.into_bytes() }
    }

    fn prediction(proba: [f32; 3]) -> LocalPrediction {
        LocalPrediction { logits: vec![0.0; 3], proba: proba.to_vec(), subgraph_nodes: 1 }
    }

    #[test]
    fn replies_shaped_like_the_servers_pass_the_reply_check() {
        let single = reply(200, response_body(&[prediction([0.2, 0.7, 0.1])]));
        assert_eq!(check_reply(&single, &[1]), Ok(1));
        assert_eq!(check_reply(&single, &[0]), Ok(0));
        let batch = reply(200, response_body(&[prediction([0.2, 0.7, 0.1]), prediction([0.6, 0.3, 0.1])]));
        assert_eq!(check_reply(&batch, &[1, 2]), Ok(1));
        assert!(check_reply(&batch, &[1]).is_err(), "row count");
        assert!(check_reply(&reply(200, response_body(&[prediction([0.5, 0.6, 0.0])])), &[1]).is_err());
        assert!(check_reply(&reply(503, "{}".into()), &[1]).is_err());
        assert!(check_reply(&reply(200, "{\"pred\": 1".into()), &[1]).is_err());
    }

    #[test]
    fn requests_frame_and_parse_back_to_their_rows() {
        let corpus = Matrix::from_vec(4, 3, (0..12).map(|v| v as f32).collect());
        let labels = [0, 1, 2, 0];
        let requests = Requests { corpus: &corpus, labels: &labels, seed: 9 };
        for rows_per_request in [1, 3] {
            let (raw, got_labels) = requests.request(5, rows_per_request);
            let ParseOutcome::Complete(request, used) = http::parse_request(&raw, &Limits::default()) else {
                panic!("request does not frame");
            };
            assert_eq!(used, raw.len());
            let first = 5 * rows_per_request as u64;
            let want: Vec<(Vec<f32>, usize)> =
                (first..first + rows_per_request as u64).map(|i| requests.row(i)).collect();
            assert_eq!(
                parse_rows(&request.body).unwrap(),
                want.iter().map(|(r, _)| r.clone()).collect::<Vec<_>>()
            );
            assert_eq!(got_labels, want.iter().map(|(_, l)| *l).collect::<Vec<_>>());
        }
    }
}
