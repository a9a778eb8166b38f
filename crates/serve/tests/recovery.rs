//! Durable-serving integration suite (ISSUE 9 tentpole, over real HTTP):
//!
//! * kill-and-restart: a server stopped mid-traffic and restarted from its
//!   state dir serves byte-identical responses to an uninterrupted twin.
//! * compaction: reaching the request cap folds retained rows into a new
//!   snapshot generation visible in `/healthz`, with serving uninterrupted.
//! * hot reload: `POST /admin/reload` under concurrent load flips the
//!   generation with zero dropped or errored requests.
//! * graceful drain: `shutdown()` finishes in-flight work and returns
//!   within the drain deadline, not the keep-alive timeout.
//! * WAL chaos: injected io-fails during traffic are typed 503s, and the
//!   WAL holds exactly the acknowledged rows — a restart replays them all.
//!
//! Every test takes `fault::TEST_MUTEX`: the fault injector and the obs
//! registry are process-global, so the suite serializes itself.

use std::io::Write;
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use gnn4tdl::servable::{ServableConfig, ServableModel};
use gnn4tdl::EncoderSpec;
use gnn4tdl_construct::{IndexKind, Similarity};
use gnn4tdl_data::synth::{gaussian_clusters, ClustersConfig};
use gnn4tdl_data::{encode_all, Split, Target};
use gnn4tdl_serve::{get, json, post_json, serve, Engine, EngineSlot, Server, ServerConfig, StateDir};
use gnn4tdl_tensor::fault::{self, FaultKind};
use gnn4tdl_train::TrainConfig;
use rand::{rngs::StdRng, SeedableRng};

fn fitted(index: IndexKind) -> ServableModel {
    let mut rng = StdRng::seed_from_u64(5);
    let ds = gaussian_clusters(
        &ClustersConfig {
            n: 60,
            informative: 6,
            noise_features: 2,
            classes: 3,
            cluster_std: 0.7,
            ..ClustersConfig::default()
        },
        &mut rng,
    );
    let labels = match &ds.target {
        Target::Classification { labels, .. } => labels.clone(),
        _ => unreachable!(),
    };
    let features = encode_all(&ds.table).features;
    let split = Split::stratified(&labels, 0.6, 0.2, &mut rng);
    let config = ServableConfig {
        encoder: EncoderSpec::Gcn,
        in_dim: features.cols(),
        hidden: 8,
        layers: 2,
        num_classes: 3,
        dropout: 0.0,
        k: 5,
        similarity: Similarity::Euclidean,
        index,
    };
    ServableModel::fit(features, labels, &split, config, &TrainConfig { epochs: 8, ..TrainConfig::default() })
        .unwrap()
}

fn hnsw_kind() -> IndexKind {
    IndexKind::Hnsw { m: 8, ef_construction: 32, ef_search: 24, seed: 7 }
}

fn state_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gnn4tdl-recovery-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Opens (bootstrapping on first use) durable serving state in `dir` and
/// starts a server on it. Returns the handle plus how many WAL rows
/// recovery replayed.
fn start_durable(dir: &Path, request_cap: usize, config: ServerConfig) -> (Server, usize) {
    let state = StateDir::new(dir).unwrap();
    if state.generations().is_empty() {
        state.install(&fitted(hnsw_kind())).unwrap();
    }
    let (engine, stats) = Engine::durable(state, request_cap).unwrap();
    let replayed = stats.replayed;
    let slot = EngineSlot::new(engine);
    slot.compact_if_needed().unwrap();
    (serve(slot, config).unwrap(), replayed)
}

fn config() -> ServerConfig {
    ServerConfig { workers: 2, read_timeout: Duration::from_secs(2), ..ServerConfig::default() }
}

fn request_body(in_dim: usize, phase: usize) -> String {
    let row: Vec<String> = (0..in_dim).map(|i| format!("{:.4}", ((i + phase) as f32 * 0.37).sin())).collect();
    format!("{{\"row\": [{}]}}", row.join(","))
}

/// Parses a numeric field out of a `/healthz` body.
fn healthz_field(addr: std::net::SocketAddr, field: &str) -> f64 {
    let resp = get(addr, "/healthz").unwrap();
    assert_eq!(resp.status, 200);
    let text = String::from_utf8(resp.body).unwrap();
    let doc = json::parse(&text).unwrap();
    doc.get(field).and_then(|v| v.as_f64()).unwrap_or_else(|| panic!("healthz is missing {field}: {text}"))
}

#[test]
fn kill_and_restart_serves_byte_identically_to_an_uninterrupted_twin() {
    let _l = fault::TEST_MUTEX.lock().unwrap_or_else(|p| p.into_inner());
    let dir_a = state_dir("restart-a");
    let dir_b = state_dir("restart-b");
    let in_dim = fitted(hnsw_kind()).config.in_dim;

    // Server A takes 6 requests, then stops without compacting — the rows
    // live only in the WAL, exactly the crash window the log exists for.
    let (server_a, _) = start_durable(&dir_a, 4096, config());
    for phase in 0..6 {
        let resp = post_json(server_a.addr(), "/predict_proba", &request_body(in_dim, phase)).unwrap();
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    }
    assert_eq!(healthz_field(server_a.addr(), "wal_records"), 6.0);
    server_a.shutdown();

    // Restart from the same state dir: the WAL replays all 6 rows.
    let (restarted, replayed) = start_durable(&dir_a, 4096, config());
    assert_eq!(replayed, 6, "every acknowledged row must survive the restart");
    assert_eq!(healthz_field(restarted.addr(), "wal_records"), 6.0);
    assert_eq!(healthz_field(restarted.addr(), "snapshot_generation"), 0.0);

    // The twin serves the same 10-request sequence with no interruption.
    let (twin, _) = start_durable(&dir_b, 4096, config());
    for phase in 0..6 {
        let resp = post_json(twin.addr(), "/predict_proba", &request_body(in_dim, phase)).unwrap();
        assert_eq!(resp.status, 200);
    }
    for phase in 6..10 {
        let body = request_body(in_dim, phase);
        let a = post_json(restarted.addr(), "/predict_proba", &body).unwrap();
        let b = post_json(twin.addr(), "/predict_proba", &body).unwrap();
        assert_eq!(a.status, 200, "{}", String::from_utf8_lossy(&a.body));
        assert_eq!(
            a.body, b.body,
            "restarted server diverged from the uninterrupted twin at request {phase}"
        );
    }
    restarted.shutdown();
    twin.shutdown();
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn reaching_the_cap_compacts_into_a_new_generation_without_downtime() {
    let _l = fault::TEST_MUTEX.lock().unwrap_or_else(|p| p.into_inner());
    let dir = state_dir("compact");
    let (server, _) = start_durable(&dir, 3, config());
    let in_dim = fitted(hnsw_kind()).config.in_dim;
    let corpus = healthz_field(server.addr(), "corpus_rows");
    assert_eq!(healthz_field(server.addr(), "snapshot_generation"), 0.0);

    for phase in 0..3 {
        let resp = post_json(server.addr(), "/predict", &request_body(in_dim, phase)).unwrap();
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    }
    // The third response pushed retained rows to the cap; the post-response
    // hook folds them into generation 1 and truncates the WAL. The fold
    // happens after the response is written, so give it a moment to land.
    let deadline = Instant::now() + Duration::from_secs(10);
    while healthz_field(server.addr(), "snapshot_generation") < 1.0 {
        assert!(Instant::now() < deadline, "compaction did not land within 10s");
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(healthz_field(server.addr(), "snapshot_generation"), 1.0);
    assert_eq!(healthz_field(server.addr(), "corpus_rows"), corpus + 3.0);
    assert_eq!(healthz_field(server.addr(), "wal_records"), 0.0);
    assert!(healthz_field(server.addr(), "last_compaction") > 0.0);

    // Serving continues on the folded corpus, and the generation is
    // stamped on every response.
    let resp = post_json(server.addr(), "/predict", &request_body(in_dim, 9)).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.headers.get("x-snapshot-generation").map(String::as_str), Some("1"));
    server.shutdown();

    // Both generations are on disk (newest + one rollback target).
    let state = StateDir::new(&dir).unwrap();
    assert_eq!(state.generations(), vec![0, 1]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hot_reload_under_concurrent_load_drops_nothing_and_flips_the_generation() {
    let _l = fault::TEST_MUTEX.lock().unwrap_or_else(|p| p.into_inner());
    let model = fitted(IndexKind::Exact);
    let in_dim = model.config.in_dim;
    let dir = state_dir("reload");
    std::fs::create_dir_all(&dir).unwrap();
    let next = dir.join("next.gsrv");
    fitted(IndexKind::Exact).save(&next).unwrap();

    let slot = EngineSlot::new(Engine::new(model).unwrap());
    let server = serve(slot, ServerConfig { workers: 4, ..config() }).unwrap();
    let addr = server.addr();
    assert_eq!(
        get(addr, "/healthz").unwrap().headers.get("x-snapshot-generation").map(String::as_str),
        Some("0")
    );

    // Three clients hammer the predict endpoint while the reload lands.
    let clients: Vec<_> = (0..3)
        .map(|c| {
            std::thread::spawn(move || -> Result<(), String> {
                for i in 0..40 {
                    let body = request_body(in_dim, c * 100 + i);
                    let resp = post_json(addr, "/predict_proba", &body)
                        .map_err(|e| format!("client {c} request {i}: {e}"))?;
                    if resp.status != 200 {
                        return Err(format!(
                            "client {c} request {i}: status {} body {}",
                            resp.status,
                            String::from_utf8_lossy(&resp.body)
                        ));
                    }
                }
                Ok(())
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(30));
    let body = format!("{{\"snapshot\": \"{}\"}}", next.display());
    let resp = post_json(addr, "/admin/reload", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    assert!(String::from_utf8_lossy(&resp.body).contains("\"snapshot_generation\": 1"));

    for client in clients {
        client.join().unwrap().expect("a request was dropped or errored during the hot reload");
    }
    assert_eq!(healthz_field(addr, "snapshot_generation"), 1.0);
    assert_eq!(
        get(addr, "/healthz").unwrap().headers.get("x-snapshot-generation").map(String::as_str),
        Some("1")
    );

    // A corrupt snapshot is refused with the new generation still serving.
    let bad = dir.join("bad.gsrv");
    let mut bytes = std::fs::read(&next).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&bad, &bytes).unwrap();
    let body = format!("{{\"snapshot\": \"{}\"}}", bad.display());
    let resp = post_json(addr, "/admin/reload", &body).unwrap();
    assert_eq!(resp.status, 409, "{}", String::from_utf8_lossy(&resp.body));
    assert_eq!(healthz_field(addr, "snapshot_generation"), 1.0);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_drains_within_the_deadline_not_the_keep_alive_timeout() {
    let _l = fault::TEST_MUTEX.lock().unwrap_or_else(|p| p.into_inner());
    let slot = EngineSlot::new(Engine::new(fitted(IndexKind::Exact)).unwrap());
    let server = serve(
        slot,
        ServerConfig {
            workers: 2,
            read_timeout: Duration::from_secs(30), // the drain must NOT wait for this
            drain_deadline: Duration::from_millis(600),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // An idle keep-alive connection (served, then parked) and a connection
    // with a half-sent request each pin one of the two workers.
    let idle = TcpStream::connect(server.addr()).unwrap();
    let resp = get(server.addr(), "/healthz").unwrap();
    assert_eq!(resp.status, 200);
    let mut half = TcpStream::connect(server.addr()).unwrap();
    half.write_all(b"POST /predict HTTP/1.1\r\nContent-Length: 50\r\n\r\npartial").unwrap();
    std::thread::sleep(Duration::from_millis(150));

    // Drain: the idle connection closes immediately, the half-sent request
    // gets until the 600 ms deadline, and shutdown returns promptly —
    // bounded by the deadline, not the 30 s keep-alive timeout and not a
    // poll interval.
    let started = Instant::now();
    server.shutdown();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(3),
        "drain took {elapsed:?}; it must be bounded by the drain deadline"
    );
    drop(idle);
    drop(half);
}

#[test]
fn injected_wal_faults_are_typed_503s_and_replay_matches_what_was_acked() {
    let _l = fault::TEST_MUTEX.lock().unwrap_or_else(|p| p.into_inner());
    let dir = state_dir("wal-chaos");
    let (server, _) = start_durable(&dir, 4096, config());
    let in_dim = fitted(hnsw_kind()).config.in_dim;

    let resp = post_json(server.addr(), "/predict", &request_body(in_dim, 0)).unwrap();
    assert_eq!(resp.status, 200);

    let mut acked = 1usize;
    {
        let _g = fault::arm_guard(FaultKind::IoFail, 23, 0.4);
        for phase in 1..21 {
            let resp = post_json(server.addr(), "/predict", &request_body(in_dim, phase)).unwrap();
            match resp.status {
                200 => acked += 1,
                503 => {
                    let text = String::from_utf8_lossy(&resp.body).to_string();
                    assert!(text.contains("unavailable"), "typed 503 body, got {text}");
                }
                other => panic!("unexpected status {other} under io-fail"),
            }
            // The control plane never wedges.
            assert_eq!(get(server.addr(), "/healthz").unwrap().status, 200);
        }
    }
    assert!(acked < 21, "a 40% fault rate over 20 requests fired at least once");

    // Disarmed: serving is clean again, and the WAL holds exactly the rows
    // that were acknowledged with a 200 — no more (failed appends wrote
    // nothing), no fewer (every ack was fsync'd first).
    let resp = post_json(server.addr(), "/predict", &request_body(in_dim, 30)).unwrap();
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    acked += 1;
    assert_eq!(healthz_field(server.addr(), "wal_records"), acked as f64);
    server.shutdown();

    // A restart replays exactly the acknowledged rows.
    let (restarted, replayed) = start_durable(&dir, 4096, config());
    assert_eq!(replayed, acked, "replay must reproduce exactly the acknowledged rows");
    restarted.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_batches_are_all_or_nothing_under_io_faults() {
    let _l = fault::TEST_MUTEX.lock().unwrap_or_else(|p| p.into_inner());
    let dir = state_dir("batch-atomic");
    let state = StateDir::new(&dir).unwrap();
    state.install(&fitted(hnsw_kind())).unwrap();
    let (engine, _) = Engine::durable(state, 4096).unwrap();
    let in_dim = engine.in_dim();
    let batch = |b: usize| -> Vec<Vec<f32>> {
        (0..4).map(|r| (0..in_dim).map(|i| ((i + 4 * b + r) as f32 * 0.37).sin()).collect()).collect()
    };

    // A fault anywhere in a batch (per-row request site or the WAL append)
    // must leave none of its rows behind: acked rows are exactly the rows
    // of batches that returned Ok.
    let mut acked = 0usize;
    {
        let _g = fault::arm_guard(FaultKind::IoFail, 23, 0.4);
        for b in 0..10 {
            if engine.predict_batch(&batch(b)).is_ok() {
                acked += 4;
            }
        }
    }
    assert!(acked < 40, "a 40% fault rate over ten batches fired at least once");
    engine.predict_batch(&batch(10)).unwrap();
    acked += 4;
    assert_eq!(engine.wal_records(), acked as u64, "the WAL must hold exactly the acked rows");
    drop(engine);

    let (restarted, stats) = Engine::durable(StateDir::new(&dir).unwrap(), 4096).unwrap();
    assert_eq!(stats.replayed, acked, "replay must reproduce exactly the acked rows");
    assert_eq!(restarted.retained_requests(), acked);
    drop(restarted);
    let _ = std::fs::remove_dir_all(&dir);
}
