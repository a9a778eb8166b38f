//! Serving timing gates (release only; run with
//! `cargo test --release -- --ignored gate_`).
//!
//! A servable GCN is fitted on a 10k-row corpus and served by the real
//! HTTP server in-process. The gates: 200 single-row requests over one
//! keep-alive connection stay within p99 ≤ 500 ms and ≥ 10 req/s, and the
//! engine's incremental path (HNSW insert + query + local-subgraph forward)
//! is at least 5x faster than a full-graph re-inference of the same rows —
//! the O(neighborhood) vs O(corpus) claim in one number.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gnn4tdl::servable::{ServableConfig, ServableModel};
use gnn4tdl::EncoderSpec;
use gnn4tdl_construct::{IndexKind, Similarity};
use gnn4tdl_data::synth::{gaussian_clusters, ClustersConfig};
use gnn4tdl_data::{encode_all, Split};
use gnn4tdl_serve::{http, json, serve, Engine, EngineSlot, ServerConfig};
use gnn4tdl_tensor::obs;
use gnn4tdl_train::TrainConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROWS: usize = 10_000;
const REQUESTS: usize = 200;
/// Rows compared between the incremental and the full-graph path.
const COMPARE: usize = 10;

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    let rank = (p / 100.0 * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[rank.min(sorted_ms.len() - 1)]
}

/// Sends `payloads` sequentially on one keep-alive connection and returns
/// the per-request wall times in ms.
fn drive(addr: SocketAddr, payloads: &[Vec<u8>]) -> Vec<f64> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    let mut latencies = Vec::with_capacity(payloads.len());
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    for payload in payloads {
        let t = Instant::now();
        stream.write_all(payload).expect("write request");
        loop {
            match http::parse_response(&buf).expect("well-formed response") {
                Some((resp, consumed)) => {
                    assert_eq!(resp.status, 200, "request failed: {}", String::from_utf8_lossy(&resp.body));
                    buf.drain(..consumed);
                    break;
                }
                None => {
                    let n = stream.read(&mut chunk).expect("read response");
                    assert!(n > 0, "server closed mid-run");
                    buf.extend_from_slice(&chunk[..n]);
                }
            }
        }
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
    }
    latencies
}

#[test]
#[ignore = "timing gate: cargo test --release -- --ignored gate_"]
fn gate_serving_latency_throughput_and_local_speedup() {
    obs::enable();

    let mut rng = StdRng::seed_from_u64(42);
    let dataset = gaussian_clusters(
        &ClustersConfig {
            n: ROWS,
            informative: 12,
            noise_features: 4,
            classes: 3,
            cluster_std: 0.8,
            center_scale: 3.0,
        },
        &mut rng,
    );
    let labels = dataset.target.labels().to_vec();
    let split = Split::stratified(&labels, 0.05, 0.05, &mut rng);
    let features = encode_all(&dataset.table).features;
    let config = ServableConfig {
        encoder: EncoderSpec::Gcn,
        in_dim: features.cols(),
        hidden: 16,
        layers: 2,
        num_classes: 3,
        dropout: 0.0,
        k: 10,
        similarity: Similarity::Euclidean,
        index: IndexKind::Hnsw { m: 12, ef_construction: 64, ef_search: 48, seed: 17 },
    };
    let model = ServableModel::fit(
        features,
        labels,
        &split,
        config,
        &TrainConfig { epochs: 8, patience: 0, ..Default::default() },
    )
    .expect("servable fit");

    // Incremental vs full-graph first, while the index holds no request
    // rows, on identical fresh requests: perturbed corpus rows,
    // in-distribution but unseen.
    let slot = EngineSlot::new(Engine::new(model).expect("engine"));
    let engine = slot.current();
    let make_row = |i: usize| -> Vec<f32> {
        let base = engine.model().features.row(i * 13 % ROWS);
        base.iter().enumerate().map(|(j, &v)| v + ((i + j) as f32 * 0.713).sin() * 0.05).collect()
    };
    let mut local_ms = 0.0;
    let mut full_ms = 0.0;
    for i in 0..COMPARE {
        let row = make_row(i);
        let t = Instant::now();
        let local = engine.predict(&row).expect("incremental predict");
        local_ms += t.elapsed().as_secs_f64() * 1e3;
        let neighbors: Vec<usize> =
            engine.model().exact_neighbors(&row).into_iter().map(|(n, _)| n).collect();
        let t = Instant::now();
        let full = engine.model().predict_full(&row, &neighbors).expect("full predict");
        full_ms += t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(local.proba.len(), full.proba.len());
    }
    let speedup = full_ms / local_ms;

    let server =
        serve(Arc::clone(&slot), ServerConfig { workers: 2, queue_cap: 256, ..ServerConfig::default() })
            .expect("bind");
    let payloads: Vec<Vec<u8>> = (0..REQUESTS)
        .map(|i| {
            let mut body = String::from("{\"row\": ");
            json::write_f32_array(&mut body, &make_row(i));
            body.push('}');
            format!(
                "POST /predict_proba HTTP/1.1\r\nHost: gate\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        })
        .collect();
    let t = Instant::now();
    let mut latencies = drive(server.addr(), &payloads);
    let rps = REQUESTS as f64 / t.elapsed().as_secs_f64();
    server.shutdown();
    latencies.sort_by(|a, b| a.total_cmp(b));
    let p99 = percentile(&latencies, 99.0);

    eprintln!(
        "single-row p50 {:.2} ms, p99 {p99:.2} ms, {rps:.1} req/s; incremental {:.2} ms vs full {:.2} ms \
         per row ({speedup:.2}x)",
        percentile(&latencies, 50.0),
        local_ms / COMPARE as f64,
        full_ms / COMPARE as f64,
    );
    assert!(p99 <= 500.0, "single-row p99 {p99:.2} ms is above the 500 ms ceiling");
    assert!(rps >= 10.0, "single-row throughput {rps:.1} req/s is below the 10 req/s floor");
    assert!(speedup >= 5.0, "incremental speedup {speedup:.2}x is below the 5x floor");
}
