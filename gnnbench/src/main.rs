//! # gnnbench: one benchmark for the fit and serve paths
//!
//! The system has two end-to-end paths. *Fit* featurizes a table,
//! constructs the kNN instance graph, trains a GNN and predicts. *Serve*
//! answers unseen rows by attaching each to the corpus graph and running a
//! local forward pass. This benchmark measures both end to end and
//! attributes their time to layers.
//!
//! ## Running
//!
//! From the repository root:
//!
//! ```text
//! cargo run --release --manifest-path gnnbench/Cargo.toml
//! cargo run --release --manifest-path gnnbench/Cargo.toml -- \
//!     --workload serve-single --seed 2 --seconds 10 --trace 0
//! cargo run --release --manifest-path gnnbench/Cargo.toml -- \
//!     compare base/*.json -- new/*.json
//! cargo test --release --manifest-path gnnbench/Cargo.toml
//! ```
//!
//! `--workload NAME` runs one workload in this process. Without it the
//! binary re-executes itself once per workload, so no workload inherits
//! another's heap, pools or threads. `--seed` fixes every input (default
//! 1). `--seconds` is the measured window (default 10). `--trace 1` (the
//! default) adds the traced phase and the per-layer metrics; `--trace 0`
//! measures end to end only.
//!
//! A run prints one `name value unit` line per metric. Its last line is one
//! JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer ones
//! with `--trace 1`. Every metric of the run goes to
//! `target/gnnbench/<workload>-seed<S>.json`, the file `compare` reads.
//! A traced run writes its spans to
//! `target/gnnbench/<workload>-seed<S>.trace.json` and prints the FNV-1a-64
//! digest of every prediction bit it produced on standard error. A failed
//! correctness check is named on standard error, and the run exits 1.
//!
//! ## Phases
//!
//! * **End to end.** `obs::disable()` is forced, whatever `GNN4TDL_TRACE`
//!   says. Set-up is timed on its own and repeated: three times for serve
//!   and five for fit. `setup_s` is the median.
//! * **Traced.** The benchmark's own spans (name, request id, start, end,
//!   parent) around calls into each layer's public functions, kept in
//!   memory. Per-layer times are span self times. Obs stays off here too:
//!   enabling it changes what executes, since it disables minibatch
//!   prefetch.
//!
//! ## Workloads
//!
//! The serve workloads share one model. It is fit on a 10k-row corpus of
//! Gaussian-cluster rows (12 informative + 4 noise features, 3 classes,
//! std 0.8, 5% train and 5% validation labels): GCN, hidden 16, 2 layers,
//! Euclidean k=10 over HNSW m12/efc64/efs48, 50 epochs. The server runs
//! in-process with `ServerConfig::default()` and, unless `GNN4TDL_POOL` is
//! set, with the tensor buffer pool off: the pool keeps every buffer
//! length it has seen, and batched serving makes a new length almost every
//! request (7.5 GiB parked in one serve-batch run). The load is
//! closed-loop: two client threads each own one keep-alive connection and
//! send their next request only after the reply. An open loop over so few connections
//! measures client sleep jitter more than the server. Requests are corpus
//! rows plus at most 0.05 of noise per feature, drawn from the seed; 20
//! warm-up requests go first. The load lasts at least `--seconds`, and
//! until 1000 requests support a p99. It ends on a whole number of cap
//! cycles, so every run pays for the same share of rebuilds or compactions.
//!
//! | workload | what runs | why |
//! |---|---|---|
//! | `serve-single` | one-row `POST /predict_proba`; a request cap no run reaches | Fixed per-request costs: framing, engine lock, HNSW insert + query, local forward over ~1400 nodes. Bypasses the WAL, batch fusion and rebuilds. |
//! | `serve-batch` | 16-row requests, default cap of 4096 rows | `predict_local_batch` (assembly, graph build, stacked forward), large JSON bodies and index rebuilds at the cap. |
//! | `serve-durable` | one-row requests, durable engine with a state dir under `target/gnnbench/`, cap 1024 | An fsync'd WAL append under the wal→hnsw lock and snapshot compaction every 1024 rows. A WAL change must move this and leave `serve-single` alone. |
//! | `fit-full` | n=10k, exact kNN k=10, GCN hidden 32, 300 full-batch epochs, split 50/20 | Exact GEMM kNN and full-graph GEMM/SpMM epochs: kernels, pool, dispatch. Bypasses HNSW, the sampler and prefetch. |
//! | `fit-minibatch` | n=30k, HNSW kNN, `NeighborSampler(128, [4, 3])`, 10% train labels, 30 epochs, prefetch on | HNSW build, sampling, `induced_subgraph`, small-block kernels and prefetch. Bypasses exact kNN and full-graph kernels. |
//!
//! Every table is drawn from one fixed population of twice its size, so
//! the seed changes rows, splits and requests but not how separable the
//! classes are. A fit workload repeats the whole fit until the window has
//! passed and 1000 optimizer steps support a p99.
//!
//! ## End-to-end metrics
//!
//! | metric | unit | serve-* | fit-* |
//! |---|---|---|---|
//! | `setup_s` | s | servable fit + engine build + bind | table synthesis |
//! | `p50_ms` | ms | client round trip per request | one optimizer step: a full-batch epoch, or one sampled block |
//! | `p99_ms` | ms | as `p50_ms`, from ≥1000 samples | as `p50_ms`, from ≥1000 samples |
//! | `rows_per_s` | 1/s | rows answered per second of load | table rows per second of fit (encode + construct + train + predict) |
//! | `accuracy` | fraction | answers equal to the label of the request's source row | test accuracy |
//!
//! Failed requests are counted in `failed`, and `correct` turns false.
//! Peak memory is not among them: identical serve-durable runs peaked
//! anywhere from 76 to 108 MiB, depending on which server thread's malloc
//! arena each compaction landed in, so no bound could hold it.
//!
//! ## Per-layer metrics and the end-to-end metric each should move
//!
//! Serve shares are fractions of the end-to-end mean request latency, from
//! a sequential replay (1000 requests, 64 on serve-batch) through the
//! calls the server makes. On fit workloads every `serve.*` and
//! `servable.*` metric is 0.
//!
//! * `serve.http.parse_share`: `http::parse_request` → `p50_ms` on serve-single.
//! * `serve.json.parse_share`: `json::parse` of the body → `rows_per_s` on serve-batch.
//! * `serve.engine.neighbors_share`: `Engine::neighbors` (HNSW insert + query, and the WAL append when durable) → `p50_ms` on serve-single, `p99_ms` on serve-durable.
//! * `servable.predict_share`: `predict_local`, or `predict_local_batch` on serve-batch → `p50_ms` on serve-single and serve-durable, `rows_per_s` on serve-batch.
//! * `serve.json.encode_share`: reply body + `http::encode_response_with` → `rows_per_s` on serve-batch.
//! * `serve.unattributed_share`: 1 − replayed request time ÷ end-to-end latency: sockets, queueing, scheduling → `p50_ms` on serve-single.
//! * `serve.wal.append_share`: 1000 `Wal::append` calls on a scratch WAL (serve-durable) → `p50_ms` and `rows_per_s` on serve-durable, no change on serve-single.
//! * `serve.compact_share`, `serve.compactions`: one timed `Engine::compact` × compactions during the load ÷ load time, and that count → `rows_per_s` on serve-durable.
//! * `serve.engine.rebuilds`: index rebuilds during the load → `rows_per_s` on serve-batch.
//! * `serve.engine.recall`: overlap of each replayed neighbor set with `exact_neighbors` → guards `accuracy` when the index changes.
//! * `servable.subgraph_nodes`: mean `LocalPrediction::subgraph_nodes`, the work count of every serve workload.
//! * `servable.batch_vs_single`: per-row cost of `predict_local_batch` over `predict_local` on 16-row groups of replayed rows. Above 1, batching itself is the stage behind the batch gap.
//! * `data.encode_ms`: `encode_all` → `rows_per_s` on fit-*, `setup_s` on serve-*.
//! * `construct.graph_s`: `build_instance_graph_with` → `rows_per_s` on fit-*, `setup_s` on serve-*.
//! * `construct.recall`: share of 500 seeded rows' exact 10 nearest neighbors present in the kNN graph → `accuracy` on fit-minibatch.
//! * `train.fit_s`: `fit`, `fit_minibatch`, or `ServableModel::fit` (which also constructs) → `p50_ms` on fit-*, `setup_s` on serve-*.
//! * `train.sample_block_ms`, `train.block_nodes`, `train.block_edges`: one epoch of `sample_block` on the workload's graph and train rows → `p50_ms` on fit-minibatch, no change on fit-full.
//! * `train.sample_share`: that sampling time over the fit-minibatch epoch, the most prefetch or trimming can save (0 elsewhere).
//! * `nn.predict_ms`: `train::predict`, or `ServableModel::corpus_proba` on serve, the eval forward over every node → `rows_per_s` on fit-*.
//! * `tensor.gemm_gflops`: `kernel::gemm_into` at the workload's forward shape (rows × hidden × hidden) → `p50_ms` on fit-full.
//! * `tensor.spmm_gflops`: `CsrMatrix::spmm` of the workload's graph × hidden columns → `p50_ms` on fit-full.
//! * `tensor.pool_hit_rate`, `tensor.pool_misses`: `pool::global_stats` over the fits or the replay → `p50_ms` on fit-full.
//! * `tensor.pack_hit_rate`: `kernel::pack_stats` over the same.
//! * `tensor.dispatch_us`: one two-chunk `par_chunks_mut` region → `p50_ms` on fit-minibatch.
//!
//! ## Correctness checks
//!
//! * Every reply is a 200 whose body parses, with per row a `proba` of 3
//!   entries summing to 1 ± 1e-5 and a `pred` equal to its argmax.
//! * After the load, `/healthz` `served` equals the rows acknowledged, and
//!   `retained_requests` matches the rebuilds the cap implies.
//! * On serve-durable, `snapshot_generation` = ⌊acked / 1024⌋ and
//!   `wal_records` = acked mod 1024.
//! * Every fit reaches test accuracy ≥ 0.95.

mod compare;
mod fit;
mod metrics;
mod probe;
mod serve;
mod trace;
mod workload;

use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Duration;

use gnn4tdl_tensor::obs;

use metrics::{summary_line, Metrics, RunRecord, END_TO_END, PER_LAYER};
use trace::Tracer;

/// Every workload, in the order a run without `--workload` takes them.
const WORKLOADS: [&str; 5] = ["serve-single", "serve-batch", "serve-durable", "fit-full", "fit-minibatch"];

/// Where runs write results, spans and scratch state.
const OUT_DIR: &str = "target/gnnbench";

/// What one workload run produced.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks that failed, each named.
    pub checks: Vec<String>,
    /// FNV-1a-64 of the traced phase's prediction bits.
    pub digest: Option<u64>,
}

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: gnnbench [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]\n       \
                     gnnbench compare BASE.json... -- NEW.json...";

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options { workload: None, seed: 1, seconds: 10, trace: true };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag} takes a whole number, not {value:?}"));
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => options.workload = Some(value.clone()),
            "--workload" => {
                return Err(format!("unknown workload {value:?}; one of {}", WORKLOADS.join(", ")))
            }
            "--seed" => options.seed = number()?,
            "--seconds" if number()? >= 1 => options.seconds = number()?,
            "--seconds" => return Err("--seconds must be at least 1".into()),
            "--trace" if value == "0" || value == "1" => options.trace = value == "1",
            "--trace" => return Err("--trace takes 0 or 1".into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::run(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("gnnbench compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("gnnbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &options.workload {
        Some(workload) => run_workload(workload, &options),
        None => run_all(&options),
    }
}

/// Re-executes this binary once per workload, each in its own process.
fn run_all(options: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("gnnbench: cannot find its own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for workload in WORKLOADS {
        eprintln!("gnnbench: {workload}");
        let status = Command::new(&exe)
            .args(["--workload", workload, "--seed", &options.seed.to_string()])
            .args([
                "--seconds",
                &options.seconds.to_string(),
                "--trace",
                if options.trace { "1" } else { "0" },
            ])
            .status();
        if !status.is_ok_and(|s| s.success()) {
            failed.push(workload);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("gnnbench: failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn run_workload(workload: &str, options: &Options) -> ExitCode {
    obs::disable();
    let out = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("gnnbench: {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let tracer = Tracer::new(options.trace);
    let window = Duration::from_secs(options.seconds);
    let seed = options.seed;
    let result = match (serve::plan(workload), fit::plan(workload)) {
        (Some(plan), _) => serve::run(workload, &plan, seed, window, &tracer, out),
        (None, Some(plan)) => fit::run(&plan, seed, window, &tracer),
        (None, None) => unreachable!("workload names are checked when parsed"),
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("gnnbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let end_to_end = outcome.metrics.select(END_TO_END);
    let per_layer = if options.trace { outcome.metrics.select(PER_LAYER) } else { Vec::new() };
    let all: Vec<_> = end_to_end.iter().chain(&per_layer).copied().collect();
    for (name, value, unit) in &all {
        println!("{name} {value} {unit}");
    }
    if let Some(digest) = outcome.digest {
        eprintln!("digest fnv1a64 {digest:016x}");
    }
    for check in &outcome.checks {
        eprintln!("gnnbench: {workload}: check failed: {check}");
    }
    let correct = outcome.checks.is_empty();
    let record = RunRecord {
        workload,
        seed,
        correct,
        attempted: outcome.attempted,
        failed: outcome.failed,
        digest: outcome.digest,
        entries: &all,
    };
    let stem = out.join(format!("{workload}-seed{seed}"));
    let mut writes = vec![(stem.with_extension("json"), record.to_json())];
    if options.trace {
        writes.push((stem.with_extension("trace.json"), tracer.to_json()));
    }
    for (path, text) in writes {
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("gnnbench: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let reported = if options.trace { &per_layer } else { &end_to_end };
    println!("{}", summary_line(correct, outcome.attempted, outcome.failed, reported));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> compare::Manifest {
        let text = std::fs::read_to_string(compare::MANIFEST).expect("BENCHMARK.json beside gnnbench/");
        compare::load_manifest(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_declares_exactly_what_every_workload_emits() {
        let m = manifest();
        assert_eq!(m.workloads, WORKLOADS, "workloads");
        let pairs = |d: &[compare::Declared]| -> Vec<(String, String)> {
            d.iter().map(|d| (d.name.clone(), d.unit.clone())).collect()
        };
        let catalogue = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        // Every workload sets the whole catalogue (`Metrics::select` panics
        // on a missing name, `Metrics::set` on an unknown one).
        assert_eq!(pairs(&m.end_to_end), catalogue(END_TO_END));
        assert_eq!(pairs(&m.per_layer), catalogue(PER_LAYER));
        assert!(m.end_to_end.iter().all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(m.per_layer.iter().all(|d| d.bound.is_none()));
        let setup = m.end_to_end.iter().find(|d| d.name == "setup_s").expect("setup_s");
        assert!(!setup.higher_better && m.end_to_end.iter().all(|d| d.bound <= setup.bound));
        assert!(WORKLOADS.iter().all(|w| metrics::valid_name(w)));
    }

    #[test]
    fn options_are_checked() {
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let o = parse_options(&args("--workload fit-full --seed 4 --seconds 3 --trace 0")).unwrap();
        assert_eq!((o.workload.as_deref(), o.seed, o.seconds, o.trace), (Some("fit-full"), 4, 3, false));
        for bad in ["--workload nope", "--seconds 0", "--trace 2", "--seed", "--bogus 1"] {
            assert!(parse_options(&args(bad)).is_err(), "{bad}");
        }
    }
}
