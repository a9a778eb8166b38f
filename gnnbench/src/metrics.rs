//! The metric catalogue, the statistics each metric is computed with, and
//! the JSON a run prints and writes. JSON goes through the serving crate's
//! own parser and writer (`gnn4tdl_serve::json`).

use std::collections::BTreeMap;

use gnn4tdl_serve::json::{self, Json};

/// End-to-end metrics, `(name, unit)`. Every workload reports every one;
/// the module docs of `main.rs` say what each means on each workload.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("p50_ms", "ms"), ("p99_ms", "ms"), ("rows_per_s", "1/s"), ("accuracy", "fraction")];

/// Per-layer metrics from the traced phase, `(name, unit)`. Every workload
/// reports every one; a layer the workload does not run reports a share or
/// count of 0, while every time is measured on every workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.http.parse_share", "fraction"),
    ("serve.json.parse_share", "fraction"),
    ("serve.engine.neighbors_share", "fraction"),
    ("servable.predict_share", "fraction"),
    ("serve.json.encode_share", "fraction"),
    ("serve.unattributed_share", "fraction"),
    ("serve.wal.append_share", "fraction"),
    ("serve.compact_share", "fraction"),
    ("serve.engine.rebuilds", "count"),
    ("serve.compactions", "count"),
    ("serve.engine.recall", "fraction"),
    ("servable.subgraph_nodes", "count"),
    ("servable.batch_vs_single", "ratio"),
    ("data.encode_ms", "ms"),
    ("construct.graph_s", "s"),
    ("construct.recall", "fraction"),
    ("train.fit_s", "s"),
    ("train.sample_block_ms", "ms"),
    ("train.sample_share", "fraction"),
    ("train.block_nodes", "count"),
    ("train.block_edges", "count"),
    ("nn.predict_ms", "ms"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.spmm_gflops", "GFLOP/s"),
    ("tensor.pool_hit_rate", "fraction"),
    ("tensor.pool_misses", "count"),
    ("tensor.pack_hit_rate", "fraction"),
    ("tensor.dispatch_us", "us"),
];

/// A percentile is reported only with at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Samples a p99 needs under [`MIN_BEYOND`].
pub const P99_SAMPLES: usize = 1000;

/// True when `name` is a valid metric or workload name.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty() && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// Metric values of one run, keyed by catalogue name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "{name} is not in the metric catalogue");
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `(name, value, unit)` for every metric of `catalogue`, in catalogue
    /// order. A missing metric is a bug in a workload, hence the panic.
    pub fn select(
        &self,
        catalogue: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, f64, &'static str)> {
        catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = self.get(name).unwrap_or_else(|| panic!("workload did not report {name}"));
                (name, value, unit)
            })
            .collect()
    }
}

/// Nearest-rank percentile of an ascending-sorted, non-empty sample: the
/// smallest value with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64) / 100.0).ceil().clamp(1.0, n as f64) as usize
}

/// [`percentile`], refused unless at least [`MIN_BEYOND`] samples lie
/// beyond it.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Result<f64, String> {
    let n = sorted.len();
    if n == 0 {
        return Err(format!("p{p} of an empty sample"));
    }
    let beyond = n - rank(n, p);
    if beyond < MIN_BEYOND {
        return Err(format!("p{p} needs {MIN_BEYOND} samples beyond it, {n} samples leave {beyond}"));
    }
    Ok(percentile(sorted, p))
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median, averaging the middle pair of an even-length sample (Python's
/// `statistics.median`).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return [x, x, x];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Writes `{"name": {"value": v, "unit": "u"}, ...}`.
fn write_metrics(out: &mut String, entries: &[(&str, f64, &str)]) {
    out.push('{');
    for (i, (name, value, unit)) in entries.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json::write_str(out, name);
        out.push_str(&format!(": {{\"value\": {value}, \"unit\": "));
        json::write_str(out, unit);
        out.push('}');
    }
    out.push('}');
}

/// The line a run ends its standard output with.
pub fn summary_line(correct: bool, attempted: u64, failed: u64, entries: &[(&str, f64, &str)]) -> String {
    let mut out =
        format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": ");
    write_metrics(&mut out, entries);
    out.push('}');
    out
}

/// What a run writes to `target/gnnbench/<workload>-seed<S>.json`.
pub struct RunRecord<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub digest: Option<u64>,
    pub entries: &'a [(&'a str, f64, &'a str)],
}

impl RunRecord<'_> {
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"workload\": ");
        json::write_str(&mut out, self.workload);
        out.push_str(&format!(
            ", \"seed\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"digest\": ",
            self.seed, self.correct, self.attempted, self.failed
        ));
        match self.digest {
            Some(d) => json::write_str(&mut out, &format!("{d:016x}")),
            None => out.push_str("null"),
        }
        out.push_str(", \"metrics\": ");
        write_metrics(&mut out, self.entries);
        out.push('}');
        out
    }
}

/// Reads a run file back: its workload and metric values.
pub fn parse_record(text: &str) -> Result<(String, BTreeMap<String, f64>), String> {
    let doc = json::parse(text)?;
    let workload = doc.get("workload").and_then(Json::as_str).ok_or("missing \"workload\"")?.to_string();
    let Some(Json::Obj(fields)) = doc.get("metrics") else {
        return Err("missing \"metrics\" object".into());
    };
    let mut metrics = BTreeMap::new();
    for (name, entry) in fields {
        let value =
            entry.get("value").and_then(Json::as_f64).ok_or_else(|| format!("metric {name} has no value"))?;
        metrics.insert(name.clone(), value);
    }
    Ok((workload, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
    }

    #[test]
    fn p99_is_refused_below_a_thousand_samples() {
        let short: Vec<f64> = (0..P99_SAMPLES - 1).map(|i| i as f64).collect();
        assert!(tail_percentile(&short, 99.0).is_err());
        let enough: Vec<f64> = (0..P99_SAMPLES).map(|i| i as f64).collect();
        assert_eq!(tail_percentile(&enough, 99.0), Ok(989.0));
        assert!(tail_percentile(&[], 50.0).is_err());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn catalogue_names_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        for name in &all {
            assert!(valid_name(name) && name.len() <= 64, "{name}");
            assert!(name.as_bytes()[0].is_ascii_alphanumeric(), "{name}");
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "duplicate metric name");
        assert!(!valid_name("p99 ms") && !valid_name("") && !valid_name("a/b"));
    }

    #[test]
    fn records_round_trip_through_the_serve_json_parser() {
        let entries = [("p50_ms", 1.25, "ms"), ("accuracy", 0.975, "fraction")];
        let record = RunRecord {
            workload: "serve-single",
            seed: 3,
            correct: true,
            attempted: 10,
            failed: 0,
            digest: Some(0xabc),
            entries: &entries,
        };
        let (workload, metrics) = parse_record(&record.to_json()).unwrap();
        assert_eq!(workload, "serve-single");
        assert_eq!(metrics["p50_ms"], 1.25);
        assert_eq!(metrics["accuracy"], 0.975);
        let line = json::parse(&summary_line(true, 10, 0, &entries)).unwrap();
        assert_eq!(line.get("attempted").and_then(Json::as_f64), Some(10.0));
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    }

    #[test]
    #[should_panic(expected = "not in the metric catalogue")]
    fn unknown_metrics_are_rejected() {
        Metrics::default().set("made_up", 1.0);
    }
}
