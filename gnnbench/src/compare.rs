//! `gnnbench compare BASE.json… -- NEW.json…`: per metric and workload,
//! the medians and quartiles of both sides, the share of pairs the new
//! side won, and a verdict.
//!
//! Runs pair up in the order given. A metric *improved* when the new side
//! wins at least nine tenths of the pairs (ties count for neither) and the
//! medians differ by more than the base side's quartile spread. An
//! end-to-end metric *regressed* when the new median is worse than the
//! base median by more than its bound in `BENCHMARK.json`, and is
//! *unresolved* when the base spread is wider than that bound, unless
//! every new run beats every base run. A per-layer metric has no bound: it
//! regressed by the mirror of the improvement rule.

use std::collections::BTreeMap;

use gnn4tdl_serve::json::{self, Json};

use crate::metrics::{median, parse_record, quartiles};

/// `BENCHMARK.json` beside the benchmark's own directory.
pub const MANIFEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_better: bool,
    /// Allowed worsening as a share of the base median; `None` per layer.
    pub bound: Option<f64>,
}

/// The workloads and metrics `BENCHMARK.json` declares.
pub struct Manifest {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

pub fn load_manifest(text: &str) -> Result<Manifest, String> {
    let doc = json::parse(text)?;
    let list = |key: &str| doc.get(key).and_then(Json::as_array).ok_or_else(|| format!("no {key:?} list"));
    let text_of = |v: &Json, key: &str| {
        v.get(key).and_then(Json::as_str).map(str::to_string).ok_or_else(|| format!("entry without {key:?}"))
    };
    let declared = |key: &str| -> Result<Vec<Declared>, String> {
        list(key)?
            .iter()
            .map(|m| {
                let better = text_of(m, "better")?;
                if better != "higher" && better != "lower" {
                    return Err(format!("better must be higher or lower, not {better:?}"));
                }
                Ok(Declared {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                    higher_better: better == "higher",
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok(Manifest {
        workloads: list("workloads")?.iter().map(|w| text_of(w, "name")).collect::<Result<_, _>>()?,
        end_to_end: declared("end_to_end")?,
        per_layer: declared("per_layer")?,
    })
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// The verdict for one metric on one workload and the share of pairs the
/// new side won.
pub fn verdict(base: &[f64], new: &[f64], higher_better: bool, bound: Option<f64>) -> (Verdict, f64) {
    let better = |a: f64, b: f64| if higher_better { a > b } else { a < b };
    let pairs = base.len().min(new.len());
    let won = (0..pairs).filter(|&i| better(new[i], base[i])).count();
    let lost = (0..pairs).filter(|&i| better(base[i], new[i])).count();
    let share = if pairs == 0 { 0.0 } else { won as f64 / pairs as f64 };
    let (base_med, new_med) = (median(base), median(new));
    let [q1, _, q3] = quartiles(base);
    let spread = q3 - q1;
    let gain = if higher_better { new_med - base_med } else { base_med - new_med };
    if pairs > 0 && won * 10 >= pairs * 9 && gain > spread {
        return (Verdict::Improved, share);
    }
    let Some(bound) = bound else {
        let worse = pairs > 0 && lost * 10 >= pairs * 9 && -gain > spread;
        return (if worse { Verdict::Regressed } else { Verdict::Unchanged }, share);
    };
    let limit = bound * base_med.abs();
    let every_new_run_better = new.iter().all(|&n| base.iter().all(|&b| better(n, b)));
    if spread > limit && !every_new_run_better {
        (Verdict::Unresolved, share)
    } else if -gain > limit {
        (Verdict::Regressed, share)
    } else {
        (Verdict::Unchanged, share)
    }
}

/// Workload → metric → values, from run files.
fn load_runs(paths: &[String]) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut runs: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let (workload, metrics) = parse_record(&text).map_err(|e| format!("{path}: {e}"))?;
        let slot = runs.entry(workload).or_default();
        for (name, value) in metrics {
            slot.entry(name).or_default().push(value);
        }
    }
    Ok(runs)
}

/// Runs the subcommand on its arguments (everything after `compare`).
pub fn run(args: &[String]) -> Result<(), String> {
    let split =
        args.iter().position(|a| a == "--").ok_or("usage: gnnbench compare BASE.json... -- NEW.json...")?;
    let (base_paths, new_paths) = (&args[..split], &args[split + 1..]);
    if base_paths.is_empty() || new_paths.is_empty() {
        return Err("compare needs run files on both sides of --".into());
    }
    let text = std::fs::read_to_string(MANIFEST).map_err(|e| format!("{MANIFEST}: {e}"))?;
    let manifest = load_manifest(&text)?;
    let (base, new) = (load_runs(base_paths)?, load_runs(new_paths)?);
    println!(
        "{:<14} {:<30} {:>12} {:>25} {:>12} {:>25} {:>5}  verdict",
        "workload", "metric", "base", "base q1..q3", "new", "new q1..q3", "won"
    );
    let empty = BTreeMap::new();
    for workload in &manifest.workloads {
        let (b, n) = (base.get(workload).unwrap_or(&empty), new.get(workload).unwrap_or(&empty));
        for metric in manifest.end_to_end.iter().chain(&manifest.per_layer) {
            let (Some(bv), Some(nv)) = (b.get(&metric.name), n.get(&metric.name)) else { continue };
            let (verdict, won) = verdict(bv, nv, metric.higher_better, metric.bound);
            let (bq, nq) = (quartiles(bv), quartiles(nv));
            println!(
                "{workload:<14} {:<30} {:>12.6} {:>25} {:>12.6} {:>25} {:>4.0}%  {}",
                metric.name,
                median(bv),
                format!("{:.6}..{:.6}", bq[0], bq[2]),
                median(nv),
                format!("{:.6}..{:.6}", nq[0], nq[2]),
                won * 100.0,
                format!("{verdict:?}").to_lowercase()
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_runs_are_unchanged_and_a_clear_win_improves() {
        let base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0];
        assert_eq!(verdict(&base, &base, false, Some(0.1)).0, Verdict::Unchanged);
        let faster: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
        assert_eq!(verdict(&base, &faster, false, Some(0.1)), (Verdict::Improved, 1.0));
        let slower: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&base, &slower, false, Some(0.1)).0, Verdict::Regressed);
        // Higher-is-better metrics read the other way round.
        assert_eq!(verdict(&base, &slower, true, Some(0.1)).0, Verdict::Improved);
    }

    #[test]
    fn a_base_spread_wider_than_the_bound_is_unresolved() {
        let base = [5.0, 10.0, 15.0, 5.0, 10.0, 15.0];
        let new = [10.5, 10.0, 10.2, 9.9, 10.1, 10.0];
        assert_eq!(verdict(&base, &new, false, Some(0.1)).0, Verdict::Unresolved);
        let all_better = [4.0, 4.5, 4.2, 4.1, 4.3, 4.4];
        assert_ne!(verdict(&base, &all_better, false, Some(0.1)).0, Verdict::Unresolved);
    }

    #[test]
    fn per_layer_metrics_regress_only_by_the_pairs_rule() {
        let base = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.0, 1.02, 0.98];
        let worse: Vec<f64> = base.iter().map(|v| v * 1.5).collect();
        assert_eq!(verdict(&base, &worse, false, None).0, Verdict::Regressed);
        assert_eq!(verdict(&base, &base, false, None).0, Verdict::Unchanged);
    }
}
