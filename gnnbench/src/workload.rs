//! Inputs every workload draws from its seed.

use gnn4tdl_data::synth::{gaussian_clusters, ClustersConfig};
use gnn4tdl_data::{Split, Table};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Classes of every generated table.
pub const CLASSES: usize = 3;

/// Seed of the one population all runs sample from. The workload seed
/// picks which rows, the split and the requests, never how far apart the
/// class centres lie: centres drawn per seed move test accuracy between
/// 0.91 and 0.99, which would swamp any change the code makes.
const POPULATION_SEED: u64 = 1;

/// A table drawn for one run, with its labels and split.
pub struct Sample {
    pub table: Table,
    pub labels: Vec<usize>,
    pub split: Split,
}

/// Draws `n` rows out of a fixed population of `2n` Gaussian-cluster rows
/// (12 informative + 4 noise features, std 0.8), then a stratified split
/// with `train` and `val` fractions, all from `seed`.
pub fn synthesize(n: usize, seed: u64, train: f64, val: f64) -> Sample {
    let population = gaussian_clusters(
        &ClustersConfig {
            n: 2 * n,
            informative: 12,
            noise_features: 4,
            classes: CLASSES,
            cluster_std: 0.8,
            center_scale: 3.0,
        },
        &mut StdRng::seed_from_u64(POPULATION_SEED),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows: Vec<usize> = (0..2 * n).collect();
    rows.shuffle(&mut rng);
    rows.truncate(n);
    let all = population.target.labels();
    let labels: Vec<usize> = rows.iter().map(|&r| all[r]).collect();
    let split = Split::stratified(&labels, train, val, &mut rng);
    Sample { table: population.table.select_rows(&rows), labels, split }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_alone_fixes_the_sample() {
        let a = synthesize(300, 4, 0.5, 0.2);
        let b = synthesize(300, 4, 0.5, 0.2);
        let c = synthesize(300, 5, 0.5, 0.2);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.split.train, b.split.train);
        assert_eq!(a.table.num_rows(), 300);
        assert_ne!(a.split.train, c.split.train);
    }
}
