//! Workload inputs, made only from the command-line seed.
//!
//! Both workloads run the same stages over one of the paper's two datasets:
//! the Forest-like 10-d set (distances are expensive) and the OSM-like 2-d
//! set (distances are almost free, so framework overhead dominates).

use pgbj::datagen::{forest_like, osm_like, ForestConfig, OsmConfig};
use pgbj::geom::{Point, PointSet};

/// Neighbours per query, the experiments' default.
pub const K: usize = 10;
/// Size of the cold self-join input (the experiments' full scale).
pub const JOIN_POINTS: usize = 12_000;
/// Pivots of the cold PGBJ/PBJ joins.
pub const JOIN_PIVOTS: usize = 128;
/// Reducers of every join and probe.
pub const REDUCERS: usize = 16;
/// H-zkNNJ shifted copies (α).
pub const SHIFT_COPIES: usize = 2;
/// H-zkNNJ candidate-window multiplier.
pub const Z_WINDOW: usize = 24;
/// Size of the prepared (served and mutated) corpus.
pub const CORPUS_POINTS: usize = 50_000;
/// Pivots of the prepared PGBJ corpus.
pub const CORPUS_PIVOTS: usize = 256;
/// Size of the query pool single-point lookups are drawn from.
pub const POOL_POINTS: usize = 4_096;

/// The dataset a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    Forest,
    Osm,
}

impl Dataset {
    /// The dataset of a workload name, if the name is known.
    pub fn from_workload(name: &str) -> Option<Self> {
        match name {
            "forest" => Some(Dataset::Forest),
            "osm" => Some(Dataset::Osm),
            _ => None,
        }
    }

    fn generate(self, n_points: usize, seed: u64) -> PointSet {
        match self {
            Dataset::Forest => forest_like(
                &ForestConfig {
                    n_points,
                    dims: 10,
                    n_clusters: 7,
                },
                seed,
            ),
            Dataset::Osm => osm_like(
                &OsmConfig {
                    n_points,
                    ..OsmConfig::default()
                },
                seed,
            ),
        }
    }
}

/// Everything one run feeds the library.
#[derive(Debug)]
pub struct Inputs {
    /// Input of the cold self-joins.
    pub join: PointSet,
    /// The prepared corpus, ids `0..CORPUS_POINTS`.
    pub corpus: PointSet,
    /// Query points held out of the corpus' own draw, ids `0..POOL_POINTS`.
    pub pool: Vec<Point>,
    /// Pool indices in request order (a seeded permutation, cycled).
    pub read_order: Vec<usize>,
    /// Corpus indices the churn loop re-inserts, in order.
    pub write_order: Vec<usize>,
}

/// Makes the inputs of a run from its seed.  The corpus and the query pool
/// are one draw from the generator, split at random, so queries follow the
/// corpus' distribution without being members of it.
pub fn make(dataset: Dataset, seed: u64) -> Inputs {
    let join = dataset.generate(JOIN_POINTS, seed);
    let mut rng = SplitMix64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut online = dataset
        .generate(CORPUS_POINTS + POOL_POINTS, rng.next())
        .into_points();
    shuffle(&mut online, &mut rng);
    let pool: Vec<Point> = online
        .drain(..POOL_POINTS)
        .enumerate()
        .map(|(i, p)| Point::new(i as u64, p.coords))
        .collect();
    let corpus = PointSet::from_points(
        online
            .into_iter()
            .enumerate()
            .map(|(i, p)| Point::new(i as u64, p.coords))
            .collect(),
    );
    let mut read_order: Vec<usize> = (0..POOL_POINTS).collect();
    shuffle(&mut read_order, &mut rng);
    let write_order = (0..CORPUS_POINTS)
        .map(|_| (rng.next() % CORPUS_POINTS as u64) as usize)
        .collect();
    Inputs {
        join,
        corpus,
        pool,
        read_order,
        write_order,
    }
}

/// A small seeded generator (SplitMix64), so input order depends on the
/// seed alone.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_depend_only_on_the_seed() {
        let a = make(Dataset::Osm, 3);
        let b = make(Dataset::Osm, 3);
        let c = make(Dataset::Osm, 4);
        assert_eq!(a.pool, b.pool);
        assert_eq!(a.read_order, b.read_order);
        assert_eq!(a.write_order[..64], b.write_order[..64]);
        assert_ne!(a.pool, c.pool);
        assert_eq!(a.corpus.len(), CORPUS_POINTS);
        assert_eq!(a.pool.len(), POOL_POINTS);
        assert_eq!(a.join.dims(), 2);
        assert!(a.corpus.iter().enumerate().all(|(i, p)| p.id == i as u64));
    }
}
