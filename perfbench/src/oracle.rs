//! Reference answers and the checks every answer must pass.
//!
//! The reference is a plain brute-force scan written here, sharing no code
//! with the library's kernels, indexes or its own `NestedLoopJoin`, so a
//! defect common to the algorithms and the library's oracle still shows.
//! It is built during set-up and never timed.

use pgbj::geom::{Neighbor, Point, PointId, PointSet};
use pgbj::knnjoin::{JoinResult, JoinRow};
use std::collections::HashMap;

/// Absolute tolerance on every distance an answer reports.
pub const TOLERANCE: f64 = 1e-9;

/// The Euclidean distance, summed in coordinate order.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// A corpus indexed by point id, for checking that a reported distance is
/// the true distance to the reported id.
#[derive(Debug)]
pub struct Corpus<'a> {
    points: &'a [Point],
    by_id: HashMap<PointId, usize>,
}

impl<'a> Corpus<'a> {
    pub fn new(points: &'a [Point]) -> Self {
        let by_id = points.iter().enumerate().map(|(i, p)| (p.id, i)).collect();
        Self { points, by_id }
    }

    /// The coordinates of the point with this id.
    pub fn coords(&self, id: PointId) -> Option<&'a [f64]> {
        self.by_id
            .get(&id)
            .map(|&i| self.points[i].coords.as_slice())
    }
}

/// The exact `k` nearest neighbours in `corpus` of every query, ascending by
/// distance, computed on `threads` threads.
pub fn brute_force(
    queries: &[Point],
    corpus: &[Point],
    k: usize,
    threads: usize,
) -> Vec<Vec<Neighbor>> {
    let chunk = queries.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || part.iter().map(|q| knn(q, corpus, k)).collect::<Vec<_>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    })
}

fn knn(query: &Point, corpus: &[Point], k: usize) -> Vec<Neighbor> {
    let mut best: Vec<Neighbor> = Vec::with_capacity(k + 1);
    for p in corpus {
        let d = euclidean(&query.coords, &p.coords);
        if best.len() == k && d >= best[k - 1].distance {
            continue;
        }
        let at = best.partition_point(|n| n.distance <= d);
        best.insert(at, Neighbor::new(p.id, d));
        best.truncate(k);
    }
    best
}

/// The reference answer of a join of `queries` against a corpus, as a
/// [`JoinResult`] (rows in `r_id` order), for the library's quality report.
pub fn as_join_result(queries: &PointSet, truth: &[Vec<Neighbor>]) -> JoinResult {
    let mut rows: Vec<JoinRow> = queries
        .iter()
        .zip(truth)
        .map(|(q, n)| JoinRow {
            r_id: q.id,
            neighbors: n.clone(),
        })
        .collect();
    rows.sort_by_key(|r| r.r_id);
    JoinResult {
        rows,
        metrics: Default::default(),
    }
}

/// Checks one answered row for the query `query`:
///
/// * it answers the right query id;
/// * every neighbour exists and its reported distance is the true distance
///   to that id;
/// * for an exact answer, its distances equal the reference rank by rank;
///   for an approximate one, it still holds as many neighbours.
pub fn check_row(
    row: &JoinRow,
    query: &Point,
    truth: &[Neighbor],
    corpus: &Corpus<'_>,
    exact: bool,
) -> Result<(), String> {
    if row.r_id != query.id {
        return Err(format!(
            "answer for id {} returned for query {}",
            row.r_id, query.id
        ));
    }
    if row.neighbors.len() != truth.len() {
        return Err(format!(
            "query {}: {} neighbours, expected {}",
            query.id,
            row.neighbors.len(),
            truth.len()
        ));
    }
    for (rank, n) in row.neighbors.iter().enumerate() {
        let coords = corpus.coords(n.id).ok_or_else(|| {
            format!(
                "query {}: neighbour id {} is not in the corpus",
                query.id, n.id
            )
        })?;
        let true_d = euclidean(&query.coords, coords);
        if (n.distance - true_d).abs() > TOLERANCE {
            return Err(format!(
                "query {}: neighbour {} reported at {} but lies at {true_d}",
                query.id, n.id, n.distance
            ));
        }
        if exact && (n.distance - truth[rank].distance).abs() > TOLERANCE {
            return Err(format!(
                "query {}: neighbour #{rank} at {}, expected {}",
                query.id, n.distance, truth[rank].distance
            ));
        }
    }
    Ok(())
}

/// Checks a whole join result of `queries` against the reference; returns
/// the number of wrong rows and the first problem found.
pub fn check_join(
    result: &JoinResult,
    queries: &PointSet,
    truth: &[Vec<Neighbor>],
    corpus: &Corpus<'_>,
    exact: bool,
) -> (u64, Option<String>) {
    let mut wrong = 0;
    let mut first = None;
    if result.rows.len() != queries.len() {
        return (
            queries.len() as u64,
            Some(format!(
                "{} rows for {} queries",
                result.rows.len(),
                queries.len()
            )),
        );
    }
    for (query, t) in queries.iter().zip(truth) {
        let outcome = match result.row(query.id) {
            Some(row) => check_row(row, query, t, corpus, exact),
            None => Err(format!("query {} has no row", query.id)),
        };
        if let Err(e) = outcome {
            wrong += 1;
            first.get_or_insert(e);
        }
    }
    (wrong, first)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points(rows: &[[f64; 2]]) -> Vec<Point> {
        rows.iter()
            .enumerate()
            .map(|(i, c)| Point::new(i as PointId, c.to_vec()))
            .collect()
    }

    #[test]
    fn brute_force_orders_by_distance() {
        let corpus = points(&[[0.0, 0.0], [3.0, 4.0], [1.0, 0.0], [0.0, 2.0]]);
        let queries = vec![Point::new(7, vec![0.0, 0.0])];
        let truth = brute_force(&queries, &corpus, 3, 2);
        let d: Vec<f64> = truth[0].iter().map(|n| n.distance).collect();
        assert_eq!(d, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn an_injected_wrong_distance_is_a_failure() {
        let corpus_points = points(&[[0.0, 0.0], [3.0, 4.0], [1.0, 0.0], [0.0, 2.0]]);
        let corpus = Corpus::new(&corpus_points);
        let query = Point::new(7, vec![0.0, 0.0]);
        let truth = brute_force(std::slice::from_ref(&query), &corpus_points, 2, 1).remove(0);
        let good = JoinRow {
            r_id: 7,
            neighbors: truth.clone(),
        };
        assert_eq!(check_row(&good, &query, &truth, &corpus, true), Ok(()));

        // A distance off by more than the tolerance, even with the right id.
        let mut off = good.clone();
        off.neighbors[1].distance += 1e-6;
        assert!(check_row(&off, &query, &truth, &corpus, true).is_err());
        assert!(check_row(&off, &query, &truth, &corpus, false).is_err());

        // The true distance to a worse id: wrong for an exact answer, allowed
        // for an approximate one.
        let mut worse = good.clone();
        worse.neighbors[1] = Neighbor::new(3, 2.0);
        assert!(check_row(&worse, &query, &truth, &corpus, true).is_err());
        assert_eq!(check_row(&worse, &query, &truth, &corpus, false), Ok(()));

        // Rows are counted, not just flagged.
        let queries = PointSet::from_points(vec![query.clone()]);
        let result = JoinResult {
            rows: vec![off],
            metrics: Default::default(),
        };
        let (wrong, first) = check_join(&result, &queries, &[truth], &corpus, true);
        assert_eq!(wrong, 1);
        assert!(first.unwrap().contains("neighbour"));
    }
}
