//! Non-finite coordinates at every public entry point: a NaN or infinite
//! coordinate in `R` or `S` (cold `run`, `prepare`), in a prepared query
//! (`query`, `query_one`), in an insert, or in a served request
//! (`Server::submit_one`, `Server::submit`) is rejected with
//! `JoinError::NonFiniteCoordinate` — never a panic, never a short or
//! wrong answer — for every algorithm.

use pgbj::prelude::*;

const BAD: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

fn data(seed: u64) -> PointSet {
    uniform(60, 3, 100.0, seed)
}

/// `set` with one coordinate of the point at `index` replaced by `bad`.
fn poisoned(set: &PointSet, index: usize, bad: f64) -> PointSet {
    let mut points = set.points().to_vec();
    points[index].coords[1] = bad;
    PointSet::from_points(points)
}

fn builder<'a>(r: &'a PointSet, s: &'a PointSet, algorithm: Algorithm) -> Join<'a> {
    Join::new(r, s)
        .k(3)
        .algorithm(algorithm)
        .pivot_count(6)
        .reducers(4)
}

fn non_finite(dataset: &'static str, index: usize) -> JoinError {
    JoinError::NonFiniteCoordinate { dataset, index }
}

#[test]
fn cold_joins_reject_non_finite_coordinates_in_r_and_s() {
    let ctx = ExecutionContext::default();
    let (r, s) = (data(1), data(2));
    for algorithm in Algorithm::ALL {
        for bad in BAD {
            let bad_r = poisoned(&r, 7, bad);
            let err = builder(&bad_r, &s, algorithm).run(&ctx).unwrap_err();
            assert_eq!(err, non_finite("R", 7), "{algorithm} with {bad} in R");
            assert_eq!(err.kind(), JoinErrorKind::PlanValidation);
            let bad_s = poisoned(&s, 11, bad);
            let err = builder(&r, &bad_s, algorithm).run(&ctx).unwrap_err();
            assert_eq!(err, non_finite("S", 11), "{algorithm} with {bad} in S");
        }
    }
}

#[test]
fn the_algorithms_reject_non_finite_coordinates_when_called_directly() {
    // The legacy `KnnJoinAlgorithm` entry points validate on their own, so
    // bypassing the builder cannot reach a sort or a reducer with a NaN.
    let (r, s) = (data(3), data(4));
    let bad_s = poisoned(&s, 0, f64::NAN);
    let algorithms: Vec<Box<dyn KnnJoinAlgorithm>> = vec![
        Box::new(Pgbj::default()),
        Box::new(Pbj::default()),
        Box::new(Hbrj::default()),
        Box::new(Zknn::default()),
        Box::new(BroadcastJoin::default()),
        Box::new(NestedLoopJoin),
    ];
    for algorithm in algorithms {
        let err = algorithm
            .join(&r, &bad_s, 3, DistanceMetric::Euclidean)
            .unwrap_err();
        assert_eq!(err, non_finite("S", 0), "{}", algorithm.name());
    }
}

#[test]
fn prepare_rejects_a_non_finite_corpus() {
    let ctx = ExecutionContext::default();
    let (r, s) = (data(5), data(6));
    for algorithm in Algorithm::ALL {
        for bad in BAD {
            let bad_s = poisoned(&s, 59, bad);
            let err = builder(&r, &bad_s, algorithm).prepare(&ctx).unwrap_err();
            assert_eq!(err, non_finite("S", 59), "{algorithm} with {bad}");
        }
    }
}

#[test]
fn prepared_queries_inserts_and_served_requests_reject_non_finite_points() {
    let ctx = ExecutionContext::default();
    let (r, s) = (data(7), data(8));
    for algorithm in Algorithm::ALL {
        let prepared = builder(&r, &s, algorithm).prepare(&ctx).unwrap();
        let server = Server::start(prepared.clone(), ServerConfig::default().workers(1));
        for bad in BAD {
            let point = Point::new(1_000, vec![1.0, bad, 2.0]);
            assert_eq!(
                prepared.query_one(&point).unwrap_err(),
                non_finite("R", 0),
                "{algorithm} query_one with {bad}"
            );
            assert_eq!(
                prepared.query(&poisoned(&r, 4, bad)).unwrap_err(),
                non_finite("R", 4),
                "{algorithm} query with {bad}"
            );
            assert_eq!(
                prepared.insert(point.clone()).unwrap_err(),
                non_finite("S", 0),
                "{algorithm} insert with {bad}"
            );
            assert_eq!(
                server.submit_one(point).unwrap_err(),
                non_finite("R", 0),
                "{algorithm} submit_one with {bad}"
            );
            assert_eq!(
                server.submit(poisoned(&r, 9, bad)).unwrap_err(),
                non_finite("R", 9),
                "{algorithm} submit with {bad}"
            );
        }
        // Nothing was admitted or mutated, and a finite point is still
        // answered in full.
        assert_eq!(prepared.epoch(), 0, "{algorithm}");
        let row = server
            .submit_one(Point::new(1_001, vec![1.0, 2.0, 3.0]))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(row.neighbors.len(), 3, "{algorithm}");
        let stats = server.shutdown();
        assert_eq!(stats.submitted, 1, "{algorithm}");
    }
}
