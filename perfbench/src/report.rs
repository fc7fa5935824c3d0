//! The metric catalogue and the result line.
//!
//! The catalogue here and `BENCHMARK.json` name the same metrics with the
//! same units; a test keeps them in step.

use crate::joins::{snake, ALGS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: printed by the untraced run.
pub const END_TO_END: [(&str, &str); 10] = [
    ("join_s.pgbj", "s"),
    ("join_s.pbj", "s"),
    ("join_s.hbrj", "s"),
    ("join_s.zknn", "s"),
    ("zknn_recall", "ratio"),
    ("probe_p50_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_mean_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: printed by the traced run.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| out.push((name.to_string(), unit));
    for kind in ["scalar", "batch"] {
        for d in ["d2", "d10"] {
            add(&format!("kernels.{kind}_ns_per_dist.{d}"), "ns");
        }
    }
    add("pivots.select_s", "s");
    add("partition.assign_s", "s");
    add("partition.dists_per_point", "count");
    add("rtree.bulk_load_s", "s");
    add("rtree.knn_us", "us");
    add("rtree.dists_per_knn", "count");
    for phase in ["map", "shuffle", "reduce"] {
        add(&format!("engine.{phase}_s"), "s");
    }
    add("engine.ns_per_record", "ns");
    for alg in &ALGS {
        let key = alg.key;
        for phase in alg.phases {
            add(&format!("{key}.phase.{}_s", snake(phase)), "s");
        }
        add(&format!("{key}.distance_computations"), "count");
        add(&format!("{key}.selectivity"), "ratio");
        add(&format!("{key}.shuffle_bytes"), "bytes");
        add(&format!("{key}.shuffle_records"), "count");
        add(&format!("{key}.replication"), "ratio");
        add(&format!("{key}.arith_floor_s"), "s");
        add(&format!("{key}.floor_ratio"), "ratio");
    }
    add("pgbj.pivot_assignment_computations", "count");
    add("hbrj.index_builds", "count");
    add("prepared.build_s", "s");
    for probe in ["probe1", "probe16"] {
        add(&format!("prepared.{probe}_ms"), "ms");
        add(
            &format!("prepared.{probe}.phase.partition_grouping_ms"),
            "ms",
        );
        add(&format!("prepared.{probe}.phase.knn_join_ms"), "ms");
        add(&format!("prepared.{probe}.dists"), "count");
        add(&format!("prepared.{probe}.floor_ratio"), "ratio");
    }
    add("read_p50_ms", "ms");
    add("read_p99_ms", "ms");
    add("max_qps", "1/s");
    add("serving.admit_us", "us");
    add("serving.wait_p50_ms", "ms");
    add("serving.batch_size_mean", "count");
    add("serving.reject_ratio", "ratio");
    add("serving.gen_lateness_p99_ms", "ms");
    add("serving.server_p50_ms", "ms");
    add("serving.server_p99_ms", "ms");
    add("probe_p99_ms", "ms");
    add("delta.insert_p50_us", "us");
    add("delta.insert_p99_us", "us");
    add("delta.compaction_ms", "ms");
    add("delta.compactions", "count");
    add("delta.compacted_points", "count");
    add("delta.frozen_dists_per_read", "count");
    add("delta.probe_dists_per_read", "count");
    add("delta.tombstone_masked_per_read", "count");
    add("trace.spans", "count");
    add("trace.span_ns", "ns");
    add("trace.overhead.join_s", "s");
    add("trace.overhead.read_p50_ms", "ms");
    add("trace.overhead.probe_p50_ms", "ms");
    add("trace.overhead.write_p50_ms", "ms");
    out
}

/// A JSON number with all its digits.  JSON has no infinity; a non-finite
/// value (a percentile reached by refused requests) is written as `1e300`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e300".to_string()
    }
}

/// The result line: every catalogue metric, in catalogue order.
pub fn render(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[(String, &str)],
    values: &BTreeMap<String, f64>,
) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let value = values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(*value)
        );
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn the_catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        // One metric per line: {"name": "…", "unit": "…", …}.
        let field = |line: &str, key: &str| {
            let rest = line.split(&format!("\"{key}\": \"")).nth(1)?;
            Some(rest.split('"').next()?.to_string())
        };
        let declared: BTreeSet<(String, String)> = text
            .lines()
            .filter_map(|line| Some((field(line, "name")?, field(line, "unit")?)))
            .collect();
        let expected: BTreeSet<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .chain(per_layer().into_iter().map(|(n, u)| (n, u.to_string())))
            .collect();
        assert_eq!(declared, expected);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let names: Vec<String> = END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .chain(per_layer().into_iter().map(|(n, _)| n))
            .collect();
        let unique: BTreeSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn render_lists_every_metric_or_fails() {
        let catalogue = vec![("a".to_string(), "ms"), ("b".to_string(), "s")];
        let mut values = BTreeMap::new();
        values.insert("a".to_string(), 1.25);
        assert!(render(true, 3, 0, &catalogue, &values).is_err());
        values.insert("b".to_string(), f64::INFINITY);
        let line = render(false, 3, 1, &catalogue, &values).unwrap();
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 1e300, \"unit\": \"s\"}}}"
        );
    }
}
