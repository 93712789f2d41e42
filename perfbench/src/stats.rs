//! Sample statistics, the percentile rule, and the result line.

use std::fmt::Write as _;

/// The end-to-end metrics every workload reports with `--trace 0`, and
/// their units, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("space_amp", "ratio"),
    ("insert_p50_us", "us"),
    ("delete_p50_us", "us"),
    ("insert_rows_per_s", "rows/s"),
    ("delete_rows_per_s", "rows/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
];

/// The per-layer metrics every workload reports with `--trace 1`, and
/// their units, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("core.maintain_us.insert", "us"),
    ("core.maintain_us.delete", "us"),
    ("core.tw_io_per_row", "io"),
    ("core.view_rows_per_search", "ratio"),
    ("engine.step_noop_us", "us"),
    ("engine.base_insert_us", "us"),
    ("engine.base_delete_us", "us"),
    ("engine.searches_per_row", "count"),
    ("engine.fetches_per_row", "count"),
    ("engine.inserts_per_row", "count"),
    ("net.sends_per_row", "count"),
    ("net.bytes_per_row", "bytes"),
    ("net.rows_per_message", "rows"),
    ("storage.buffer_hit_rate", "ratio"),
    ("storage.page_reads_per_row", "count"),
    ("storage.page_writes_per_row", "count"),
    ("storage.probe_us", "us"),
    ("storage.heap_pages.a", "pages"),
    ("storage.live_rows.a", "rows"),
    ("serve.snapshot_us", "us"),
    ("serve.lookup_us", "us"),
    ("unattributed_us.insert", "us"),
    ("unattributed_us.delete", "us"),
    ("unattributed_us.read", "us"),
    ("trace_overhead_us.insert", "us"),
    ("trace_overhead_us.delete", "us"),
];

/// Percentiles the benchmark may report, lowest first.
pub const LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Reads per group when a read percentile is the median over groups:
/// enough for a p99 of each group.
pub const READ_GROUP: usize = 1_000;

/// Samples a percentile needs beyond it before it may be reported.
const TAIL_SAMPLES: f64 = 10.0;

/// Fewest samples that leave at least ten beyond percentile `q`: 20 for
/// the median, 1,000 for p99.
pub fn min_samples(q: f64) -> usize {
    // The small offset absorbs rounding: 1 - 0.9 is a hair below 0.1, and
    // 10 / 0.1 must still ask for 100 samples, not 101.
    (TAIL_SAMPLES / (1.0 - q) - 1e-6).ceil() as usize
}

/// The highest ladder percentile that `n` samples support, if any.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&q| n >= min_samples(q))
}

/// Wall-time samples of one kind of operation, in µs.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, us: f64) {
        self.values.push(us);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Consecutive groups of `size` samples in the order they were taken,
    /// the remainder folded into the last group, so every group supports
    /// what `size` samples support and none is dropped.
    pub fn chunks(&self, size: usize) -> Vec<Samples> {
        let mut groups: Vec<Samples> = self
            .values
            .chunks(size)
            .map(|c| Samples { values: c.to_vec() })
            .collect();
        if groups.len() > 1 && groups.last().is_some_and(|g| g.len() < size) {
            let tail = groups.pop().expect("more than one group");
            groups.last_mut().expect("one group left").extend(&tail);
        }
        groups
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    /// Nearest-rank percentile `q`, refused (with the reason) when fewer
    /// than [`min_samples`] samples back it.
    pub fn percentile(&self, q: f64) -> Result<f64, String> {
        let n = self.values.len();
        if n < min_samples(q) {
            return Err(format!(
                "p{} needs {} samples, have {n}",
                q * 100.0,
                min_samples(q)
            ));
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Ok(sorted[rank - 1])
    }

    /// The median of any non-empty sample set (used for per-layer figures,
    /// which carry no tail claim).
    pub fn median(&self) -> Result<f64, String> {
        if self.values.is_empty() {
            return Err("median of no samples".into());
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        Ok(if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        })
    }
}

/// Metric names: 1 to 64 characters of `[A-Za-z0-9_.-]`, starting with a
/// letter or a digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .bytes()
            .next()
            .is_some_and(|b| b.is_ascii_alphanumeric())
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Everything one run reports: operation counts, correctness failures
/// and named metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Count one attempted operation; `err` marks it failed.
    pub fn op(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.fail(e);
        }
    }

    /// Record a failure of an operation already counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(why);
        }
    }

    pub fn errors(&self) -> &[String] {
        &self.errors
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// A figure only this workload has: printed on standard error, kept
    /// out of the result line, which holds the manifest's metrics alone.
    pub fn note(&self, name: &str, value: f64, unit: &str) {
        eprintln!("  note {name}: {value} {unit}");
    }

    /// Report under `name` the median over `groups` of each group's
    /// percentile `q`, failing the run when any group cannot support it.
    /// Pass one group to report a pooled percentile.
    pub fn latency(&mut self, name: &str, groups: &[Samples], q: f64) -> Result<(), String> {
        let mut per_group = Samples::default();
        for g in groups {
            per_group.push(g.percentile(q).map_err(|e| format!("{name}: {e}"))?);
        }
        let v = per_group.median().map_err(|e| format!("{name}: {e}"))?;
        let fewest = groups.iter().map(Samples::len).min().unwrap_or(0);
        eprintln!(
            "  {name}: {v:.1} us, median of {} group(s) of at least {fewest} samples \
             (highest percentile they support: p{})",
            groups.len(),
            highest_supported(fewest).map_or(0.0, |p| p * 100.0)
        );
        self.metric(name, v, "us");
        Ok(())
    }

    /// Names must be valid and unique, values finite, and the metrics
    /// exactly `expected` with its units.
    pub fn validate(&self, expected: &[(&str, &str)]) -> Result<(), String> {
        let mut seen = std::collections::BTreeSet::new();
        for (name, value, unit) in &self.metrics {
            if !valid_name(name) {
                return Err(format!("invalid metric name '{name}'"));
            }
            if !seen.insert(name.as_str()) {
                return Err(format!("metric '{name}' reported twice"));
            }
            if !value.is_finite() {
                return Err(format!("metric '{name}' is not finite: {value}"));
            }
            if !expected.contains(&(name.as_str(), *unit)) {
                return Err(format!("metric '{name}' in {unit} is not in the manifest"));
            }
        }
        if let Some((name, _)) = expected.iter().find(|(n, _)| !seen.contains(n)) {
            return Err(format!("metric '{name}' was not reported"));
        }
        Ok(())
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The single-line JSON result.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::default();
        for i in 1..=n {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples(0.5), 20);
        assert_eq!(min_samples(0.9), 100);
        assert_eq!(min_samples(0.99), 1_000);
        assert_eq!(min_samples(0.999), 10_000);
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(999), Some(0.9));
        assert_eq!(highest_supported(1_000), Some(0.99));
        assert_eq!(highest_supported(15_000), Some(0.999));
    }

    #[test]
    fn never_a_p99_from_fewer_than_1000_samples() {
        assert!(samples(999).percentile(0.99).is_err());
        assert_eq!(samples(1_000).percentile(0.99), Ok(990.0));
        assert_eq!(samples(1_000).percentile(0.5), Ok(500.0));
        let mut r = Report::default();
        assert!(r.latency("x_p99_us", &[samples(999)], 0.99).is_err());
        assert!(r.latency("x_p99_us", &[samples(1_000)], 0.99).is_ok());
        // Every group must support the percentile on its own.
        assert!(r
            .latency("y_p99_us", &[samples(1_000), samples(999)], 0.99)
            .is_err());
        r.latency("z_p50_us", &[samples(20), samples(40), samples(100)], 0.5)
            .unwrap();
        assert!(r.to_json().contains("\"z_p50_us\": {\"value\": 20,"));
    }

    #[test]
    fn chunks_keep_order_and_fold_the_remainder() {
        let sizes = |n, size| {
            samples(n)
                .chunks(size)
                .iter()
                .map(Samples::len)
                .collect::<Vec<_>>()
        };
        assert_eq!(sizes(2_500, 1_000), [1_000, 1_500]);
        assert_eq!(sizes(2_000, 1_000), [1_000, 1_000]);
        assert_eq!(sizes(999, 1_000), [999]);
        let groups = samples(2_500).chunks(1_000);
        assert_eq!(groups[1].percentile(0.5), Ok(1_750.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(samples(3).median(), Ok(2.0));
        assert_eq!(samples(4).median(), Ok(2.5));
        assert!(Samples::default().median().is_err());
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "setup_s",
            "sql.self_us.insert",
            "core.tw_io_per_row.gi",
            "a-b",
            "9x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".x", "_x", "a b", "a/b", "p99%", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        let manifest = [("ok_name", "us"), ("bad name", "us"), ("twice", "us")];
        let mut r = Report::default();
        r.metric("ok_name", 1.0, "us");
        r.metric("bad name", 1.0, "us");
        assert!(r.validate(&manifest).is_err());
        let mut r = Report::default();
        r.metric("twice", 1.0, "us");
        r.metric("twice", 2.0, "us");
        assert!(r.validate(&manifest).is_err());
    }

    #[test]
    fn reports_hold_exactly_the_manifest() {
        let manifest = [("a_us", "us"), ("b_s", "s")];
        let mut r = Report::default();
        r.metric("a_us", 1.0, "us");
        assert!(r.validate(&manifest).is_err(), "b_s missing");
        r.metric("b_s", 1.0, "s");
        assert!(r.validate(&manifest).is_ok());
        r.metric("c", 1.0, "us");
        assert!(r.validate(&manifest).is_err(), "c is not listed");
        let mut r = Report::default();
        r.metric("a_us", 1.0, "ms");
        r.metric("b_s", 1.0, "s");
        assert!(r.validate(&manifest).is_err(), "wrong unit");
    }

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// the workloads report, in the same units.
    #[test]
    fn manifest_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let e2e_at = json.find("\"end_to_end\"").expect("end_to_end section");
        let layer_at = json.find("\"per_layer\"").expect("per_layer section");
        assert!(e2e_at < layer_at, "end_to_end comes before per_layer");
        let (e2e, layer) = (&json[e2e_at..layer_at], &json[layer_at..]);
        for (section, list) in [(e2e, &END_TO_END[..]), (layer, &PER_LAYER[..])] {
            assert_eq!(section.matches("\"name\":").count(), list.len());
            for (name, unit) in list {
                let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(section.contains(&entry), "{entry}");
                assert!(valid_name(name), "{name}");
            }
        }
    }

    #[test]
    fn result_line_shape() {
        let mut r = Report::default();
        r.op(None);
        r.metric("setup_s", 0.25, "s");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        r.op(Some("boom".into()));
        assert!(!r.correct());
    }
}
