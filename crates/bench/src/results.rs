//! The benchmark-results pipeline behind CI's `BENCH_results.json` artifact.
//!
//! `cargo bench` run with `BENCH_RESULTS_LOG=<path>` (see the criterion
//! shim) appends one tab-separated record per benchmark:
//!
//! ```text
//! name \t ns_per_iter \t bytes_per_sec \t elements_per_sec
//! ```
//!
//! where the two throughput fields are `-` when the bench has no such
//! annotation. The load harness appends *extended* records with three more
//! columns carrying tail latencies:
//!
//! ```text
//! name \t ns_per_iter \t bytes_per_sec \t elements_per_sec \t p50 \t p99 \t p999
//! ```
//!
//! [`parse_log`] validates that log strictly — a malformed line is an
//! error, not a skip, so CI fails loudly instead of uploading a silently
//! truncated artifact — and [`render_json`] turns the records into the JSON
//! document the `bench_json` binary writes:
//!
//! ```json
//! {
//!   "benchmarks": [
//!     {"name": "gf_kernels/mul_slice/32768", "ns_per_iter": 1234.5,
//!      "bytes_per_sec": 26543210.9},
//!     {"name": "load_harness/reactor/get", "ns_per_iter": 81000.0,
//!      "elements_per_sec": 1950.0, "p50_ns": 64000.0, "p99_ns": 410000.0,
//!      "p999_ns": 1900000.0}
//!   ]
//! }
//! ```
//!
//! Comparison against the committed baseline gates each metric with its own
//! tolerance (see [`Tolerances`]): medians are stable even in smoke mode,
//! p99 and especially p999 come from far fewer effective samples and get
//! proportionally wider gates.

/// One benchmark measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark name (`group/function/param`).
    pub name: String,
    /// Median wall-clock nanoseconds per iteration (for the load harness:
    /// mean latency).
    pub ns_per_iter: f64,
    /// Throughput, when the bench declared `Throughput::Bytes`.
    pub bytes_per_sec: Option<f64>,
    /// Throughput, when the bench declared `Throughput::Elements`.
    pub elements_per_sec: Option<f64>,
    /// Median latency in nanoseconds, when the record carries percentiles.
    pub p50_ns: Option<f64>,
    /// 99th-percentile latency in nanoseconds.
    pub p99_ns: Option<f64>,
    /// 99.9th-percentile latency in nanoseconds.
    pub p999_ns: Option<f64>,
}

fn parse_optional(field: &str, line_no: usize, what: &str) -> Result<Option<f64>, String> {
    if field == "-" {
        return Ok(None);
    }
    field
        .parse::<f64>()
        .ok()
        .filter(|v| v.is_finite() && *v > 0.0)
        .map(Some)
        .ok_or_else(|| format!("line {line_no}: bad {what} field {field:?}"))
}

/// Parses a `BENCH_RESULTS_LOG` file. Blank lines are ignored; any other
/// deviation from the four-field (or seven-field, with percentiles) record
/// format is an error.
pub fn parse_log(text: &str) -> Result<Vec<BenchRecord>, String> {
    let mut records: Vec<BenchRecord> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 4 && fields.len() != 7 {
            return Err(format!(
                "line {line_no}: expected 4 or 7 tab-separated fields, got {}",
                fields.len()
            ));
        }
        if fields[0].is_empty() {
            return Err(format!("line {line_no}: empty benchmark name"));
        }
        if !seen.insert(fields[0].to_string()) {
            return Err(format!(
                "line {line_no}: duplicate benchmark name {:?} — \
                 stale log appended across runs? delete it and re-run",
                fields[0]
            ));
        }
        let ns_per_iter = fields[1]
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v > 0.0)
            .ok_or_else(|| format!("line {line_no}: bad ns_per_iter field {:?}", fields[1]))?;
        let percentile = |idx: usize, what: &str| -> Result<Option<f64>, String> {
            match fields.get(idx) {
                Some(f) => parse_optional(f, line_no, what),
                None => Ok(None),
            }
        };
        records.push(BenchRecord {
            name: fields[0].to_string(),
            ns_per_iter,
            bytes_per_sec: parse_optional(fields[2], line_no, "bytes_per_sec")?,
            elements_per_sec: parse_optional(fields[3], line_no, "elements_per_sec")?,
            p50_ns: percentile(4, "p50_ns")?,
            p99_ns: percentile(5, "p99_ns")?,
            p999_ns: percentile(6, "p999_ns")?,
        });
    }
    if records.is_empty() {
        return Err("no benchmark records found".to_string());
    }
    records.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(records)
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the records as the `BENCH_results.json` document (stable field
/// order, sorted by name upstream in [`parse_log`]).
pub fn render_json(records: &[BenchRecord]) -> String {
    let mut out = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"ns_per_iter\": {:.3}",
            escape_json(&r.name),
            r.ns_per_iter
        ));
        for (key, value) in [
            ("bytes_per_sec", r.bytes_per_sec),
            ("elements_per_sec", r.elements_per_sec),
            ("p50_ns", r.p50_ns),
            ("p99_ns", r.p99_ns),
            ("p999_ns", r.p999_ns),
        ] {
            if let Some(v) = value {
                out.push_str(&format!(", \"{key}\": {v:.3}"));
            }
        }
        out.push('}');
        if i + 1 < records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

fn unescape_json(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('u') => {
                let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                let code = u32::from_str_radix(&hex, 16)
                    .map_err(|_| format!("bad \\u escape in {s:?}"))?;
                out.push(char::from_u32(code).ok_or_else(|| format!("bad \\u escape in {s:?}"))?);
            }
            other => return Err(format!("bad escape {other:?} in {s:?}")),
        }
    }
    Ok(out)
}

/// Parses a `BENCH_results.json` / `BENCH_baseline.json` document back into
/// records. This is not a general JSON parser — it accepts exactly the
/// stable one-record-per-line shape [`render_json`] emits (which is also
/// what reviewers diff in the committed baseline), and errors on anything
/// else rather than guessing.
pub fn parse_results_json(text: &str) -> Result<Vec<BenchRecord>, String> {
    fn field(tail: &str, key: &str) -> Option<String> {
        let tagged = format!("\"{key}\": ");
        let start = tail.find(&tagged)? + tagged.len();
        let rest = &tail[start..];
        let end = rest.find([',', '}'])?;
        Some(rest[..end].trim().to_string())
    }

    let mut records = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if !line.starts_with('{') || !line.contains("\"name\"") {
            continue;
        }
        let entry = line.trim_end_matches(',');
        const NAME_TAG: &str = "\"name\": \"";
        let name_start = entry
            .find(NAME_TAG)
            .ok_or_else(|| format!("unparseable results entry: {line}"))?
            + NAME_TAG.len();
        let after_name = &entry[name_start..];
        // Find the name's closing quote, skipping escaped ones; everything
        // after it is numeric fields, so `field` can split on , and }.
        let name_len = {
            let mut backslashes = 0usize;
            after_name
                .char_indices()
                .find_map(|(i, c)| match c {
                    '\\' => {
                        backslashes += 1;
                        None
                    }
                    '"' if backslashes.is_multiple_of(2) => Some(i),
                    _ => {
                        backslashes = 0;
                        None
                    }
                })
                .ok_or_else(|| format!("unterminated name in entry: {line}"))?
        };
        let name = unescape_json(&after_name[..name_len])?;
        let tail = &after_name[name_len + 1..];
        let ns_per_iter = field(tail, "ns_per_iter")
            .and_then(|v| v.parse::<f64>().ok())
            .filter(|v| v.is_finite() && *v > 0.0)
            .ok_or_else(|| format!("entry {name:?}: missing or bad ns_per_iter"))?;
        let parse_opt = |key: &str| field(tail, key).and_then(|v| v.parse::<f64>().ok());
        records.push(BenchRecord {
            name,
            ns_per_iter,
            bytes_per_sec: parse_opt("bytes_per_sec"),
            elements_per_sec: parse_opt("elements_per_sec"),
            p50_ns: parse_opt("p50_ns"),
            p99_ns: parse_opt("p99_ns"),
            p999_ns: parse_opt("p999_ns"),
        });
    }
    if records.is_empty() {
        return Err("no benchmark entries found in results JSON".to_string());
    }
    records.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(records)
}

/// Which of a record's latency metrics a comparison entry tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// `ns_per_iter` — the bench median (or harness mean).
    Median,
    /// `p50_ns`.
    P50,
    /// `p99_ns`.
    P99,
    /// `p999_ns`.
    P999,
}

impl Metric {
    /// Label used in comparison tables and missing-metric reports.
    pub fn label(self) -> &'static str {
        match self {
            Metric::Median => "median",
            Metric::P50 => "p50",
            Metric::P99 => "p99",
            Metric::P999 => "p999",
        }
    }
}

/// Per-metric allowed fractional slowdown.
///
/// The defaults widen toward the tail: medians are stable even from a few
/// smoke samples, p99 of a seconds-long run rests on ~1% of the samples,
/// and p999 on ~0.1% — gating those as tightly as the median would make the
/// job fail on scheduler noise, gating them not at all would let real tail
/// regressions ship.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    /// Gate on `ns_per_iter` (`0.5` = fail beyond 1.5× baseline).
    pub median: f64,
    /// Gate on `p50_ns`.
    pub p50: f64,
    /// Gate on `p99_ns`.
    pub p99: f64,
    /// Gate on `p999_ns`.
    pub p999: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            median: 0.5,
            p50: 0.5,
            p99: 2.0,
            p999: 4.0,
        }
    }
}

impl Tolerances {
    /// The tolerance applied to `metric`.
    pub fn for_metric(&self, metric: Metric) -> f64 {
        match metric {
            Metric::Median => self.median,
            Metric::P50 => self.p50,
            Metric::P99 => self.p99,
            Metric::P999 => self.p999,
        }
    }
}

/// One tracked metric's baseline-vs-current values.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonEntry {
    /// Benchmark name (`group/function/param`).
    pub name: String,
    /// Which metric of that benchmark this entry tracks.
    pub metric: Metric,
    /// Value recorded in the committed baseline, nanoseconds.
    pub baseline_ns: f64,
    /// Value measured by this run, nanoseconds.
    pub current_ns: f64,
}

impl ComparisonEntry {
    /// `current / baseline`: 1.0 is unchanged, above 1.0 is slower.
    pub fn ratio(&self) -> f64 {
        self.current_ns / self.baseline_ns
    }
}

/// The result of comparing a run against the committed baseline.
///
/// Every metric *in the baseline* is tracked: the benchmark must be present
/// in the current run, must still report every percentile the baseline
/// recorded, and each metric must stay within its tolerance. Benchmarks
/// (and percentiles) the current run adds are fine — they become tracked
/// when the baseline is refreshed (see `docs/BENCHMARKS.md`).
#[derive(Debug)]
pub struct Comparison {
    /// One entry per tracked metric present in both sets.
    pub entries: Vec<ComparisonEntry>,
    /// Tracked benchmarks (or `name [metric]` percentile columns) the
    /// current run did not produce — a fail: a deleted bench or dropped
    /// percentile silently un-tracks a number the gate was protecting.
    pub missing: Vec<String>,
    /// The per-metric gates applied.
    pub tolerances: Tolerances,
}

impl Comparison {
    /// Tracked metrics that regressed beyond their tolerance.
    pub fn regressions(&self) -> Vec<&ComparisonEntry> {
        self.entries
            .iter()
            .filter(|e| e.ratio() > 1.0 + self.tolerances.for_metric(e.metric))
            .collect()
    }

    /// Whether the gate passes: nothing missing, nothing regressed.
    pub fn passed(&self) -> bool {
        self.missing.is_empty() && self.regressions().is_empty()
    }

    /// A human-readable per-metric table for the CI log.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let tolerance = self.tolerances.for_metric(e.metric);
            let verdict = if e.ratio() > 1.0 + tolerance {
                "REGRESSED"
            } else {
                "ok"
            };
            let tracked = match e.metric {
                Metric::Median => e.name.clone(),
                metric => format!("{} [{}]", e.name, metric.label()),
            };
            out.push_str(&format!(
                "{tracked:<50} {:>12.1} -> {:>12.1} ns  ({:>5.2}x, tol {:.0}%)  {verdict}\n",
                e.baseline_ns,
                e.current_ns,
                e.ratio(),
                tolerance * 100.0
            ));
        }
        for name in &self.missing {
            out.push_str(&format!("{name:<50} MISSING from this run\n"));
        }
        out
    }
}

/// Compares current records against the committed baseline, gating each
/// metric the baseline tracks with its [`Tolerances`] entry.
pub fn compare(
    baseline: &[BenchRecord],
    current: &[BenchRecord],
    tolerances: Tolerances,
) -> Comparison {
    let current_by_name: std::collections::HashMap<&str, &BenchRecord> =
        current.iter().map(|r| (r.name.as_str(), r)).collect();
    let mut entries = Vec::new();
    let mut missing = Vec::new();
    for b in baseline {
        let Some(c) = current_by_name.get(b.name.as_str()) else {
            missing.push(b.name.clone());
            continue;
        };
        entries.push(ComparisonEntry {
            name: b.name.clone(),
            metric: Metric::Median,
            baseline_ns: b.ns_per_iter,
            current_ns: c.ns_per_iter,
        });
        for (metric, base, cur) in [
            (Metric::P50, b.p50_ns, c.p50_ns),
            (Metric::P99, b.p99_ns, c.p99_ns),
            (Metric::P999, b.p999_ns, c.p999_ns),
        ] {
            match (base, cur) {
                (Some(baseline_ns), Some(current_ns)) => entries.push(ComparisonEntry {
                    name: b.name.clone(),
                    metric,
                    baseline_ns,
                    current_ns,
                }),
                (Some(_), None) => missing.push(format!("{} [{}]", b.name, metric.label())),
                (None, _) => {}
            }
        }
    }
    Comparison {
        entries,
        missing,
        tolerances,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_sorts_valid_log() {
        let log = "b/two\t200.5\t-\t50.25\n\na/one\t100.123\t1048576.5\t-\n";
        let records = parse_log(log).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].name, "a/one");
        assert_eq!(records[0].bytes_per_sec, Some(1048576.5));
        assert_eq!(records[0].elements_per_sec, None);
        assert_eq!(records[0].p50_ns, None);
        assert_eq!(records[1].name, "b/two");
        assert_eq!(records[1].elements_per_sec, Some(50.25));
    }

    #[test]
    fn parses_extended_percentile_records() {
        let log = "load_harness/reactor/get\t81000.0\t-\t1950.0\t64000\t410000\t1900000\n\
                   gf/mul\t100.0\t1024.0\t-\n";
        let records = parse_log(log).unwrap();
        let harness = records.iter().find(|r| r.name.starts_with("load")).unwrap();
        assert_eq!(harness.p50_ns, Some(64000.0));
        assert_eq!(harness.p99_ns, Some(410000.0));
        assert_eq!(harness.p999_ns, Some(1900000.0));
        let plain = records.iter().find(|r| r.name.starts_with("gf")).unwrap();
        assert_eq!(plain.p50_ns, None);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_log("").is_err());
        assert!(parse_log("only three\tfields\there\n").is_err());
        assert!(parse_log("name\tnot_a_number\t-\t-\n").is_err());
        assert!(parse_log("name\t-5.0\t-\t-\n").is_err());
        assert!(parse_log("name\t10.0\tNaN\t-\n").is_err());
        assert!(parse_log("\t10.0\t-\t-\n").is_err());
        // Five or six fields are neither format.
        assert!(parse_log("name\t10.0\t-\t-\t100\n").is_err());
        assert!(parse_log("name\t10.0\t-\t-\t100\t200\n").is_err());
        // Bad percentile in an extended record.
        assert!(parse_log("name\t10.0\t-\t-\tnope\t200\t300\n").is_err());
        assert!(parse_log("name\t10.0\t-\t-\t100\t-0.5\t300\n").is_err());
    }

    #[test]
    fn rejects_duplicate_names_from_stale_appended_logs() {
        let twice = "a/one\t100.0\t-\t-\na/one\t120.0\t-\t-\n";
        let err = parse_log(twice).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn merges_load_harness_records_from_two_transports() {
        // A channel run and a reactor run appending to one log: the
        // transport in each name keeps the records apart.
        let channel = "load_harness/channel/get\t81000.0\t-\t1950.0\t64000\t410000\t1900000\n\
                       load_harness/channel/overall\t90000.0\t-\t2000.0\t70000\t500000\t2000000\n";
        let reactor = "load_harness/reactor/get\t61000.0\t-\t1990.0\t52000\t300000\t1500000\n\
                       load_harness/reactor/overall\t65000.0\t-\t2000.0\t55000\t350000\t1600000\n";
        let records = parse_log(&format!("{channel}{reactor}")).unwrap();
        let names: Vec<&str> = records.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "load_harness/channel/get",
                "load_harness/channel/overall",
                "load_harness/reactor/get",
                "load_harness/reactor/overall",
            ]
        );
        let reactor_get = &records[2];
        assert_eq!(reactor_get.p50_ns, Some(52000.0));
        assert_eq!(reactor_get.p999_ns, Some(1500000.0));
        // The merged results gate cleanly against themselves.
        let merged = parse_results_json(&render_json(&records)).unwrap();
        assert!(compare(&merged, &records, Tolerances::default()).passed());
    }

    #[test]
    fn renders_machine_readable_json() {
        let records = parse_log("g/f/64\t1500.0\t42666666.667\t-\n").unwrap();
        let json = render_json(&records);
        assert!(json.contains("\"name\": \"g/f/64\""));
        assert!(json.contains("\"ns_per_iter\": 1500.000"));
        assert!(json.contains("\"bytes_per_sec\": 42666666.667"));
        assert!(!json.contains("elements_per_sec"));
        assert!(!json.contains("p50_ns"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn escapes_exotic_names() {
        let records = vec![BenchRecord {
            name: "weird\"name\\with\tcontrol".to_string(),
            ns_per_iter: 1.0,
            bytes_per_sec: None,
            elements_per_sec: None,
            p50_ns: None,
            p99_ns: None,
            p999_ns: None,
        }];
        let json = render_json(&records);
        assert!(json.contains("weird\\\"name\\\\with\\u0009control"));
    }

    #[test]
    fn results_json_roundtrips_through_the_parser() {
        let records = parse_log(
            "g/mul/32768\t1500.5\t42666666.667\t-\n\
             exec/repair\t900000.0\t-\t12.5\n\
             load_harness/channel/overall\t81000.0\t-\t1950.0\t64000\t410000\t1900000\n\
             weird\"name\t10.0\t-\t-\n",
        )
        .unwrap();
        let parsed = parse_results_json(&render_json(&records)).unwrap();
        assert_eq!(parsed.len(), 4);
        assert_eq!(parsed, records);
    }

    #[test]
    fn results_json_parser_rejects_garbage() {
        assert!(parse_results_json("").is_err());
        assert!(parse_results_json("{\n  \"benchmarks\": []\n}\n").is_err());
        assert!(parse_results_json("    {\"name\": \"x\", \"ns_per_iter\": -3.0},\n").is_err());
        assert!(parse_results_json("    {\"name\": \"x\"},\n").is_err());
    }

    fn rec(name: &str, ns: f64) -> BenchRecord {
        BenchRecord {
            name: name.to_string(),
            ns_per_iter: ns,
            bytes_per_sec: None,
            elements_per_sec: None,
            p50_ns: None,
            p99_ns: None,
            p999_ns: None,
        }
    }

    fn rec_pct(name: &str, ns: f64, p50: f64, p99: f64, p999: f64) -> BenchRecord {
        BenchRecord {
            p50_ns: Some(p50),
            p99_ns: Some(p99),
            p999_ns: Some(p999),
            ..rec(name, ns)
        }
    }

    #[test]
    fn compare_passes_within_tolerance_and_ignores_new_benches() {
        let baseline = vec![rec("a", 100.0), rec("b", 1000.0)];
        let current = vec![rec("a", 140.0), rec("b", 900.0), rec("brand_new", 5.0)];
        let cmp = compare(&baseline, &current, Tolerances::default());
        assert!(cmp.passed(), "{}", cmp.render());
        assert_eq!(cmp.entries.len(), 2);
        assert!(cmp.missing.is_empty());
    }

    #[test]
    fn compare_fails_on_regression_beyond_tolerance() {
        let baseline = vec![rec("a", 100.0), rec("b", 1000.0)];
        let current = vec![rec("a", 151.0), rec("b", 1000.0)];
        let cmp = compare(&baseline, &current, Tolerances::default());
        assert!(!cmp.passed());
        let regressions = cmp.regressions();
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].name, "a");
        assert!(cmp.render().contains("REGRESSED"), "{}", cmp.render());
    }

    #[test]
    fn compare_fails_when_a_tracked_bench_disappears() {
        let baseline = vec![rec("a", 100.0), rec("gone", 50.0)];
        let current = vec![rec("a", 100.0)];
        let cmp = compare(&baseline, &current, Tolerances::default());
        assert!(!cmp.passed());
        assert_eq!(cmp.missing, vec!["gone".to_string()]);
        assert!(cmp.render().contains("MISSING"), "{}", cmp.render());
    }

    #[test]
    fn percentiles_are_gated_with_their_own_tolerances() {
        let baseline = vec![rec_pct("lh/get", 100.0, 80.0, 500.0, 2000.0)];
        // p99 at 2.9x (within its 2.0 tolerance), median/p50 unchanged.
        let within = vec![rec_pct("lh/get", 100.0, 80.0, 1450.0, 2000.0)];
        let cmp = compare(&baseline, &within, Tolerances::default());
        assert!(cmp.passed(), "{}", cmp.render());
        assert_eq!(cmp.entries.len(), 4);
        // The same ratio on p50 trips its (tighter) gate.
        let p50_blown = vec![rec_pct("lh/get", 100.0, 232.0, 500.0, 2000.0)];
        let cmp = compare(&baseline, &p50_blown, Tolerances::default());
        assert!(!cmp.passed());
        assert_eq!(cmp.regressions()[0].metric, Metric::P50);
        // p999 beyond 5x trips the widest gate.
        let p999_blown = vec![rec_pct("lh/get", 100.0, 80.0, 500.0, 10100.0)];
        let cmp = compare(&baseline, &p999_blown, Tolerances::default());
        assert!(!cmp.passed());
        assert_eq!(cmp.regressions()[0].metric, Metric::P999);
    }

    #[test]
    fn compare_fails_when_a_tracked_percentile_disappears() {
        let baseline = vec![rec_pct("lh/get", 100.0, 80.0, 500.0, 2000.0)];
        let current = vec![rec("lh/get", 100.0)];
        let cmp = compare(&baseline, &current, Tolerances::default());
        assert!(!cmp.passed());
        assert_eq!(cmp.missing.len(), 3);
        assert!(cmp.missing[0].contains("[p50]"), "{:?}", cmp.missing);
    }
}
