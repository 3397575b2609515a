//! The perf-regression gate behind `perf --check`.
//!
//! A committed `BENCH_*.json` baseline is a contract: the kernel's
//! GFLOP/s and the stages' wall times measured on a known-good build.
//! `--check` re-runs the same benches, joins old and new entries on
//! `(group, label)`, and fails when the fresh numbers regress past a
//! tolerance — throughput entries (a `rate` in GFLOP/s or MiB/s) gate
//! on the rate dropping, plain wall entries gate on the time growing.
//! Both compare the *fastest* sample (`min_ns`), not the median: on a
//! shared host interference only ever adds time, so the minimum is the
//! sample closest to the code's own cost and the one that does not
//! move between runs of unchanged code. The comparison is pure (no
//! I/O), so the injected-slowdown tests below prove the gate actually
//! fires.

use crate::timing::Group;
use navp_trace::json::Json;
use std::fmt::Write as _;

/// One benchmark result, as read from a `BENCH_*.json` baseline or
/// taken from a fresh in-process run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Group key (`"kernel_256"`, `"wall_navp_stages_n384"`, …).
    pub group: String,
    /// Entry label within the group.
    pub label: String,
    /// Fastest wall time per iteration, ns — what the gate compares.
    pub min_ns: f64,
    /// Median wall time per iteration, ns.
    pub median_ns: f64,
    /// Throughput at the median, when the entry declares work.
    pub rate: Option<f64>,
    /// Unit of `rate` (`"GFLOP/s"`, `"MiB/s"`, …).
    pub rate_unit: Option<String>,
}

impl BenchEntry {
    /// Throughput at the fastest sample: the same work over `min_ns`.
    pub fn best_rate(&self) -> Option<f64> {
        self.rate
            .map(|r| r * self.median_ns / self.min_ns.max(f64::MIN_POSITIVE))
    }
}

/// Flatten fresh groups into the entry shape the gate compares.
pub fn entries_of(groups: &[Group]) -> Vec<BenchEntry> {
    groups
        .iter()
        .flat_map(|g| {
            g.entries().iter().map(|e| BenchEntry {
                group: g.name().to_string(),
                label: e.label.clone(),
                min_ns: e.min_ns as f64,
                median_ns: e.median_ns as f64,
                rate: e.rate().map(|(v, _)| v),
                rate_unit: e.rate().map(|(_, u)| u.to_string()),
            })
        })
        .collect()
}

/// Parse the `{"groups":[{"group","entries":[…]}]}` document written by
/// [`crate::timing::write_groups_json`] into a flat entry list.
pub fn parse_baseline(text: &str) -> Result<Vec<BenchEntry>, String> {
    let doc = Json::parse(text).map_err(|e| format!("bad baseline JSON: {e}"))?;
    let groups = doc
        .get("groups")
        .and_then(|g| g.as_arr())
        .ok_or("baseline JSON has no \"groups\" array")?;
    let mut out = Vec::new();
    for g in groups {
        let group = g
            .get("group")
            .and_then(|s| s.as_str())
            .ok_or("group object missing \"group\" name")?
            .to_string();
        let entries = g
            .get("entries")
            .and_then(|e| e.as_arr())
            .ok_or("group object missing \"entries\" array")?;
        for e in entries {
            let label = e
                .get("label")
                .and_then(|s| s.as_str())
                .ok_or("entry missing \"label\"")?
                .to_string();
            let num = |key: &str| {
                e.get(key)
                    .and_then(|n| n.as_num())
                    .ok_or_else(|| format!("entry missing \"{key}\""))
            };
            out.push(BenchEntry {
                group: group.clone(),
                label,
                min_ns: num("min_ns")?,
                median_ns: num("median_ns")?,
                rate: e.get("rate").and_then(|n| n.as_num()),
                rate_unit: e
                    .get("rate_unit")
                    .and_then(|s| s.as_str())
                    .map(str::to_string),
            });
        }
    }
    Ok(out)
}

/// How one joined entry was gated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Throughput entry: fails when the new best-sample rate drops
    /// below `old * (1 - tolerance)`.
    Rate,
    /// Wall-time entry: fails when the new fastest sample exceeds
    /// `old * (1 + tolerance)`.
    Wall,
}

/// The verdict for one `(group, label)` pair present in both runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Group key shared by both entries.
    pub group: String,
    /// Entry label shared by both entries.
    pub label: String,
    /// Which quantity was gated.
    pub gate: Gate,
    /// Baseline value (best-sample rate, or fastest-sample seconds for
    /// wall gates).
    pub old: f64,
    /// Fresh value in the same unit as `old`.
    pub new: f64,
    /// Relative change, signed so that negative is always *worse*:
    /// rate gates report `new/old - 1`, wall gates `old/new - 1`.
    pub change: f64,
    /// `true` when the change regresses past the tolerance.
    pub fail: bool,
}

/// Join `old` and `new` on `(group, label)` and gate each pair at
/// `tolerance` (0.15 = fail on >15% regression). Pairs present on only
/// one side are ignored — `--quick` re-runs cover a subset of the full
/// committed baseline. Returns the deltas in `new`'s order.
pub fn compare(old: &[BenchEntry], new: &[BenchEntry], tolerance: f64) -> Vec<Delta> {
    let mut out = Vec::new();
    for n in new {
        let Some(o) = old
            .iter()
            .find(|o| o.group == n.group && o.label == n.label)
        else {
            continue;
        };
        // Gate on throughput when both sides report a rate in the same
        // unit; otherwise fall back to the wall-time gate.
        let rates = match (o.best_rate(), n.best_rate()) {
            (Some(or), Some(nr)) if o.rate_unit == n.rate_unit => Some((or, nr)),
            _ => None,
        };
        let d = if let Some((or, nr)) = rates {
            let change = nr / or.max(f64::MIN_POSITIVE) - 1.0;
            Delta {
                group: n.group.clone(),
                label: n.label.clone(),
                gate: Gate::Rate,
                old: or,
                new: nr,
                change,
                fail: change < -tolerance,
            }
        } else {
            let change = o.min_ns / n.min_ns.max(f64::MIN_POSITIVE) - 1.0;
            Delta {
                group: n.group.clone(),
                label: n.label.clone(),
                gate: Gate::Wall,
                old: o.min_ns / 1e9,
                new: n.min_ns / 1e9,
                change,
                fail: n.min_ns > o.min_ns * (1.0 + tolerance),
            }
        };
        out.push(d);
    }
    out
}

/// Render the per-metric delta table: one row per joined entry, the
/// gated quantity old → new, the signed change (negative = worse), and
/// a PASS/FAIL verdict.
pub fn render_table(deltas: &[Delta]) -> String {
    let mut rows: Vec<[String; 5]> = vec![[
        "group/label".into(),
        "gate".into(),
        "baseline".into(),
        "current".into(),
        "change".into(),
    ]];
    for d in deltas {
        let (gate, fmt): (&str, fn(f64) -> String) = match d.gate {
            Gate::Rate => ("rate", |v| format!("{v:.3}")),
            Gate::Wall => ("wall", |v| format!("{v:.4}s")),
        };
        rows.push([
            format!("{}/{}", d.group, d.label),
            gate.into(),
            fmt(d.old),
            fmt(d.new),
            format!(
                "{:+.1}% {}",
                d.change * 100.0,
                if d.fail { "FAIL" } else { "ok" }
            ),
        ]);
    }
    let mut width = [0usize; 5];
    for row in &rows {
        for (w, cell) in width.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    for row in &rows {
        for (i, (cell, w)) in row.iter().zip(&width).enumerate() {
            let _ = write!(out, "{}{cell:<w$}", if i > 0 { "  " } else { "" });
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(group: &str, label: &str, median_ns: f64, rate: Option<f64>) -> BenchEntry {
        BenchEntry {
            group: group.into(),
            label: label.into(),
            min_ns: median_ns,
            median_ns,
            rate,
            rate_unit: rate.map(|_| "GFLOP/s".to_string()),
        }
    }

    #[test]
    fn baseline_json_round_trips_through_parser() {
        let text = r#"{"groups":[{"group":"kernel_256","entries":[
            {"label":"packed_256","samples":15,"min_ns":100,"median_ns":120,
             "p90_ns":130,"wall_median_s":0.000000120,"flops":33554432,
             "rate":12.5,"rate_unit":"GFLOP/s"},
            {"label":"naive_256","samples":15,"min_ns":500,"median_ns":600,
             "p90_ns":700,"wall_median_s":0.000000600}]}]}"#;
        let got = parse_baseline(text).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].group, "kernel_256");
        assert_eq!(got[0].rate, Some(12.5));
        assert_eq!(got[0].rate_unit.as_deref(), Some("GFLOP/s"));
        assert_eq!(got[1].label, "naive_256");
        assert_eq!(got[1].rate, None);
        assert_eq!(got[0].min_ns, 100.0);
        assert_eq!(got[0].best_rate(), Some(15.0), "12.5 GFLOP/s at the median");
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline("not json").is_err());
    }

    #[test]
    fn injected_rate_slowdown_fails_the_gate() {
        let old = vec![entry("kernel_256", "packed_256", 1_000_000.0, Some(20.0))];
        // 20 → 16.8 GFLOP/s is a 16% drop: past the 15% tolerance.
        let new = vec![entry("kernel_256", "packed_256", 1_200_000.0, Some(16.8))];
        let d = compare(&old, &new, 0.15);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].gate, Gate::Rate);
        assert!(d[0].fail, "{d:?}");
        // A 10% drop is within tolerance.
        let new = vec![entry("kernel_256", "packed_256", 1_100_000.0, Some(18.0))];
        assert!(!compare(&old, &new, 0.15)[0].fail);
        // Getting *faster* never fails.
        let new = vec![entry("kernel_256", "packed_256", 800_000.0, Some(25.0))];
        assert!(!compare(&old, &new, 0.15)[0].fail);
    }

    #[test]
    fn injected_wall_slowdown_fails_the_gate() {
        let old = vec![entry("wall", "NavP (2D phase)", 1_000_000.0, None)];
        let slow = vec![entry("wall", "NavP (2D phase)", 1_200_000.0, None)];
        let d = compare(&old, &slow, 0.15);
        assert_eq!(d[0].gate, Gate::Wall);
        assert!(d[0].fail, "20% wall growth must fail: {d:?}");
        assert!(d[0].change < 0.0, "negative change = worse");
        let fine = vec![entry("wall", "NavP (2D phase)", 1_100_000.0, None)];
        assert!(!compare(&old, &fine, 0.15)[0].fail);
    }

    #[test]
    fn gate_compares_the_fastest_sample_not_the_median() {
        let old = vec![
            entry("wall", "stage", 1_000_000.0, None),
            entry("kernel_256", "packed_256", 1_000_000.0, Some(20.0)),
        ];
        // Interference doubled the medians, but the fastest samples
        // are unchanged: no regression.
        let noisy: Vec<BenchEntry> = old
            .iter()
            .map(|e| BenchEntry {
                median_ns: 2.0 * e.median_ns,
                rate: e.rate.map(|r| r / 2.0),
                ..e.clone()
            })
            .collect();
        assert!(compare(&old, &noisy, 0.15).iter().all(|d| !d.fail));
        // A 20% slower fastest sample fails both gates, whatever the
        // median did.
        let slower: Vec<BenchEntry> = old
            .iter()
            .map(|e| BenchEntry {
                min_ns: 1.2 * e.min_ns,
                median_ns: 1.2 * e.median_ns,
                rate: e.rate.map(|r| r / 1.2),
                ..e.clone()
            })
            .collect();
        let d = compare(&old, &slower, 0.15);
        assert_eq!((d[0].gate, d[1].gate), (Gate::Wall, Gate::Rate));
        assert!(d.iter().all(|d| d.fail), "{d:?}");
    }

    #[test]
    fn join_is_the_intersection_and_units_must_agree() {
        let old = vec![
            entry("kernel_128", "packed_128", 1_000.0, Some(10.0)),
            entry("kernel_256", "packed_256", 2_000.0, Some(20.0)),
        ];
        // A quick re-run measuring only 256 plus a brand-new group.
        let new = vec![
            entry("kernel_256", "packed_256", 2_000.0, Some(20.0)),
            entry("kernel_999", "packed_999", 9_000.0, Some(9.0)),
        ];
        let d = compare(&old, &new, 0.15);
        assert_eq!(d.len(), 1, "only the shared pair is gated: {d:?}");
        assert_eq!(d[0].group, "kernel_256");
        // Mismatched rate units fall back to the wall gate.
        let mut o = entry("g", "l", 1_000.0, Some(10.0));
        o.rate_unit = Some("MiB/s".into());
        let n = entry("g", "l", 1_000.0, Some(10.0));
        assert_eq!(compare(&[o], &[n], 0.15)[0].gate, Gate::Wall);
    }

    #[test]
    fn delta_table_renders_one_row_per_pair() {
        let old = vec![
            entry("kernel_256", "packed_256", 1_000_000.0, Some(20.0)),
            entry("wall", "stage", 5_000_000.0, None),
        ];
        let new = vec![
            entry("kernel_256", "packed_256", 1_500_000.0, Some(13.0)),
            entry("wall", "stage", 5_100_000.0, None),
        ];
        let table = render_table(&compare(&old, &new, 0.15));
        assert!(table.contains("kernel_256/packed_256"), "{table}");
        assert!(table.contains("FAIL"), "{table}");
        assert!(table.contains("wall/stage"), "{table}");
        assert!(table.contains("ok"), "{table}");
        assert_eq!(table.lines().count(), 3, "{table}");
    }
}
