//! Point-in-time, wire-friendly metric snapshots.
//!
//! A [`MetricsSnapshot`] is the flattened form of a registry: one
//! [`Sample`] per series, histograms already expanded to cumulative
//! `_bucket`/`_sum`/`_count` samples. It is what the net layer ships
//! in each PE's `Report` frame and what `RunOutput::metrics` carries, and
//! it merges across PEs by summing samples with identical
//! `(name, labels)` keys.

use crate::escape_label;

/// What kind of sample a flattened series is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleKind {
    /// Monotone counter (histogram buckets flatten to counters too).
    Counter,
    /// Instantaneous signed value.
    Gauge,
}

impl SampleKind {
    /// Stable wire tag for this kind.
    pub fn to_u8(self) -> u8 {
        match self {
            SampleKind::Counter => 0,
            SampleKind::Gauge => 1,
        }
    }

    /// Inverse of [`SampleKind::to_u8`]; unknown tags decode as
    /// counters (forward compatibility over strictness — a snapshot is
    /// diagnostic data).
    pub fn from_u8(v: u8) -> SampleKind {
        match v {
            1 => SampleKind::Gauge,
            _ => SampleKind::Counter,
        }
    }
}

/// One flattened metric series at a point in time.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Sample name (`navp_hops_total`, `navp_park_wait_ns_bucket`, …).
    pub name: String,
    /// Label pairs, including any `le` bound for bucket samples.
    pub labels: Vec<(String, String)>,
    /// Counter or gauge semantics, controlling how merges combine it.
    pub kind: SampleKind,
    /// Sample value.
    pub value: f64,
}

/// A flattened, mergeable view of a metrics registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Flattened samples in registration order.
    pub samples: Vec<Sample>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    /// Fold `other` into `self`: samples with the same
    /// `(name, labels)` key are summed (counters accumulate; summing
    /// gauges like queue depths yields the cluster-wide total), new
    /// keys are appended in order.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for s in &other.samples {
            match self
                .samples
                .iter_mut()
                .find(|m| m.name == s.name && m.labels == s.labels)
            {
                Some(m) => m.value += s.value,
                None => self.samples.push(s.clone()),
            }
        }
    }

    /// Value of the sample with this exact `(name, labels)` key.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| {
                s.name == name
                    && s.labels.len() == labels.len()
                    && s.labels
                        .iter()
                        .zip(labels)
                        .all(|((k, v), (lk, lv))| k == lk && v == lv)
            })
            .map(|s| s.value)
    }

    /// Sum of every sample named `name`, across all label sets — e.g.
    /// total hops over all PEs.
    pub fn total(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    }

    /// Render the snapshot as Prometheus-style sample lines (no
    /// `# HELP`/`# TYPE` headers — a snapshot no longer knows family
    /// boundaries). Useful for logging aggregated cluster metrics.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            out.push_str(&s.name);
            if !s.labels.is_empty() {
                out.push('{');
                for (i, (k, v)) in s.labels.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("{}=\"{}\"", k, escape_label(v)));
                }
                out.push('}');
            }
            if s.value.fract() == 0.0 && s.value.abs() < 9.0e15 {
                out.push_str(&format!(" {}\n", s.value as i64));
            } else {
                out.push_str(&format!(" {}\n", s.value));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(name: &str, pe: &str, v: f64) -> Sample {
        Sample {
            name: name.to_string(),
            labels: vec![("pe".to_string(), pe.to_string())],
            kind: SampleKind::Counter,
            value: v,
        }
    }

    #[test]
    fn merge_sums_matching_keys_and_appends_new_ones() {
        let mut a = MetricsSnapshot {
            samples: vec![sample("navp_hops_total", "0", 3.0)],
        };
        let b = MetricsSnapshot {
            samples: vec![
                sample("navp_hops_total", "0", 2.0),
                sample("navp_hops_total", "1", 7.0),
            ],
        };
        a.merge(&b);
        assert_eq!(a.value("navp_hops_total", &[("pe", "0")]), Some(5.0));
        assert_eq!(a.value("navp_hops_total", &[("pe", "1")]), Some(7.0));
        assert_eq!(a.total("navp_hops_total"), 12.0);
        assert_eq!(a.value("navp_hops_total", &[("pe", "2")]), None);
    }

    #[test]
    fn kind_roundtrips_through_wire_tag() {
        for k in [SampleKind::Counter, SampleKind::Gauge] {
            assert_eq!(SampleKind::from_u8(k.to_u8()), k);
        }
        assert_eq!(SampleKind::from_u8(250), SampleKind::Counter);
    }

    #[test]
    fn to_prometheus_prints_integral_values_exactly() {
        let snap = MetricsSnapshot {
            samples: vec![sample("navp_hops_total", "0", 41.0)],
        };
        assert_eq!(snap.to_prometheus(), "navp_hops_total{pe=\"0\"} 41\n");
    }
}
