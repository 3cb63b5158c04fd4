//! A hand-rolled metrics registry: counters, gauges and fixed-bucket
//! histograms.
//!
//! Instruments are registered once by name and then updated through cheap
//! integer handles, so the hot path never hashes a string or allocates.
//! Histograms use *fixed* bucket bounds chosen at registration (exponential
//! or linear grids); observation is a linear scan over a handful of bounds,
//! and quantiles are estimated by linear interpolation inside the bucket —
//! the same scheme Prometheus uses, accurate to a bucket width.
//!
//! [`MetricsRegistry::to_json`] exports everything as one `serde_json`
//! [`Value`] so metric snapshots, trace JSONL and run histories all flow
//! through the same vendored serializer.

use serde_json::{json, Value};

/// Handle of a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle of a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle of a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A monotonically increasing event count.
#[derive(Debug, Clone, PartialEq)]
struct Counter {
    name: String,
    value: u64,
}

/// A point-in-time measurement that can move both ways.
#[derive(Debug, Clone, PartialEq)]
struct GaugeCell {
    name: String,
    value: f64,
    set: bool,
}

/// A fixed-bucket histogram of `f64` observations.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive upper bounds of the finite buckets, strictly increasing.
    /// Observations above the last bound land in an implicit +∞ bucket.
    bounds: Vec<f64>,
    /// One count per finite bucket plus the overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    fn new(bounds: Vec<f64>) -> Self {
        let n = bounds.len();
        Histogram {
            bounds,
            counts: vec![0; n + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Estimates the `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation
    /// within the bucket that holds the target rank. The overflow bucket
    /// reports the observed maximum.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut cumulative = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cumulative + c;
            if (next as f64) >= target {
                if idx >= self.bounds.len() {
                    return self.max;
                }
                let lo = if idx == 0 {
                    self.min.min(self.bounds[0])
                } else {
                    self.bounds[idx - 1]
                };
                let hi = self.bounds[idx];
                let into = (target - cumulative as f64) / c as f64;
                return (lo + (hi - lo) * into.clamp(0.0, 1.0))
                    .clamp(self.min.min(hi), self.max.max(lo));
            }
            cumulative = next;
        }
        self.max
    }

    fn to_json(&self) -> Value {
        json!({
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean(),
            "min": self.min(),
            "max": self.max(),
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        })
    }
}

/// Builds `count` exponential bucket bounds starting at `start` and growing
/// by `factor` (the usual latency grid).
pub fn exponential_buckets(start: f64, factor: f64, count: usize) -> Vec<f64> {
    assert!(start > 0.0 && factor > 1.0 && count > 0);
    let mut bounds = Vec::with_capacity(count);
    let mut bound = start;
    for _ in 0..count {
        bounds.push(bound);
        bound *= factor;
    }
    bounds
}

/// Builds `count` linear bucket bounds `start, start+width, …`.
pub fn linear_buckets(start: f64, width: f64, count: usize) -> Vec<f64> {
    assert!(width > 0.0 && count > 0);
    (0..count).map(|i| start + width * i as f64).collect()
}

/// The registry holding every instrument (see the [module docs](self)).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct MetricsRegistry {
    counters: Vec<Counter>,
    gauges: Vec<GaugeCell>,
    histograms: Vec<(String, Histogram)>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or looks up) a counter by name.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(idx) = self.counters.iter().position(|c| c.name == name) {
            return CounterId(idx);
        }
        self.counters.push(Counter {
            name: name.to_string(),
            value: 0,
        });
        CounterId(self.counters.len() - 1)
    }

    /// Registers (or looks up) a gauge by name.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(idx) = self.gauges.iter().position(|g| g.name == name) {
            return GaugeId(idx);
        }
        self.gauges.push(GaugeCell {
            name: name.to_string(),
            value: 0.0,
            set: false,
        });
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers (or looks up) a histogram by name. The bounds are fixed at
    /// first registration; later calls with the same name reuse them.
    pub fn histogram(&mut self, name: &str, bounds: Vec<f64>) -> HistogramId {
        if let Some(idx) = self.histograms.iter().position(|(n, _)| n == name) {
            return HistogramId(idx);
        }
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && !bounds.is_empty(),
            "histogram bounds must be non-empty and strictly increasing"
        );
        self.histograms
            .push((name.to_string(), Histogram::new(bounds)));
        HistogramId(self.histograms.len() - 1)
    }

    /// Increments a counter.
    pub fn inc(&mut self, id: CounterId, by: u64) {
        self.counters[id.0].value += by;
    }

    /// Sets a gauge.
    pub fn set(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0].value = value;
        self.gauges[id.0].set = true;
    }

    /// Records one observation into a histogram.
    pub fn observe(&mut self, id: HistogramId, value: f64) {
        self.histograms[id.0].1.observe(value);
    }

    /// Looks up a counter's value by name.
    pub fn counter_by_name(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a gauge's value by name (set gauges only).
    pub fn gauge_by_name(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|g| g.name == name && g.set)
            .map(|g| g.value)
    }

    /// Looks up a histogram by name.
    pub fn histogram_by_name(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Exports every instrument as one JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    pub fn to_json(&self) -> Value {
        let counters: Vec<(String, Value)> = self
            .counters
            .iter()
            .map(|c| (c.name.clone(), json!(c.value)))
            .collect();
        let gauges: Vec<(String, Value)> = self
            .gauges
            .iter()
            .filter(|g| g.set)
            .map(|g| (g.name.clone(), json!(g.value)))
            .collect();
        let histograms: Vec<(String, Value)> = self
            .histograms
            .iter()
            .map(|(n, h)| (n.clone(), h.to_json()))
            .collect();
        Value::Object(vec![
            ("counters".to_string(), Value::Object(counters)),
            ("gauges".to_string(), Value::Object(gauges)),
            ("histograms".to_string(), Value::Object(histograms)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip_through_handles() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("rounds_total");
        let g = reg.gauge("accuracy");
        assert_eq!(reg.gauge_by_name("accuracy"), None);
        reg.inc(c, 3);
        reg.inc(c, 2);
        reg.set(g, 0.91);
        // Re-registration returns the same handle.
        assert_eq!(reg.counter("rounds_total"), c);
        assert_eq!(reg.counter_by_name("rounds_total"), Some(5));
        assert_eq!(reg.gauge_by_name("accuracy"), Some(0.91));
    }

    #[test]
    fn histogram_quantiles_are_bucket_accurate() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("latency", linear_buckets(1.0, 1.0, 10));
        for v in 1..=100 {
            reg.observe(h, (v % 10) as f64 + 0.5);
        }
        let hist = reg.histogram_by_name("latency").unwrap();
        assert_eq!(hist.count(), 100);
        // Values are 0.5..9.5 uniformly; the median sits near 4.5–5.5.
        let p50 = hist.quantile(0.5);
        assert!((4.0..=6.0).contains(&p50), "p50 = {p50}");
        assert!(hist.quantile(1.0) >= 9.0);
        assert_eq!(hist.quantile(0.0).floor(), 0.0);
        assert!(hist.mean() > 4.0 && hist.mean() < 6.0);
    }

    #[test]
    fn histogram_overflow_bucket_reports_observed_max() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("staleness", exponential_buckets(1.0, 2.0, 4));
        reg.observe(h, 100.0); // beyond the last bound (8.0)
        reg.observe(h, 0.0);
        let hist = reg.histogram_by_name("staleness").unwrap();
        assert_eq!(hist.quantile(0.99), 100.0);
        assert_eq!(hist.min(), 0.0);
        assert_eq!(hist.max(), 100.0);
    }

    #[test]
    fn bucket_grids() {
        assert_eq!(exponential_buckets(1.0, 10.0, 3), vec![1.0, 10.0, 100.0]);
        assert_eq!(linear_buckets(0.0, 2.5, 3), vec![0.0, 2.5, 5.0]);
    }

    #[test]
    fn json_export_has_all_sections() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("uploads");
        reg.inc(c, 7);
        let g = reg.gauge("rss");
        reg.set(g, 1234.0);
        let _unset = reg.gauge("never_set");
        let h = reg.histogram("wall", linear_buckets(1.0, 1.0, 4));
        reg.observe(h, 2.0);
        let v = reg.to_json();
        assert_eq!(v["counters"]["uploads"].as_u64(), Some(7));
        assert_eq!(v["gauges"]["rss"].as_f64(), Some(1234.0));
        assert!(v["gauges"]["never_set"].is_null());
        assert_eq!(v["histograms"]["wall"]["count"].as_u64(), Some(1));
        // The export round-trips through the shared serializer.
        let text = serde_json::to_string(&v).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(v, back);
    }
}
