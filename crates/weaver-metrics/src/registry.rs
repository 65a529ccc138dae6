//! A named-metric registry, the unit of export from proclet to manager.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;

use weaver_macros::WeaverData;

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::scalar::{Counter, Gauge};

/// The kinds of metric a registry can hold.
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A snapshot of one named metric.
#[derive(Debug, Clone, PartialEq, WeaverData)]
pub enum MetricFamily {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram contents.
    Histogram(HistogramSnapshot),
}

/// A process-wide registry of named metrics.
///
/// Names follow the convention `component/metric` (e.g.
/// `boutique.Cart/handle_nanos`). Registration is idempotent: asking for the
/// same name and kind returns the same underlying metric.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter with `name`, creating it if needed.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind —
    /// that is a programming error, not a runtime condition.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut metrics = self.metrics.write();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Returns the gauge with `name`, creating it if needed.
    ///
    /// # Panics
    ///
    /// Panics on a kind conflict, as for [`MetricsRegistry::counter`].
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut metrics = self.metrics.write();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Returns the histogram with `name`, creating it if needed.
    ///
    /// # Panics
    ///
    /// Panics on a kind conflict, as for [`MetricsRegistry::counter`].
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut metrics = self.metrics.write();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Snapshots every metric, in name order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.metrics.read();
        MetricsSnapshot {
            metrics: metrics
                .iter()
                .map(|(name, m)| {
                    let fam = match m {
                        Metric::Counter(c) => MetricFamily::Counter(c.get()),
                        Metric::Gauge(g) => MetricFamily::Gauge(g.get()),
                        Metric::Histogram(h) => MetricFamily::Histogram(h.snapshot()),
                    };
                    (name.clone(), fam)
                })
                .collect(),
        }
    }
}

/// A serializable snapshot of a whole registry.
#[derive(Debug, Clone, Default, PartialEq, WeaverData)]
pub struct MetricsSnapshot {
    /// Name → value, in name order.
    pub metrics: Vec<(String, MetricFamily)>,
}

impl MetricsSnapshot {
    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricFamily> {
        self.metrics
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.metrics[i].1)
    }

    /// Merges another snapshot: counters add, gauges take the latest value,
    /// histograms merge.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, fam) in &other.metrics {
            match self.metrics.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                Ok(i) => match (&mut self.metrics[i].1, fam) {
                    (MetricFamily::Counter(a), MetricFamily::Counter(b)) => *a += b,
                    (MetricFamily::Gauge(a), MetricFamily::Gauge(b)) => *a = *b,
                    (MetricFamily::Histogram(a), MetricFamily::Histogram(b)) => a.merge(b),
                    // Kind mismatch across processes: keep ours. This can
                    // only happen across incompatible versions, which atomic
                    // rollouts prevent; tolerate it rather than poison the
                    // aggregate.
                    _ => {}
                },
                Err(i) => self.metrics.insert(i, (name.clone(), fam.clone())),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weaver_codec::prelude::*;

    #[test]
    fn idempotent_registration() {
        let reg = MetricsRegistry::new();
        let c1 = reg.counter("x");
        let c2 = reg.counter("x");
        c1.add(1);
        assert_eq!(c2.get(), 1);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflict_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn snapshot_contains_all_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("calls").add(5);
        reg.gauge("inflight").set(-2);
        reg.histogram("lat").record(100);
        let snap = reg.snapshot();
        assert_eq!(snap.get("calls"), Some(&MetricFamily::Counter(5)));
        assert_eq!(snap.get("inflight"), Some(&MetricFamily::Gauge(-2)));
        assert!(matches!(
            snap.get("lat"),
            Some(MetricFamily::Histogram(h)) if h.count == 1
        ));
        assert_eq!(snap.get("missing"), None);
    }

    #[test]
    fn merge_semantics() {
        let r1 = MetricsRegistry::new();
        r1.counter("c").add(3);
        r1.gauge("g").set(1);
        let r2 = MetricsRegistry::new();
        r2.counter("c").add(4);
        r2.gauge("g").set(9);
        r2.counter("only2").add(1);

        let mut snap = r1.snapshot();
        snap.merge(&r2.snapshot());
        assert_eq!(snap.get("c"), Some(&MetricFamily::Counter(7)));
        assert_eq!(snap.get("g"), Some(&MetricFamily::Gauge(9)));
        assert_eq!(snap.get("only2"), Some(&MetricFamily::Counter(1)));
    }

    #[test]
    fn snapshot_serializes() {
        let reg = MetricsRegistry::new();
        reg.counter("a").add(1);
        reg.histogram("h").record(42);
        let snap = reg.snapshot();
        let back: MetricsSnapshot = decode_from_slice(&encode_to_vec(&snap)).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_order_is_name_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter("zeta");
        reg.counter("alpha");
        let snap = reg.snapshot();
        assert_eq!(snap.metrics[0].0, "alpha");
        assert_eq!(snap.metrics[1].0, "zeta");
    }
}
