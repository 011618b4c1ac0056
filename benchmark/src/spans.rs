//! The harness's own spans: one per call into a layer, recorded in memory
//! on the single driver thread and written out when the workload ends.
//! The crates under test are not instrumented; every span here brackets a
//! call into one of their `pub` functions.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that was open when this one started (`None` for a root).
    pub parent: Option<u32>,
    pub name: String,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work items the call covered (kernel calls, messages, probe
    /// iterations).
    pub count: u64,
}

/// Records spans when enabled and is a pair of branches when not, so the
/// same driver code serves the untraced and the traced run.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` with recording switched off; spans already open stay open.
    pub fn pause(&mut self, f: impl FnOnce(&mut Recorder)) {
        let was = std::mem::replace(&mut self.enabled, false);
        f(self);
        self.enabled = was;
    }

    /// Run `f` inside a span; `f` returns its result and the span's work
    /// count.
    pub fn span<T>(
        &mut self,
        name: &str,
        layer: &'static str,
        f: impl FnOnce(&mut Recorder) -> (T, u64),
    ) -> T {
        self.timed(name, layer, f).0
    }

    /// [`Recorder::span`] that also returns the call's wall seconds, which
    /// are measured whether or not spans are being recorded.
    pub fn timed<T>(
        &mut self,
        name: &str,
        layer: &'static str,
        f: impl FnOnce(&mut Recorder) -> (T, u64),
    ) -> (T, f64) {
        let start = self.epoch.elapsed();
        let id = self.enabled.then(|| {
            let id = self.spans.len() as u32;
            self.spans.push(Span {
                id,
                parent: self.open.last().copied(),
                name: name.to_string(),
                layer,
                start_ns: start.as_nanos() as u64,
                end_ns: 0,
                count: 0,
            });
            self.open.push(id);
            id
        });
        let (out, count) = f(self);
        let end = self.epoch.elapsed();
        if let Some(id) = id {
            self.open.pop();
            let span = &mut self.spans[id as usize];
            span.end_ns = end.as_nanos() as u64;
            span.count = count;
        }
        (out, (end - start).as_secs_f64())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per layer, in nanoseconds.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_layer = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *by_layer.entry(s.layer).or_insert(0) += own;
    }
    by_layer
}

pub fn to_json(spans: &[Span]) -> Value {
    let own = self_times(spans);
    let rows = spans
        .iter()
        .zip(own)
        .map(|(s, own)| {
            Value::Object(vec![
                ("id".into(), Value::UInt(u64::from(s.id))),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::UInt(u64::from(p))),
                ),
                ("name".into(), Value::Str(s.name.clone())),
                ("layer".into(), Value::Str(s.layer.into())),
                ("start_ns".into(), Value::UInt(s.start_ns)),
                ("end_ns".into(), Value::UInt(s.end_ns)),
                ("count".into(), Value::UInt(s.count)),
                ("self_ns".into(), Value::UInt(own)),
            ])
        })
        .collect();
    let layers = layer_self_ns(spans)
        .into_iter()
        .map(|(layer, ns)| (layer.to_string(), Value::UInt(ns)))
        .collect();
    Value::Object(vec![
        ("layer_self_ns".into(), Value::Object(layers)),
        ("spans".into(), Value::Array(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            layer,
            start_ns: start,
            end_ns: end,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(0, None, "harness", 0, 100),
            span(1, Some(0), "simmpi", 10, 60),
            span(2, Some(1), "obs", 20, 30),
            span(3, Some(0), "obs", 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["harness"], 30);
        assert_eq!(layers["simmpi"], 40);
        assert_eq!(layers["obs"], 30);
        // Self times tile the root exactly.
        assert_eq!(layers.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = [
            span(0, None, "harness", 0, 100),
            span(1, Some(0), "rt", 10, 50),
            span(2, Some(0), "rt", 40, 70),
            span(3, Some(0), "rt", 90, 130),
        ];
        // Covered: [10,50) ∪ [50,70) ∪ [90,100) = 70.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_and_a_paused_recorder_records_nothing() {
        let mut rec = Recorder::new(true);
        let out = rec.span("outer", "harness", |rec| {
            let inner = rec.span("inner", "simnet", |_| (7, 3));
            (inner + 1, 1)
        });
        assert_eq!(out, 8);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].count, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        rec.span("resumed", "harness", |rec| {
            rec.pause(|rec| assert_eq!(rec.span("off", "harness", |_| (5, 1)), 5));
            rec.span("on", "rt", |_| ((), 1));
            ((), 1)
        });
        let names: Vec<&str> = rec.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner", "resumed", "on"]);
        assert_eq!(rec.spans()[3].parent, Some(2));
    }
}
