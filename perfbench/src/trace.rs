//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start and an end, the span that caused it, and
//! the id of the operation it belongs to. A child is either *nested*
//! (it ran inside its parent's interval, like a snapshot inside a read)
//! or a *replay* (it re-ran part of its parent's work one layer down on a
//! twin built from the same seed, after the parent finished). A span's
//! self time is its duration minus what its children cover: the overlap
//! of nested children, and the whole duration of replays.
//!
//! Spans stay in memory and are written out when the run ends. Ids are
//! reserved before a timed call starts and spans are stored after it
//! ends, so no bookkeeping lands inside a timed region.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::Samples;

/// Spans kept at most; later operations run untraced.
const MAX_SPANS: usize = 400_000;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub op: u64,
    pub name: &'static str,
    /// Operation kind or method the span belongs to (`insert`, `ar`, …).
    pub tag: &'static str,
    pub replay: bool,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: usize,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: 0,
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Whether the span budget is spent.
    pub fn full(&self) -> bool {
        self.spans.len() >= MAX_SPANS
    }

    /// Reserve the id of a span about to be timed.
    pub fn reserve(&mut self) -> usize {
        self.next_id += 1;
        self.next_id - 1
    }

    /// Store a span under a reserved id.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        id: usize,
        parent: Option<usize>,
        op: u64,
        name: &'static str,
        tag: &'static str,
        replay: bool,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            tag,
            replay,
            start,
            end,
        });
    }

    /// Reserve and store in one call, for spans without children.
    #[allow(clippy::too_many_arguments)]
    pub fn leaf(
        &mut self,
        parent: usize,
        op: u64,
        name: &'static str,
        tag: &'static str,
        replay: bool,
        start: Instant,
        end: Instant,
    ) {
        let id = self.reserve();
        self.record(id, Some(parent), op, name, tag, replay, start, end);
    }

    fn sorted(&self) -> Vec<&Span> {
        let mut v: Vec<&Span> = self.spans.iter().collect();
        v.sort_by_key(|s| s.id);
        v
    }

    /// Self time of every span, in µs, keyed by span id.
    pub fn self_us(&self) -> BTreeMap<usize, f64> {
        let mut children: BTreeMap<usize, Vec<&Span>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push(s);
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
            let replayed: f64 = kids.iter().filter(|k| k.replay).map(|k| k.us()).sum();
            // Union of nested children clipped to this span.
            let mut nested: Vec<(Instant, Instant)> = kids
                .iter()
                .filter(|k| !k.replay)
                .map(|k| (k.start.max(s.start), k.end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            nested.sort();
            let mut covered = 0.0;
            let mut reach: Option<Instant> = None;
            for (a, b) in nested {
                let a = reach.map_or(a, |r| a.max(r));
                if b > a {
                    covered += (b - a).as_secs_f64() * 1e6;
                    reach = Some(b);
                }
            }
            out.insert(s.id, s.us() - covered - replayed);
        }
        out
    }

    /// Durations of spans named `name` with tag `tag`.
    pub fn durations(&self, name: &str, tag: &str) -> Samples {
        let mut out = Samples::default();
        for s in self.spans.iter().filter(|s| s.name == name && s.tag == tag) {
            out.push(s.us());
        }
        out
    }

    /// Self times of spans named `name` under roots tagged `tag`, grouped
    /// by span name, plus the roots' durations.
    fn trees(&self, root: &str, tag: &str) -> (Samples, BTreeMap<&'static str, Samples>) {
        let selfs = self.self_us();
        let mut root_of: BTreeMap<usize, usize> = BTreeMap::new();
        let mut roots = Samples::default();
        let mut by_name: BTreeMap<&'static str, Samples> = BTreeMap::new();
        for s in self.sorted() {
            let r = match s.parent {
                None => s.id,
                Some(p) => *root_of.get(&p).unwrap_or(&p),
            };
            root_of.insert(s.id, r);
        }
        let root_ok: BTreeMap<usize, bool> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.id, s.name == root && s.tag == tag))
            .collect();
        for s in &self.spans {
            if !root_ok.get(&root_of[&s.id]).copied().unwrap_or(false) {
                continue;
            }
            if s.parent.is_none() {
                roots.push(s.us());
            }
            by_name.entry(s.name).or_default().push(selfs[&s.id]);
        }
        (roots, by_name)
    }

    /// What the layers do not explain: the median duration of `root`
    /// spans tagged `tag`, minus the sum over every span name in their
    /// trees of that name's median self time.
    pub fn unattributed_us(&self, root: &str, tag: &str) -> Result<f64, String> {
        let (roots, by_name) = self.trees(root, tag);
        let mut attributed = 0.0;
        for s in by_name.values() {
            attributed += s.median()?;
        }
        Ok(roots.median().map_err(|e| format!("{root}/{tag}: {e}"))? - attributed)
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.sorted() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}\", \"tag\": \"{}\", \
                 \"replay\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.op,
                s.name,
                s.tag,
                s.replay,
                (s.start - self.origin).as_nanos(),
                (s.end - self.origin).as_nanos()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_nested_overlap_and_replays() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut t = Tracer::default();
        let root = t.reserve();
        // Two overlapping nested children cover 10..40 = 30 µs.
        t.leaf(root, 0, "n", "x", false, at(10), at(30));
        t.leaf(root, 0, "n", "x", false, at(20), at(40));
        // A replay of 25 µs, after the root ended.
        let core = t.reserve();
        t.leaf(core, 0, "engine", "x", true, at(120), at(130));
        t.record(core, Some(root), 0, "core", "x", true, at(105), at(130));
        t.record(root, None, 0, "root", "x", false, at(0), at(100));
        let selfs = t.self_us();
        assert!((selfs[&root] - 45.0).abs() < 1e-6, "{}", selfs[&root]);
        assert!((selfs[&core] - 15.0).abs() < 1e-6);
        // Medians per name: root 45, n 20, core 15, engine 10. The nested
        // children overlap, so their medians over-explain the root by 10.
        let u = t.unattributed_us("root", "x").unwrap();
        assert!(
            (u - (100.0 - 45.0 - 20.0 - 15.0 - 10.0)).abs() < 1e-6,
            "{u}"
        );
    }

    #[test]
    fn roots_of_other_tags_are_ignored() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut t = Tracer::default();
        for (op, (tag, len)) in [("a", 10), ("b", 50)].into_iter().enumerate() {
            let id = t.reserve();
            t.record(id, None, op as u64, "root", tag, false, at(0), at(len));
        }
        assert_eq!(t.durations("root", "a").median(), Ok(10.0));
        assert!((t.unattributed_us("root", "b").unwrap()).abs() < 1e-6);
    }
}
