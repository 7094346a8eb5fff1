//! The benchmark's own span recorder.
//!
//! Every span is recorded from this package's code around one public
//! call into the measured crates: a name, a start and end (seconds since
//! the recorder was created) and the span that caused it. Spans live in
//! memory and are summarised when the run ends. A span's self time is
//! its duration minus the part of its interval that its children cover,
//! so concurrent children (miner calls on two workers) are not counted
//! twice.

use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Clone, Debug)]
pub struct Rec {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<SpanId>,
}

impl Rec {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Thread-safe span store.
pub struct Spans {
    origin: Instant,
    recs: Mutex<Vec<Rec>>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            recs: Mutex::new(Vec::new()),
        }
    }

    /// Seconds from the recorder's origin to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Records a finished span with explicit bounds (for calls timed on
    /// another thread).
    pub fn record(
        &self,
        name: &str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let rec = Rec {
            name: name.to_string(),
            start: self.at(start),
            end: self.at(end),
            parent,
        };
        let mut recs = self
            .recs
            .lock()
            .expect("span store poisoned by a panicking recorder");
        recs.push(rec);
        SpanId(recs.len() - 1)
    }

    /// Opens a span now; close it with [`Spans::close`].
    pub fn open(&self, name: &str, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    pub fn close(&self, id: SpanId) {
        let end = self.at(Instant::now());
        self.recs
            .lock()
            .expect("span store poisoned by a panicking recorder")[id.0]
            .end = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&self, name: &str, parent: Option<SpanId>, f: impl FnOnce(SpanId) -> R) -> R {
        let id = self.open(name, parent);
        let out = f(id);
        self.close(id);
        out
    }

    pub fn records(&self) -> Vec<Rec> {
        self.recs
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .clone()
    }
}

/// Runs `f`, inside a span under `parent` when the run is traced.
pub fn timed<R>(spans: Option<(&Spans, SpanId)>, name: &str, f: impl FnOnce() -> R) -> R {
    match spans {
        Some((s, parent)) => s.time(name, Some(parent), |_| f()),
        None => f(),
    }
}

/// Self time of every span, indexed like [`Spans::records`].
pub fn self_times(recs: &[Rec]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); recs.len()];
    for r in recs {
        if let Some(SpanId(p)) = r.parent {
            children[p].push((r.start, r.end));
        }
    }
    recs.iter()
        .zip(children)
        .map(|(r, kids)| r.duration() - union_len(r.start, r.end, kids))
        .collect()
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn union_len(lo: f64, hi: f64, mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Checks the tree's consistency: every child lies inside its parent's
/// interval and no self time is negative or longer than the parent's
/// duration. Returns one message per violation.
pub fn check(recs: &[Rec]) -> Vec<String> {
    // Timer reads on different threads may disagree by a few ns.
    const SLACK: f64 = 1e-6;
    let selfs = self_times(recs);
    let mut bad = Vec::new();
    for (r, &own) in recs.iter().zip(&selfs) {
        if own < -SLACK || own > r.duration() + SLACK {
            bad.push(format!(
                "span {} has self time {own} of {}",
                r.name,
                r.duration()
            ));
        }
        if let Some(SpanId(p)) = r.parent {
            let parent = &recs[p];
            if r.start + SLACK < parent.start || r.end > parent.end + SLACK {
                bad.push(format!(
                    "span {} escapes its parent {}",
                    r.name, parent.name
                ));
            }
            if own > parent.duration() + SLACK {
                bad.push(format!(
                    "span {} self time {own} exceeds parent {} duration {}",
                    r.name,
                    parent.name,
                    parent.duration()
                ));
            }
        }
    }
    bad
}

/// Per-name totals: (name, calls, summed duration, summed self time),
/// in first-seen order.
pub fn by_name(recs: &[Rec]) -> Vec<(String, usize, f64, f64)> {
    let selfs = self_times(recs);
    let mut out: Vec<(String, usize, f64, f64)> = Vec::new();
    for (r, own) in recs.iter().zip(selfs) {
        match out.iter_mut().find(|(n, ..)| *n == r.name) {
            Some(e) => {
                e.1 += 1;
                e.2 += r.duration();
                e.3 += own;
            }
            None => out.push((r.name.clone(), 1, r.duration(), own)),
        }
    }
    out
}

/// Every node of the program's own tracer tree labelled `label`.
pub fn tracer_nodes<'a>(
    node: &'a tnet_obs::SpanNode,
    label: &str,
    out: &mut Vec<&'a tnet_obs::SpanNode>,
) {
    if node.label == label {
        out.push(node);
    }
    for c in &node.children {
        tracer_nodes(c, label, out);
    }
}

/// Summed duration of every span called `name`.
pub fn total(recs: &[Rec], name: &str) -> f64 {
    recs.iter()
        .filter(|r| r.name == name)
        .map(Rec::duration)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, start: f64, end: f64, parent: Option<usize>) -> Rec {
        Rec {
            name: name.into(),
            start,
            end,
            parent: parent.map(SpanId),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let recs = vec![
            rec("root", 0.0, 10.0, None),
            rec("a", 1.0, 5.0, Some(0)),
            rec("b", 3.0, 7.0, Some(0)),
        ];
        let selfs = self_times(&recs);
        assert!((selfs[0] - 4.0).abs() < 1e-12);
        assert!((selfs[1] - 4.0).abs() < 1e-12);
        assert!(check(&recs).is_empty());
    }

    #[test]
    fn check_flags_a_child_outside_its_parent() {
        let recs = vec![rec("root", 0.0, 1.0, None), rec("a", 0.5, 2.0, Some(0))];
        assert!(!check(&recs).is_empty());
    }
}
