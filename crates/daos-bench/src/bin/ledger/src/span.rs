//! Host-time spans recorded by the ledger around its calls into each
//! layer. Phase-level spans (run, build, tick, scrape, …) are kept one
//! by one; epoch-level spans, of which a run has hundreds of thousands,
//! fold into (count, total, max) under the phase span that was open when
//! they closed. Everything stays in memory until [`Tracer::to_jsonl`].

use std::fmt::Write as _;
use std::time::Instant;

/// One phase-level span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The traced repeat this span belongs to (1-based).
    pub run: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Epoch-level spans of one name under one parent, folded as they closed.
#[derive(Debug, Clone, PartialEq)]
pub struct Fold {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub run: u32,
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    pub folds: Vec<Fold>,
    /// Work counts recorded at the same boundaries: (run, name, value).
    pub counts: Vec<(u32, &'static str, f64)>,
    /// Open spans, innermost last, each with the folds opened under it.
    stack: Vec<(usize, Vec<usize>)>,
    /// Folds made while no span is open.
    root_folds: Vec<usize>,
    run: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::child_of(Instant::now(), 0)
    }

    /// A tracer for another thread's share of run `run`, on the same time
    /// origin, to be handed back through [`Tracer::absorb`].
    pub fn child(&self) -> Tracer {
        Tracer::child_of(self.origin, self.run)
    }

    fn child_of(origin: Instant, run: u32) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            folds: Vec::new(),
            counts: Vec::new(),
            stack: Vec::new(),
            root_folds: Vec::new(),
            run,
        }
    }

    /// Start the next traced repeat and return its id.
    pub fn begin_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        let parent = self.stack.last().map(|(p, _)| *p);
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, run: self.run });
        self.stack.push((id, Vec::new()));
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        let end_ns = self.ns(Instant::now());
        let top = self.stack.pop().map(|(top, _)| top);
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Record a span another thread timed, as a child of the innermost
    /// open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let parent = self.stack.last().map(|(p, _)| *p);
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, start_ns, end_ns, parent, run: self.run });
    }

    /// Fold one closed epoch-level span of `dur_ns` into `name`.
    pub fn fold(&mut self, name: &'static str, dur_ns: u64) {
        let parent = self.stack.last().map(|(p, _)| *p);
        let open = match self.stack.last_mut() {
            Some((_, open)) => open,
            None => &mut self.root_folds,
        };
        let idx = match open.iter().find(|&&i| self.folds[i].name == name) {
            Some(&i) => i,
            None => {
                let i = self.folds.len();
                self.folds.push(Fold {
                    name,
                    parent,
                    run: self.run,
                    count: 0,
                    total_ns: 0,
                    max_ns: 0,
                });
                open.push(i);
                i
            }
        };
        let f = &mut self.folds[idx];
        f.count += 1;
        f.total_ns += dur_ns;
        f.max_ns = f.max_ns.max(dur_ns);
    }

    /// Fold the time since `since` into `name`; returns the instant read,
    /// so consecutive epoch-level spans share one clock read per boundary.
    pub fn fold_since(&mut self, name: &'static str, since: Instant) -> Instant {
        let now = Instant::now();
        self.fold(name, now.saturating_duration_since(since).as_nanos() as u64);
        now
    }

    /// Add `value` to the current run's count `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        match self.counts.iter_mut().find(|(run, n, _)| *run == self.run && *n == name) {
            Some((_, _, v)) => *v += value,
            None => self.counts.push((self.run, name, value)),
        }
    }

    /// Raise the current run's count `name` to at least `value`.
    pub fn peak(&mut self, name: &'static str, value: f64) {
        match self.counts.iter_mut().find(|(run, n, _)| *run == self.run && *n == name) {
            Some((_, _, v)) => *v = v.max(value),
            None => self.counts.push((self.run, name, value)),
        }
    }

    /// Take over a [`child`](Self::child) tracer's records; its outermost
    /// spans and folds become children of the innermost open span.
    pub fn absorb(&mut self, child: Tracer) {
        let base = self.spans.len();
        let top = self.stack.last().map(|(p, _)| *p);
        let reparent = |p: Option<usize>| p.map(|p| p + base).or(top);
        for mut s in child.spans {
            s.parent = reparent(s.parent);
            self.spans.push(s);
        }
        for mut f in child.folds {
            f.parent = reparent(f.parent);
            self.folds.push(f);
        }
        for (_, name, v) in child.counts {
            self.count(name, v);
        }
    }

    /// A span's self time: its duration minus what its child spans and
    /// the folds under it cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::dur_ns).sum();
        let folded: u64 =
            self.folds.iter().filter(|f| f.parent == Some(id)).map(|f| f.total_ns).sum();
        self.spans[id].dur_ns().saturating_sub(children + folded)
    }

    /// Durations of every span named `name` in `run`.
    pub fn durations(&self, run: u32, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.run == run && s.name == name).map(Span::dur_ns).collect()
    }

    /// Total time and number of spans, kept or folded, named `name` in `run`.
    pub fn total(&self, run: u32, name: &str) -> (u64, u64) {
        let mut total = 0;
        let mut n = 0;
        for d in self.durations(run, name) {
            total += d;
            n += 1;
        }
        for f in self.folds.iter().filter(|f| f.run == run && f.name == name) {
            total += f.total_ns;
            n += f.count;
        }
        (total, n)
    }

    /// Longest single span, kept or folded, named `name` in `run`.
    pub fn max(&self, run: u32, name: &str) -> u64 {
        let kept = self.durations(run, name).into_iter().max().unwrap_or(0);
        let folded =
            self.folds.iter().filter(|f| f.run == run && f.name == name).map(|f| f.max_ns).max();
        kept.max(folded.unwrap_or(0))
    }

    pub fn count_of(&self, run: u32, name: &str) -> Option<f64> {
        self.counts.iter().find(|(r, n, _)| *r == run && *n == name).map(|(_, _, v)| *v)
    }

    /// One JSON object per line: spans, then folds, then counts.
    pub fn to_jsonl(&self) -> String {
        let id = |p: Option<usize>| p.map_or("null".to_string(), |p| p.to_string());
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"kind\":\"span\",\"id\":{i},\"parent\":{},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                id(s.parent), s.run, s.name, s.start_ns, s.end_ns
            );
        }
        for f in &self.folds {
            let _ = writeln!(
                out,
                "{{\"kind\":\"fold\",\"parent\":{},\"run\":{},\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"max_ns\":{}}}",
                id(f.parent), f.run, f.name, f.count, f.total_ns, f.max_ns
            );
        }
        for (run, name, v) in &self.counts {
            let _ = writeln!(
                out,
                "{{\"kind\":\"count\",\"run\":{run},\"name\":\"{name}\",\"value\":{v}}}"
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built tree:  run[0..1000] ─ build[100..400] ─ inner[150..250]
    ///                                   └ tick[500..700], plus 120 ns folded under run.
    fn tree() -> Tracer {
        let mut t = Tracer::new();
        t.begin_run();
        let span = |name, start_ns, end_ns, parent| Span { name, start_ns, end_ns, parent, run: 1 };
        t.spans = vec![
            span("run", 0, 1000, None),
            span("build", 100, 400, Some(0)),
            span("inner", 150, 250, Some(1)),
            span("tick", 500, 700, Some(0)),
        ];
        t.stack.push((0, Vec::new()));
        t.fold("epoch", 50);
        t.fold("epoch", 70);
        t
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let t = tree();
        assert_eq!(t.self_ns(0), 1000 - 300 - 200 - 120);
        assert_eq!(t.self_ns(1), 300 - 100);
        assert_eq!(t.self_ns(2), 100);
        assert_eq!(t.self_ns(3), 200);
    }

    #[test]
    fn folds_keep_count_total_and_max() {
        let t = tree();
        assert_eq!(t.folds.len(), 1);
        assert_eq!((t.folds[0].count, t.folds[0].total_ns, t.folds[0].max_ns), (2, 120, 70));
        assert_eq!(t.folds[0].parent, Some(0));
        assert_eq!(t.total(1, "epoch"), (120, 2));
        assert_eq!(t.total(1, "tick"), (200, 1));
        assert_eq!(t.max(1, "epoch"), 70);
        assert_eq!(t.total(2, "tick"), (0, 0));
    }

    #[test]
    fn absorbed_children_hang_under_the_open_span() {
        let mut t = Tracer::new();
        t.begin_run();
        let run = t.enter("run");
        let mut c = t.child();
        let job = c.enter("job");
        c.fold("epoch", 5);
        c.span("leaf", || ());
        c.exit(job);
        c.count("work", 2.0);
        t.count("work", 1.0);
        t.absorb(c);
        t.exit(run);
        assert_eq!(t.spans[1].name, "job");
        assert_eq!(t.spans[1].parent, Some(run));
        assert_eq!(t.spans[2].parent, Some(1));
        assert_eq!(t.folds[0].parent, Some(1));
        assert_eq!(t.count_of(1, "work"), Some(3.0));
        assert_eq!(t.to_jsonl().lines().count(), 3 + 1 + 1);
    }
}
