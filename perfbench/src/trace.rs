//! In-memory spans around the calls into each layer's public functions.
//!
//! Every pass times its calls whether traced or not, because the
//! end-to-end metrics are sums of those timings. A traced pass also keeps
//! each span (name, start, end, parent) in memory; they are written out
//! once the benchmark ends, so tracing adds no I/O to a measured pass.

use std::time::Instant;

/// One timed call. Times are nanoseconds from the start of the pass.
#[derive(Debug, Clone)]
pub struct Span {
    /// The pass this span belongs to (spans of one pass share it).
    pub pass: usize,
    /// Layer-qualified call name, e.g. `core.run_parallel`.
    pub name: &'static str,
    /// Index of the enclosing span in the pass's span list.
    pub parent: Option<usize>,
    /// Start offset in nanoseconds.
    pub start_ns: u64,
    /// End offset in nanoseconds.
    pub end_ns: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Times the calls of one pass, keeping their spans when traced.
pub struct Tracer {
    pass: usize,
    origin: Instant,
    spans: Option<Vec<Span>>,
    root: Option<usize>,
}

impl Tracer {
    /// Starts the clock of pass `pass`; `traced` keeps the spans.
    pub fn new(pass: usize, traced: bool) -> Self {
        let mut tracer = Tracer {
            pass,
            origin: Instant::now(),
            spans: traced.then(Vec::new),
            root: None,
        };
        tracer.root = tracer.open("bench.pass", None);
        tracer
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a pass lasts under 584 years")
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        let start_ns = self.now_ns();
        let pass = self.pass;
        self.spans.as_mut().map(|spans| {
            spans.push(Span {
                pass,
                name,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            spans.len() - 1
        })
    }

    /// Runs `f` inside a child span of the pass; returns its result and
    /// its duration in seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let id = self.open(name, self.root);
        let out = f();
        let seconds = start.elapsed().as_secs_f64();
        self.close(id);
        (out, seconds)
    }

    fn close(&mut self, id: Option<usize>) {
        let end_ns = self.now_ns();
        if let (Some(spans), Some(id)) = (self.spans.as_mut(), id) {
            spans[id].end_ns = end_ns;
        }
    }

    /// Ends the pass; returns its wall time in seconds and its spans
    /// (empty when untraced).
    pub fn finish(mut self) -> (f64, Vec<Span>) {
        let wall = self.origin.elapsed().as_secs_f64();
        self.close(self.root);
        (wall, self.spans.unwrap_or_default())
    }
}

/// Self time of each span: its duration minus the part of it that its
/// child spans cover (children of one parent never overlap here).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p] = own[p].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Share of the root span that its children cover (1.0 when nothing is
/// left unattributed).
pub fn coverage(spans: &[Span]) -> f64 {
    let Some(root) = spans.iter().position(|s| s.parent.is_none()) else {
        return 0.0;
    };
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(root))
        .map(Span::duration_ns)
        .sum();
    covered as f64 / spans[root].duration_ns().max(1) as f64
}
