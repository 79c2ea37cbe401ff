//! Bench-side spans for the traced run: name, start, end, parent span,
//! and the request id every span of one operation shares. Spans are
//! kept in memory and written out once, when the run ends; an untraced
//! run holds a disabled recorder whose calls cost one branch.

use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;

use crate::util::now_ns;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (1-based, unique per run).
    pub id: u64,
    /// The enclosing span's id, 0 for a root.
    pub parent: u64,
    /// The operation every span of one request shares.
    pub request: u64,
    /// Layer call or operation name.
    pub name: &'static str,
    /// Start, ns on the run's clock.
    pub start_ns: u64,
    /// End, ns on the run's clock.
    pub end_ns: u64,
}

/// An in-memory span recorder.
#[derive(Debug, Default)]
pub struct Spans {
    enabled: bool,
    spans: Mutex<Vec<Span>>,
    next_id: std::sync::atomic::AtomicU64,
}

impl Spans {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            ..Self::default()
        }
    }

    /// Runs `f` inside a span and returns its result. `f` receives the
    /// new span's id, to parent the spans it opens (0 when disabled).
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self
            .next_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            + 1;
        let start_ns = now_ns();
        let out = f(id);
        let end_ns = now_ns();
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking workload thread")
            .push(Span {
                id,
                parent,
                request,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().map_or(0, |s| s.len())
    }

    /// Total and self time (duration minus the time its direct children
    /// cover) per span name, sorted by name: `(name, count, total_ns,
    /// self_ns)`.
    pub fn summary(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let spans = self.spans.lock().map(|s| s.clone()).unwrap_or_default();
        let mut child_ns = std::collections::BTreeMap::<u64, u64>::new();
        for s in &spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut by_name = std::collections::BTreeMap::<&'static str, (u64, u64, u64)>::new();
        for s in &spans {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += own;
        }
        by_name
            .into_iter()
            .map(|(n, (c, t, o))| (n, c, t, o))
            .collect()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    /// I/O failures creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().map(|s| s.clone()).unwrap_or_default();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
