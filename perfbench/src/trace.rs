//! In-memory spans and counts for the traced run, recorded around the
//! benchmark's calls into each layer (never inside the program), and
//! the self-time attribution that turns them into per-layer numbers.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use confanon_testkit::json::Json;

/// One recorded span. Times are seconds since the trace's epoch.
#[derive(Clone)]
pub struct Span {
    pub name: &'static str,
    /// The unit of work the span belongs to (file or request id), shared
    /// by every span of that unit.
    pub unit: String,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

pub struct Trace {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<String, f64>>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    pub fn open(&self, name: &'static str, unit: &str, parent: Option<usize>) -> usize {
        let start = self.now();
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.push(Span {
            name,
            unit: unit.to_string(),
            parent,
            start,
            end: f64::NAN,
        });
        spans.len() - 1
    }

    pub fn close(&self, id: usize) {
        let end = self.now();
        self.spans.lock().expect("span log poisoned")[id].end = end;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        unit: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, unit, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Adds `v` to the count `name`.
    pub fn count(&self, name: &str, v: f64) {
        *self
            .counts
            .lock()
            .expect("count log poisoned")
            .entry(name.to_string())
            .or_insert(0.0) += v;
    }

    /// Drops the counts so far (each traced replay reports its own).
    pub fn clear_counts(&self) {
        self.counts.lock().expect("count log poisoned").clear();
    }

    pub fn counts(&self) -> BTreeMap<String, f64> {
        self.counts.lock().expect("count log poisoned").clone()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Self time per span name inside the subtree of `root`, excluding
    /// the root itself: every instant of the root's interval goes to the
    /// innermost open spans, split evenly when several workers' spans
    /// are innermost at once. The shares therefore sum to the root's
    /// duration minus the root's own (orchestration) time.
    pub fn self_times(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut inside = vec![false; spans.len()];
        inside[root] = true;
        // Parents are opened before their children, so one pass in
        // index order marks the whole subtree.
        for i in root + 1..spans.len() {
            if let Some(p) = spans[i].parent {
                inside[i] = inside[p];
            }
        }
        let members: Vec<usize> = (0..spans.len())
            .filter(|&i| inside[i] && spans[i].end.is_finite())
            .collect();
        let mut cuts: Vec<f64> = members
            .iter()
            .flat_map(|&i| [spans[i].start, spans[i].end])
            .collect();
        cuts.sort_by(f64::total_cmp);
        cuts.dedup();
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for w in cuts.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let open: Vec<usize> = members
                .iter()
                .copied()
                .filter(|&i| spans[i].start <= lo && spans[i].end >= hi)
                .collect();
            let leaves: Vec<usize> = open
                .iter()
                .copied()
                .filter(|&i| !open.iter().any(|&j| spans[j].parent == Some(i)))
                .collect();
            for &i in &leaves {
                if i != root {
                    *out.entry(spans[i].name).or_insert(0.0) += (hi - lo) / leaves.len() as f64;
                }
            }
        }
        out
    }

    pub fn duration(&self, id: usize) -> f64 {
        let spans = self.spans.lock().expect("span log poisoned");
        spans[id].end - spans[id].start
    }

    /// The artifact: every span and count as JSON.
    pub fn to_json(&self, header: Json) -> Json {
        let spans: Vec<Json> = self
            .spans()
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj()
                    .with("id", i as u64)
                    .with("name", s.name)
                    .with("unit", s.unit.as_str())
                    .with(
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                    )
                    .with("start_s", s.start)
                    .with("end_s", s.end)
            })
            .collect();
        let mut counts = Json::obj();
        for (k, v) in self.counts() {
            counts.set(&k, v);
        }
        header
            .with("spans", Json::Arr(spans))
            .with("counts", counts)
    }
}
