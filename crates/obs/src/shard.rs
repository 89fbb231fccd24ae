//! The recorder: one shard per thread, merged deterministically.
//!
//! A shard owns three stores:
//!
//! * **counters** — `BTreeMap<String, u64>` sums (sorted keys, so
//!   serialization is deterministic);
//! * **histograms** — fixed-bucket [`Histogram`]s keyed the same way;
//! * **spans** — timed regions on the shared [`Clock`] timeline, for
//!   the timing section and the Chrome trace export only.
//!
//! Worker threads each record into a private shard; the owner merges
//! them afterwards. Counter and histogram merges are sums, so the merge
//! result is independent of worker scheduling; spans are concatenated
//! and sorted by `(start_ns, tid, name)` purely for stable display.

use std::collections::BTreeMap;

use confanon_testkit::json::Json;

use crate::clock::Clock;
use crate::hist::Histogram;

/// One timed region of the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Event name (a phase name or a file name).
    pub name: String,
    /// Category (e.g. `"phase"`, `"discover"`, `"rewrite"`).
    pub cat: &'static str,
    /// Logical thread lane: 0 = the pipeline lane, 1.. = discovery
    /// shards and rewrite workers (the calling thread is 1).
    pub tid: u32,
    /// Start offset from the run epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// A per-thread observability recorder.
#[derive(Debug, Clone)]
pub struct ObsShard {
    clock: Clock,
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
    spans: Vec<Span>,
}

impl ObsShard {
    /// A shard on `clock`'s timeline. A disabled clock makes every
    /// recording method a no-op.
    pub fn new(clock: Clock) -> ObsShard {
        ObsShard {
            clock,
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
            spans: Vec::new(),
        }
    }

    /// The shared clock (hand it to worker shards).
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Adds `n` to counter `key`.
    pub fn count(&mut self, key: &str, n: u64) {
        if self.clock.enabled() {
            *self.counters.entry(key.to_string()).or_insert(0) += n;
        }
    }

    /// Records `value` into histogram `key`.
    pub fn record(&mut self, key: &str, value: u64) {
        if self.clock.enabled() {
            self.hists.entry(key.to_string()).or_default().record(value);
        }
    }

    /// Marks a span start; pass the result to [`ObsShard::span_end`].
    pub fn span_start(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Closes a span opened at `start_ns`.
    pub fn span_end(&mut self, name: &str, cat: &'static str, tid: u32, start_ns: u64) {
        if self.clock.enabled() {
            let end = self.clock.now_ns();
            self.spans.push(Span {
                name: name.to_string(),
                cat,
                tid,
                start_ns,
                dur_ns: end.saturating_sub(start_ns),
            });
        }
    }

    /// Merges another shard into this one: counters and histogram
    /// buckets are summed (commutative — worker scheduling cannot
    /// change the result), spans concatenated and re-sorted.
    pub fn merge(&mut self, other: &ObsShard) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
        self.spans.extend(other.spans.iter().cloned());
        self.spans
            .sort_by(|a, b| (a.start_ns, a.tid, &a.name).cmp(&(b.start_ns, b.tid, &b.name)));
    }

    /// One counter's value (0 if never touched).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// All counters, sorted by key.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// One histogram, if any sample was recorded under `key`.
    pub fn hist(&self, key: &str) -> Option<&Histogram> {
        self.hists.get(key)
    }

    /// All recorded spans (sorted after a merge).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Counters whose keys start with `prefix`, as a JSON object in key
    /// order — the building block of the deterministic section.
    pub fn counters_json(&self, prefix: &str) -> Json {
        let mut obj = Json::obj();
        for (k, v) in self.counters.range(prefix.to_string()..) {
            if !k.starts_with(prefix) {
                break;
            }
            obj.set(k, *v);
        }
        obj
    }

    /// All histograms as a JSON object in key order.
    pub fn hists_json(&self) -> Json {
        let mut obj = Json::obj();
        for (k, h) in &self.hists {
            obj.set(k, h.to_json());
        }
        obj
    }

    /// Per-category span aggregates (count, total/max duration) as a
    /// JSON object — the timing section's summary view. Wall-clock
    /// derived: never include this in the deterministic section.
    pub fn span_summary_json(&self) -> Json {
        let mut agg: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = agg.entry(s.cat).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += s.dur_ns;
            e.2 = e.2.max(s.dur_ns);
        }
        let mut obj = Json::obj();
        for (cat, (count, total, max)) in agg {
            obj.set(
                cat,
                Json::obj()
                    .with("spans", count)
                    .with("total_ns", total)
                    .with("max_ns", max),
            );
        }
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_hists_accumulate() {
        let mut s = ObsShard::new(Clock::new());
        s.count("a.files", 2);
        s.count("a.files", 3);
        s.record("lines", 10);
        s.record("lines", 20);
        assert_eq!(s.counter("a.files"), 5);
        assert_eq!(s.hist("lines").map(Histogram::count), Some(2));
        assert_eq!(s.counter("untouched"), 0);
    }

    #[test]
    fn disabled_shard_records_nothing() {
        let mut s = ObsShard::new(Clock::disabled());
        s.count("a", 1);
        s.record("h", 1);
        let t = s.span_start();
        s.span_end("x", "phase", 0, t);
        assert_eq!(s.counter("a"), 0);
        assert!(s.hist("h").is_none());
        assert!(s.spans().is_empty());
    }

    #[test]
    fn merge_is_order_independent_for_counts() {
        let clock = Clock::new();
        let mk = |pairs: &[(&str, u64)]| {
            let mut s = ObsShard::new(clock);
            for (k, v) in pairs {
                s.count(k, *v);
                s.record("h", *v);
            }
            s
        };
        let a = mk(&[("x", 1), ("y", 2)]);
        let b = mk(&[("x", 10), ("z", 5)]);
        let mut ab = ObsShard::new(clock);
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = ObsShard::new(clock);
        ba.merge(&b);
        ba.merge(&a);
        assert_eq!(ab.counters(), ba.counters());
        assert_eq!(
            ab.hists_json().to_string_pretty(),
            ba.hists_json().to_string_pretty()
        );
    }

    #[test]
    fn spans_land_on_one_timeline_and_summarize() {
        let mut s = ObsShard::new(Clock::new());
        let t0 = s.span_start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        s.span_end("discover", "phase", 0, t0);
        let t1 = s.span_start();
        s.span_end("r1.cfg", "rewrite", 1, t1);
        assert_eq!(s.spans().len(), 2);
        assert!(s.spans()[0].dur_ns >= 1_000_000);
        let summary = s.span_summary_json();
        assert_eq!(
            summary
                .get("phase")
                .and_then(|p| p.get("spans"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert!(summary.get("rewrite").is_some());
    }

    #[test]
    fn counters_json_filters_by_prefix() {
        let mut s = ObsShard::new(Clock::new());
        s.count("phase.discover.files", 4);
        s.count("phase.rewrite.files", 4);
        s.count("gate.clean", 3);
        let j = s.counters_json("phase.discover.");
        assert_eq!(j.get("phase.discover.files").and_then(Json::as_u64), Some(4));
        assert!(j.get("phase.rewrite.files").is_none());
        assert!(j.get("gate.clean").is_none());
    }
}
