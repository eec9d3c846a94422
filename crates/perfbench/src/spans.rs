//! Reads the drained `forest-obs` trace back into spans: durations,
//! parent links and self times, which the per-layer table is built from.

use forest_obs::{Phase, TraceEvent};
use std::collections::BTreeMap;

/// One closed span.
#[derive(Clone, Copy, Debug)]
pub struct SpanRec {
    /// The name it was entered with.
    pub name: &'static str,
    /// Begin timestamp, nanoseconds.
    pub start: u64,
    /// End timestamp, nanoseconds.
    pub end: u64,
}

impl SpanRec {
    /// Wall time between begin and end.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Every closed span of a trace, by id.
#[derive(Debug, Default)]
pub struct Spans {
    by_id: BTreeMap<u64, SpanRec>,
    children: BTreeMap<u64, Vec<u64>>,
}

impl Spans {
    /// Pairs begin and end events; spans left open are ignored.
    pub fn from_events(events: &[TraceEvent]) -> Spans {
        let mut open: BTreeMap<u64, (&'static str, u64, u64)> = BTreeMap::new();
        let mut spans = Spans::default();
        for e in events {
            match e.phase {
                Phase::Begin => {
                    open.insert(e.span, (e.name, e.parent, e.ts_nanos));
                }
                Phase::End => {
                    if let Some((name, parent, start)) = open.remove(&e.span) {
                        spans.by_id.insert(
                            e.span,
                            SpanRec {
                                name,
                                start,
                                end: e.ts_nanos,
                            },
                        );
                        spans.children.entry(parent).or_default().push(e.span);
                    }
                }
                Phase::Instant => {}
            }
        }
        spans
    }

    /// Ids of the spans named `name`, in id (= entry) order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = u64> + 'a {
        self.by_id
            .iter()
            .filter(move |(_, s)| s.name == name)
            .map(|(&id, _)| id)
    }

    /// The span with this id.
    pub fn get(&self, id: u64) -> Option<&SpanRec> {
        self.by_id.get(&id)
    }

    /// Direct children of `id`.
    pub fn children(&self, id: u64) -> &[u64] {
        self.children.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Id of the direct child of `parent` named `name` (the first, if
    /// several).
    pub fn child_id(&self, parent: u64, name: &str) -> Option<u64> {
        self.children(parent)
            .iter()
            .copied()
            .find(|id| self.get(*id).is_some_and(|s| s.name == name))
    }

    /// The direct child of `parent` named `name` (the first, if several).
    pub fn child(&self, parent: u64, name: &str) -> Option<&SpanRec> {
        self.child_id(parent, name).and_then(|id| self.get(id))
    }

    /// Summed duration of the descendants of `id` named `name`, at any
    /// depth (a program span nested under a benchmark span).
    pub fn descendant_total(&self, id: u64, name: &str) -> u64 {
        let mut total = 0;
        let mut stack: Vec<u64> = self.children(id).to_vec();
        while let Some(c) = stack.pop() {
            if let Some(s) = self.get(c) {
                if s.name == name {
                    total += s.duration();
                } else {
                    stack.extend_from_slice(self.children(c));
                }
            }
        }
        total
    }

    /// Duration of `id` minus the part its direct children cover.
    pub fn self_time(&self, id: u64) -> u64 {
        let Some(s) = self.get(id) else { return 0 };
        let covered: u64 = self
            .children(id)
            .iter()
            .filter_map(|c| self.get(*c))
            .map(SpanRec::duration)
            .sum();
        s.duration().saturating_sub(covered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, phase: Phase, ts: u64, span: u64, parent: u64) -> TraceEvent {
        TraceEvent {
            name,
            phase,
            ts_nanos: ts,
            tid: 0,
            span,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let events = vec![
            ev("op", Phase::Begin, 0, 1, 0),
            ev("a", Phase::Begin, 10, 2, 1),
            ev("inner", Phase::Begin, 12, 3, 2),
            ev("inner", Phase::End, 18, 3, 2),
            ev("a", Phase::End, 30, 2, 1),
            ev("b", Phase::Begin, 40, 4, 1),
            ev("b", Phase::End, 45, 4, 1),
            ev("op", Phase::End, 100, 1, 0),
        ];
        let spans = Spans::from_events(&events);
        assert_eq!(spans.get(1).unwrap().duration(), 100);
        assert_eq!(spans.self_time(1), 100 - 20 - 5);
        assert_eq!(spans.self_time(2), 20 - 6);
        assert_eq!(spans.child(1, "b").unwrap().duration(), 5);
        assert_eq!(spans.descendant_total(1, "inner"), 6);
        assert_eq!(spans.named("op").collect::<Vec<_>>(), vec![1]);
    }
}
