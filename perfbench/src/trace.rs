//! Spans around the public calls the benchmark makes, kept in memory and
//! written out with the result row when the simulation ends.
//!
//! A disabled tracer takes no timestamps, so an untraced run measures the
//! program alone; the traced run pays for the clock reads it records.

use std::time::{Duration, Instant};

/// One timed call: offsets from the tracer's origin.
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Open a span named `name` inside the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if self.on {
            let now = self.origin.elapsed();
            self.open.push(self.spans.len());
            self.spans.push(Span {
                name,
                start: now,
                end: now,
                parent: self.open.iter().rev().nth(1).copied(),
            });
        }
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if self.on {
            let i = self
                .open
                .pop()
                .expect("Tracer::exit without a matching enter");
            self.spans[i].end = self.origin.elapsed();
        }
    }

    /// Closed spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        assert!(
            self.open.is_empty(),
            "spans read while {} are still open",
            self.open.len()
        );
        &self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parents() {
        let mut tr = Tracer::new(true, Instant::now());
        tr.enter("root");
        tr.enter("child");
        tr.exit();
        tr.exit();
        tr.enter("second_root");
        tr.exit();
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false, Instant::now());
        tr.enter("root");
        tr.exit();
        assert!(tr.spans().is_empty());
    }
}
