//! Expected match events of a text that repeats forever.
//!
//! The streamed workloads feed a fixed seeded text over and over for
//! as long as a run lasts, so the oracle cannot scan the whole stream
//! up front. It does not need to: every pattern is shorter than the
//! text, so a match ending in copy `k ≥ 1` sees only copy `k − 1` and
//! copy `k`. One reference scan of the text written twice gives the
//! events of copy 0 and, shifted, of every later copy.

use pm_matchers::aho_corasick::{AhoCorasick, DictMatch};
use pm_systolic::symbol::{Pattern, Symbol};
use std::time::Instant;

/// Events of `text` repeated without end, from one reference scan.
#[derive(Debug, Clone)]
pub struct PeriodicOracle {
    period: usize,
    /// Events ending in the first copy.
    first: Vec<DictMatch>,
    /// Events ending in any later copy, at offsets within that copy.
    steady: Vec<DictMatch>,
}

impl PeriodicOracle {
    /// Builds the oracle by running `reference` (an offline
    /// `find_all`, events sorted by `(end, pattern)`) over the text
    /// written twice. Patterns must be no longer than `text`.
    pub fn new(text: &[Symbol], reference: impl FnOnce(&[Symbol]) -> Vec<DictMatch>) -> Self {
        let period = text.len();
        let twice: Vec<Symbol> = text.iter().chain(text).copied().collect();
        let events = reference(&twice);
        let split = events.partition_point(|e| e.end < period);
        PeriodicOracle {
            period,
            first: events[..split].to_vec(),
            steady: events[split..]
                .iter()
                .map(|e| DictMatch {
                    pattern: e.pattern,
                    end: e.end - period,
                })
                .collect(),
        }
    }

    /// The events ending in `lo..hi` of the endless stream, in
    /// `(end, pattern)` order.
    pub fn expected(&self, lo: usize, hi: usize) -> Vec<DictMatch> {
        let mut out = Vec::new();
        if hi <= lo {
            return out;
        }
        for copy in lo / self.period..=(hi - 1) / self.period {
            let base = copy * self.period;
            let events = if copy == 0 { &self.first } else { &self.steady };
            let from = events.partition_point(|e| base + e.end < lo);
            let to = events.partition_point(|e| base + e.end < hi);
            out.extend(events[from..to].iter().map(|e| DictMatch {
                pattern: e.pattern,
                end: base + e.end,
            }));
        }
        out
    }
}

/// Aho–Corasick on one thread over the same text: the in-process
/// reference the chip paths are compared against.
#[derive(Debug, Clone, Copy)]
pub struct AcBaseline {
    /// Median seconds to build the automaton.
    pub build_s: f64,
    /// Median scan rate over `text`, Mchar/s.
    pub mchar_s: f64,
}

/// Builds and runs Aho–Corasick over `text` a few times and takes
/// medians.
pub fn ac_baseline(patterns: &[Pattern], text: &[Symbol]) -> AcBaseline {
    let (mut builds, mut rates) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let t = Instant::now();
        let ac = AhoCorasick::new(patterns).expect("literal patterns");
        builds.push(t.elapsed().as_secs_f64());
        rates.push(rate_of(text.len(), || ac.find_all(text)));
    }
    AcBaseline {
        build_s: crate::measure::median(&builds),
        mchar_s: crate::measure::median(&rates),
    }
}

/// Scan rate of one call of `scan` over `chars` characters, Mchar/s.
pub fn rate_of<T>(chars: usize, scan: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    std::hint::black_box(scan());
    chars as f64 / t.elapsed().as_secs_f64().max(1e-9) / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_systolic::symbol::Alphabet;

    #[test]
    fn periodic_events_equal_a_scan_of_the_whole_stream() {
        let bytes = b"abcabxab";
        let text: Vec<Symbol> = bytes.iter().map(|&b| Symbol::new(b)).collect();
        let patterns: Vec<Pattern> = [&b"bca"[..], b"xab", b"babc"]
            .iter()
            .map(|p| Pattern::from_bytes(p, None, Alphabet::EIGHT_BIT).unwrap())
            .collect();
        let ac = AhoCorasick::new(&patterns).unwrap();
        let oracle = PeriodicOracle::new(&text, |t| ac.find_all(t));
        let stream: Vec<Symbol> = text.iter().cycle().take(5 * text.len()).copied().collect();
        let whole = ac.find_all(&stream);
        assert_eq!(oracle.expected(0, stream.len()), whole);
        let (lo, hi) = (11, 29);
        let window: Vec<DictMatch> = whole
            .iter()
            .filter(|e| (lo..hi).contains(&e.end))
            .copied()
            .collect();
        assert_eq!(oracle.expected(lo, hi), window);
    }
}
