//! Small helpers shared by the benchmark: JSON objects, a seeded RNG,
//! percentiles and the traced run's span log.

use serde::Value;
use setlearn_obs::{SpanGuard, TraceCollector};

/// A JSON object with its fields in the given order.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// SplitMix64: a tiny, well-mixed, seedable generator. Every input the
/// benchmark sends is drawn from one of these, so a seed fixes the inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named purpose under the run's seed, so adding a
    /// draw in one place never shifts the inputs of another.
    pub fn new(seed: u64, purpose: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in purpose.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A sub-seed for the repository's own seeded generators.
    pub fn seed(&mut self) -> u64 {
        self.next_u64() >> 1
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// The `p`-quantile (0..=1) of `values` by nearest rank; sorts in place.
pub fn quantile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = (p * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    quantile(&mut v, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Spans the traced run keeps: one per client call and replay call, plus
/// the phases they belong to.
const SPAN_CAPACITY: usize = 1 << 21;

/// The traced run's span log, kept in memory and written out at the end.
/// A span names its parent span in a `parent` field and carries the frame's
/// `trace_id` where it has one. Untraced runs record nothing.
pub struct Spans(Option<TraceCollector>);

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans(enabled.then(|| TraceCollector::new(SPAN_CAPACITY)))
    }

    /// Starts a span under the span named `parent`; it ends when dropped.
    pub fn start<'a>(&'a self, name: &'a str, parent: &str) -> Option<SpanGuard<'a>> {
        self.0.as_ref().map(|c| {
            let mut span = c.span(name);
            span.field_text("parent", parent);
            span
        })
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &str, parent: &str, f: impl FnOnce() -> T) -> T {
        let _span = self.start(name, parent);
        f()
    }

    /// Spans lost because the log was full.
    pub fn dropped(&self) -> u64 {
        self.0.as_ref().map_or(0, TraceCollector::dropped)
    }

    /// All spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        self.0
            .as_ref()
            .map_or_else(String::new, |c| setlearn_obs::to_jsonl(&c.records()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
    }

    #[test]
    fn rng_is_seeded_per_purpose() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, "x");
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, "x");
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(7, "x").next_u64(), Rng::new(7, "y").next_u64());
        assert_ne!(Rng::new(7, "x").next_u64(), Rng::new(8, "x").next_u64());
    }
}
