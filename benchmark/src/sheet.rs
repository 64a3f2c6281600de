//! Samples per metric and the order statistics reported for them.

use crate::json::Json;
use std::collections::BTreeMap;

/// Quartiles by the method Python's `statistics.quantiles(v, n=4)` uses (the
/// driver's), so a spread computed here matches one computed there.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        n => {
            let at = |k: usize| {
                // Exclusive method: position k·(n+1)/4, clamped into the data.
                let pos = k as f64 * (n as f64 + 1.0) / 4.0;
                let j = (pos.floor() as usize).clamp(1, n - 1);
                let frac = pos - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * frac
            };
            (at(1), at(2), at(3))
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The `q`-quantile (nearest rank) of unsorted samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Metric name → samples. A metric's value is the median of its samples;
/// a metric that was never pushed does not apply to the workload.
#[derive(Default)]
pub struct Sheet {
    samples: BTreeMap<String, Vec<f64>>,
}

impl Sheet {
    pub fn push(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    pub fn extend(&mut self, name: &str, values: impl IntoIterator<Item = f64>) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .extend(values);
    }

    /// Replace whatever `name` held by the single value `value`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.samples.insert(name.to_string(), vec![value]);
    }

    /// Every metric with its samples, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[f64])> {
        self.samples.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.samples.get(name).map(|v| median(v))
    }

    /// `{value, unit, q1, q3, n}` — the run record's row for one metric.
    pub fn row(&self, name: &str, unit: &str) -> Json {
        let v = self.samples(name);
        let (q1, med, q3) = quartiles(v);
        Json::obj(vec![
            ("value", Json::Num(med)),
            ("unit", Json::str(unit)),
            ("q1", Json::Num(q1)),
            ("q3", Json::Num(q3)),
            ("n", Json::Num(v.len() as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
