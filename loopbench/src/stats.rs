//! Percentiles that carry their sample count.

/// Nearest-rank percentiles of one sample set, with its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentiles {
    pub n: usize,
    pub p50: f64,
    pub p75: f64,
    pub p90: f64,
    pub p99: f64,
}

impl Percentiles {
    pub fn of(samples: &[f64]) -> Percentiles {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Percentiles {
            n: sorted.len(),
            p50: quantile_sorted(&sorted, 0.50),
            p75: quantile_sorted(&sorted, 0.75),
            p90: quantile_sorted(&sorted, 0.90),
            p99: quantile_sorted(&sorted, 0.99),
        }
    }
}

/// Nearest-rank quantile of an ascending slice; 0 for an empty one.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    Percentiles::of(samples).p50
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_report_their_sample_count() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let p = Percentiles::of(&samples);
        assert_eq!(p.n, 1000);
        assert_eq!((p.p50, p.p75, p.p99), (500.0, 750.0, 990.0));
        let empty = Percentiles::of(&[]);
        assert_eq!((empty.n, empty.p50), (0, 0.0));
    }
}
