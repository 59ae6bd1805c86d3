//! Order statistics, the simulated-result digest and the JSON writer.

use std::fmt::Write as _;

/// Nearest-rank quantile summary of a sample of host timings.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantiles {
    pub n: usize,
    pub q1: f64,
    pub p50: f64,
    pub q3: f64,
    pub p90: f64,
    /// Samples strictly above the p90 rank (the tail the p90 rests on).
    pub beyond_p90: usize,
}

/// The value at nearest rank `ceil(q·n)` (1-based) of an ascending
/// sample, and how many samples lie above that rank.
fn rank(sorted: &[f64], q: f64) -> (f64, usize) {
    let n = sorted.len();
    let r = ((q * n as f64).ceil() as usize).clamp(1, n);
    (sorted[r - 1], n - r)
}

impl Quantiles {
    /// Summarize `samples`; `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Quantiles> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let (p90, beyond_p90) = rank(&s, 0.90);
        Some(Quantiles {
            n: s.len(),
            q1: rank(&s, 0.25).0,
            p50: rank(&s, 0.50).0,
            q3: rank(&s, 0.75).0,
            p90,
            beyond_p90,
        })
    }
}

/// Median of a small sample (setup repetitions and the like).
pub fn median(samples: &[f64]) -> f64 {
    Quantiles::of(samples).map_or(0.0, |q| q.p50)
}

/// FNV-1a over 64-bit words: the fingerprint of every simulated round
/// trip / completion time a workload produced.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn add(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// A JSON value, just rich enough for the benchmark's output lines.
pub enum Json {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            // `{:?}` prints the shortest string that round-trips, so
            // every digit measured reaches the reader.
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x:?}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_reports_its_sample_count_and_tail() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let q = Quantiles::of(&samples).unwrap();
        assert_eq!(q.n, 200);
        assert_eq!(q.p50, 100.0);
        assert_eq!(q.p90, 180.0);
        assert_eq!(q.beyond_p90, 20, "p90 of 200 rests on 20 larger samples");
        assert_eq!((q.q1, q.q3), (50.0, 150.0));
    }

    #[test]
    fn small_samples_expose_a_thin_tail() {
        let q = Quantiles::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(q.n, 3);
        assert_eq!(q.p50, 2.0);
        assert_eq!(q.beyond_p90, 0);
        assert!(Quantiles::of(&[]).is_none());
    }

    #[test]
    fn digest_is_order_sensitive() {
        let (mut a, mut b) = (Fnv::default(), Fnv::default());
        a.add(1);
        a.add(2);
        b.add(2);
        b.add(1);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn json_keeps_all_digits() {
        let j = Json::obj(vec![
            ("x", Json::Num(0.1 + 0.2)),
            ("s", Json::Str("a\"b".into())),
            ("n", Json::Int(7)),
        ]);
        assert_eq!(
            j.render(),
            r#"{"x": 0.30000000000000004, "s": "a\"b", "n": 7}"#
        );
    }
}
