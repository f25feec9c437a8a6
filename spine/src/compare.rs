//! Set files and `spine compare`: the tool that decides, per workload and
//! end-to-end metric, whether set B is no worse than set A by more than
//! the benchmark's bound — and says *unresolved*, not *unchanged*, when a
//! set's own spread is wider than that bound.
//!
//! A set file is tab-separated text, one measured value per line:
//! `workload  seed  trace  metric  value  unit`; `#` starts a comment.
//! The pseudo-metrics `attempted` and `failed` carry each run's step
//! counts.

use std::fmt::Write as _;

use crate::spec::{self, MetricSpec};
use crate::stats::{median, quartiles, spread};

#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub metric: String,
    pub value: f64,
    pub unit: String,
}

impl Sample {
    pub fn to_line(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}",
            self.workload,
            self.seed,
            u8::from(self.traced),
            self.metric,
            self.value,
            self.unit
        )
    }
}

/// # Errors
///
/// Returns a message naming the first line that does not parse.
pub fn parse_set(text: &str) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        let bad = || format!("bad set line: {line}");
        if f.len() != 6 {
            return Err(bad());
        }
        out.push(Sample {
            workload: f[0].to_string(),
            seed: f[1].parse().map_err(|_| bad())?,
            traced: f[2] == "1",
            metric: f[3].to_string(),
            value: f[4].parse().map_err(|_| bad())?,
            unit: f[5].to_string(),
        });
    }
    Ok(out)
}

fn values(set: &[Sample], workload: &str, metric: &str, traced: bool) -> Vec<f64> {
    set.iter()
        .filter(|s| s.workload == workload && s.metric == metric && s.traced == traced)
        .map(|s| s.value)
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// A set's own quartile distance exceeds the bound (or it has a single
    /// run): the pair cannot be told apart at this bound.
    Unresolved,
    /// B's median is worse than A's by more than the bound.
    Breach,
}

/// `[q1, median, q3]` and the spread (quartile distance over median); a
/// single run stands for all three and has no spread to judge by.
fn summary(v: &[f64]) -> ([f64; 3], f64) {
    if v.len() >= 2 {
        (quartiles(v), spread(v))
    } else {
        ([v[0]; 3], f64::INFINITY)
    }
}

fn quartile_cell(v: &[f64]) -> String {
    let ([q1, _, q3], spread) = summary(v);
    format!("{q1:.4}..{q3:.4} ({:.1}%)", spread * 100.0)
}

/// Judges one end-to-end metric on one workload. Returns the verdict and
/// how much worse B's median is than A's, as a share of A's.
pub fn judge(spec: &MetricSpec, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let bound = spec.bound.expect("end-to-end metrics carry a bound");
    let (ma, mb) = (median(a), median(b));
    let worse = if spec.higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let verdict = if worse > bound {
        Verdict::Breach
    } else if summary(a).1.max(summary(b).1) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (verdict, worse)
}

/// Compares two sets. Returns the report and whether B passes: no breach
/// and no rise in the failed fraction on any workload.
pub fn compare(a: &[Sample], b: &[Sample]) -> (String, bool) {
    let mut report = String::new();
    let mut pass = true;
    let _ = writeln!(
        report,
        "{:<14} {:<18} {:>12} {:>26} {:>12} {:>26} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A q1..q3 (spread)",
        "B median",
        "B q1..q3 (spread)",
        "worse",
        "bound"
    );
    for w in &spec::WORKLOADS {
        for s in spec::end_to_end() {
            let (va, vb) = (
                values(a, w.name, &s.name, false),
                values(b, w.name, &s.name, false),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (verdict, worse) = judge(&s, &va, &vb);
            let word = match verdict {
                Verdict::Ok => "ok",
                Verdict::Unresolved => "unresolved (spread exceeds the bound)",
                Verdict::Breach => "BREACH",
            };
            pass &= verdict != Verdict::Breach;
            let _ = writeln!(
                report,
                "{:<14} {:<18} {:>12.5} {:>26} {:>12.5} {:>26} {:>+7.1}% {:>5.0}%  {word}",
                w.name,
                s.name,
                median(&va),
                quartile_cell(&va),
                median(&vb),
                quartile_cell(&vb),
                worse * 100.0,
                s.bound.unwrap_or(0.0) * 100.0
            );
        }
        let frac = |set: &[Sample]| {
            let sum = |m: &str| -> f64 {
                [false, true]
                    .iter()
                    .flat_map(|&t| values(set, w.name, m, t))
                    .sum()
            };
            let attempted = sum("attempted");
            (attempted > 0.0).then(|| sum("failed") / attempted)
        };
        if let (Some(fa), Some(fb)) = (frac(a), frac(b)) {
            let rose = fb > fa;
            pass &= !rose;
            let _ = writeln!(
                report,
                "{:<14} {:<18} {:>12.6} {:>26} {:>12.6} {:>26} {:>8} {:>6}  {}",
                w.name,
                "failed_frac",
                fa,
                "",
                fb,
                "",
                "",
                "any",
                if rose { "FAILED ROSE" } else { "ok" }
            );
        }
    }

    let _ = writeln!(report, "\nper-layer rows (reported, never gated):");
    for w in &spec::WORKLOADS {
        for s in spec::per_layer() {
            let (va, vb) = (
                values(a, w.name, &s.name, true),
                values(b, w.name, &s.name, true),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let note = if spec::EXACT_COUNTS.contains(&s.name.as_str()) {
                let first = va[0];
                if va.iter().chain(&vb).all(|&v| v == first) {
                    "exact"
                } else {
                    "DIFFERS (must repeat exactly)"
                }
            } else {
                ""
            };
            let _ = writeln!(
                report,
                "{:<14} {:<38} {:>14.5} {:>14.5} {:>+8.1}%  {note}",
                w.name,
                s.name,
                ma,
                mb,
                if ma == 0.0 {
                    0.0
                } else {
                    (mb - ma) / ma.abs() * 100.0
                }
            );
        }
    }
    (report, pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(workload: &str, metric: &str, vals: &[f64]) -> Vec<Sample> {
        vals.iter()
            .enumerate()
            .map(|(i, &value)| Sample {
                workload: workload.into(),
                seed: i as u64,
                traced: false,
                metric: metric.into(),
                value,
                unit: "x".into(),
            })
            .collect()
    }

    fn counts(workload: &str, attempted: f64, failed: f64) -> Vec<Sample> {
        let mut s = set(workload, "attempted", &[attempted]);
        s.extend(set(workload, "failed", &[failed]));
        s
    }

    #[test]
    fn set_lines_round_trip() {
        let s = Sample {
            workload: "tcp2_dear".into(),
            seed: 3,
            traced: true,
            metric: "link.sends_per_step".into(),
            value: 0.1 + 0.2,
            unit: "count".into(),
        };
        let text = format!("# spine set\n{}\n", s.to_line());
        assert_eq!(parse_set(&text).unwrap(), vec![s]);
        assert!(parse_set("tcp2_dear\t1\t0\tx\n").is_err());
    }

    #[test]
    fn within_bound_breach_and_unresolved() {
        let thr = &spec::end_to_end()[0]; // samples_per_s, higher is better
        assert!(thr.higher_is_better);
        let bound = thr.bound.unwrap();
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 2 % slower: within the bound.
        let b: Vec<f64> = a.iter().map(|v| v * 0.98).collect();
        assert_eq!(judge(thr, &a, &b).0, Verdict::Ok);
        // Faster is never a breach.
        let b: Vec<f64> = a.iter().map(|v| v * 1.5).collect();
        assert_eq!(judge(thr, &a, &b).0, Verdict::Ok);
        // Slower by more than the bound.
        let b: Vec<f64> = a.iter().map(|v| v * (1.0 - bound - 0.05)).collect();
        let (verdict, worse) = judge(thr, &a, &b);
        assert_eq!(verdict, Verdict::Breach);
        assert!((worse - (bound + 0.05)).abs() < 1e-9);
        // Same median, but B's own spread is wider than the bound.
        let b = [60.0, 80.0, 100.0, 120.0, 140.0];
        assert_eq!(judge(thr, &a, &b).0, Verdict::Unresolved);
        // A single run has no spread to judge by.
        assert_eq!(judge(thr, &a, &[100.0]).0, Verdict::Unresolved);
        // Lower-is-better metrics breach upwards.
        let p50 = &spec::end_to_end()[1];
        assert!(!p50.higher_is_better);
        let b: Vec<f64> = a.iter().map(|v| v * 1.5).collect();
        assert_eq!(judge(p50, &a, &b).0, Verdict::Breach);
    }

    #[test]
    fn compare_fails_on_a_breach_or_a_rise_in_failures() {
        let w = spec::WORKLOADS[0].name;
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let mut sa = set(w, "samples_per_s", &a);
        sa.extend(counts(w, 1000.0, 0.0));
        let mut sb = sa.clone();
        let (report, pass) = compare(&sa, &sb);
        assert!(pass, "{report}");
        assert!(report.contains("failed_frac"));
        sb.extend(counts(w, 1000.0, 3.0));
        let (report, pass) = compare(&sa, &sb);
        assert!(!pass && report.contains("FAILED ROSE"), "{report}");
        let mut sb = set(w, "samples_per_s", &[50.0, 51.0, 49.0]);
        sb.extend(counts(w, 1000.0, 0.0));
        let (report, pass) = compare(&sa, &sb);
        assert!(!pass && report.contains("BREACH"), "{report}");
    }

    #[test]
    fn exact_counts_are_flagged_when_they_differ() {
        let w = spec::WORKLOADS[0].name;
        let traced = |vals: &[f64]| -> Vec<Sample> {
            set(w, "link.sends_per_step", vals)
                .into_iter()
                .map(|mut s| {
                    s.traced = true;
                    s
                })
                .collect()
        };
        let (report, pass) = compare(&traced(&[14.0, 14.0]), &traced(&[14.0]));
        assert!(pass && report.contains("exact"), "{report}");
        let (report, _) = compare(&traced(&[14.0]), &traced(&[15.0]));
        assert!(report.contains("DIFFERS"), "{report}");
    }
}
