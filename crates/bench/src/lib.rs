//! # dear-bench — the experiment harness
//!
//! One binary, `repro`, regenerates the paper's evaluation (§VI):
//! `repro <name>...` runs the named figures, prints their rows and writes
//! each artifact to `results/<name>.json` so EXPERIMENTS.md can cite exact
//! numbers; `repro` alone lists the names. Each figure is one function in
//! [`figures`] returning a [`Figure`] whose rows are built once, as the
//! JSON artifact; [`render`] prints any artifact as tables.
//!
//! | Name | Paper artifact |
//! |---|---|
//! | `table1_models` | Table I — model statistics |
//! | `fig3_bo_example` | Fig. 3 — BO posterior on DenseNet-201 buffer size |
//! | `fig5_allreduce_breakdown` | Fig. 5 — AR vs RS/AG/RSAG latency |
//! | `fig6_no_fusion` | Fig. 6 — speedups w/o tensor fusion |
//! | `fig7_with_fusion` | Fig. 7 — speedups w/ tensor fusion |
//! | `table2_max_speedup` | Table II — real vs theoretical max speedup |
//! | `fig8_breakdown` | Fig. 8 — iteration time breakdowns |
//! | `fig9_fusion_strategies` | Fig. 9 — tensor-fusion strategy comparison |
//! | `fig10_search_cost` | Fig. 10 — tuning cost of BO/random/grid |
//! | `fig11_batch_size` | Fig. 11 — batch-size sweep |
//! | `eq9_analysis` | Eq. 9 — analytical DeAR-vs-baseline gap |
//! | `ablation_collectives` | §VII-A — DeAR over other all-reduce families |
//! | `ext_compression` | §VI-D — gradient-compression break-even |
//! | `ext_zero_comparison` | §VII-B — DeAR vs ZeRO-style sharding |
//! | `trace_export` | Chrome-trace JSON behind Figs. 1–2 (`results/trace_*.json`) |
//!
//! Wall-clock measurement of the runtime itself — DeAR vs WFBP over an
//! emulated link, per-fabric throughput, kernel and framing rates — is the
//! `spine/` package's job (`delay2_dear` / `delay2_wfbp`,
//! `runtime.dear_over_wfbp`, `collectives.simd.*`, `net.frame.*`), not a
//! figure here.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use serde_json::{Number, Value};

pub mod figures;

/// One regenerated table or figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// The rows, exactly as written to `results/<name>.json`.
    pub artifact: Value,
    /// What the figure shows and the shape the paper expects of it.
    pub note: &'static str,
}

/// Renders an artifact as plain text. A list of row objects becomes
/// aligned tables, one column per field (text fields first), a new table
/// wherever the rows' fields change; an object prints its scalar fields as
/// `key: value` and each of its row lists as tables.
#[must_use]
pub fn render(artifact: &Value) -> String {
    let mut out = String::new();
    match artifact {
        Value::Object(fields) => {
            for (key, value) in fields {
                if !is_rows(value) {
                    let _ = writeln!(out, "{key}: {}", cell(value));
                }
            }
            for (key, value) in fields {
                if let Value::Array(rows) = value {
                    if is_rows(value) {
                        let _ = writeln!(out, "\n{key}:");
                        tables(&mut out, rows);
                    }
                }
            }
        }
        Value::Array(rows) if is_rows(artifact) => tables(&mut out, rows),
        other => out.push_str(&cell(other)),
    }
    out
}

/// Whether `value` is a non-empty list of objects.
fn is_rows(value: &Value) -> bool {
    matches!(value, Value::Array(rows)
        if !rows.is_empty() && rows.iter().all(|r| matches!(r, Value::Object(_))))
}

fn fields(row: &Value) -> &BTreeMap<String, Value> {
    match row {
        Value::Object(fields) => fields,
        _ => unreachable!("checked by is_rows"),
    }
}

/// One table per run of rows with the same fields, a blank line between.
fn tables(out: &mut String, rows: &[Value]) {
    let same = |a: &Value, b: &Value| fields(a).keys().eq(fields(b).keys());
    for (i, run) in rows.chunk_by(same).enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let first = fields(&run[0]);
        let mut header: Vec<&String> = first.keys().collect();
        header.sort_by_key(|k| !matches!(first[*k], Value::String(_)));
        let mut lines = vec![header.iter().map(|k| (*k).clone()).collect::<Vec<_>>()];
        lines.extend(
            run.iter()
                .map(|row| header.iter().map(|k| cell(&fields(row)[*k])).collect()),
        );
        let widths: Vec<usize> = (0..header.len())
            .map(|c| {
                lines
                    .iter()
                    .map(|l| l[c].chars().count())
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let rule = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        for (n, line) in lines.iter().enumerate() {
            let padded: Vec<String> = line
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            let _ = writeln!(out, "{}", padded.join("  ").trim_end());
            if n == 0 {
                let _ = writeln!(out, "{}", "-".repeat(rule));
            }
        }
    }
}

/// A value as one table cell: text as is, floats to four significant
/// digits (at most six decimals), anything else as compact JSON.
fn cell(value: &Value) -> String {
    match value {
        Value::String(s) => s.clone(),
        Value::Number(Number::Float(x)) if x.is_finite() && *x != 0.0 => {
            let decimals = (3 - x.abs().log10().floor() as i32).clamp(0, 6) as usize;
            format!("{x:.decimals$}")
        }
        other => serde_json::to_string(other).expect("serialize"),
    }
}

/// Writes a JSON artifact under `results/`, creating the directory if
/// needed. Returns the path written.
///
/// # Panics
///
/// Panics on I/O errors (experiment binaries want loud failures).
pub fn write_json(name: &str, value: &serde_json::Value) -> String {
    let dir = Path::new("results");
    fs::create_dir_all(dir).expect("cannot create results/");
    let path = dir.join(format!("{name}.json"));
    fs::write(
        &path,
        serde_json::to_string_pretty(value).expect("serialize"),
    )
    .expect("cannot write artifact");
    path.display().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn two_row_shapes_in_one_list_render_as_two_aligned_tables() {
        let rows = Value::from(vec![
            json!({ "model": "ResNet-50", "speedup": 1.2346 }),
            json!({ "model": "B", "speedup": 45.6 }),
            json!({ "compressor": "top-1%", "error": 0.000_123_4, "workers": 4u64 }),
        ]);
        let text = render(&rows);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                "model      speedup",
                "------------------",
                "ResNet-50  1.235",
                "B          45.60",
                "",
                "compressor  error     workers",
                "-----------------------------",
                "top-1%      0.000123  4",
            ]
        );
    }

    #[test]
    fn an_object_prints_its_scalars_then_its_row_lists() {
        let artifact = json!({
            "best_buffer_mb": 15.24,
            "samples": Value::from(vec![json!({ "buffer_mb": 5u64, "throughput": 8072.66 })]),
        });
        assert_eq!(
            render(&artifact),
            "best_buffer_mb: 15.24\n\
             \n\
             samples:\n\
             buffer_mb  throughput\n\
             ---------------------\n\
             5          8073\n"
        );
    }
}
