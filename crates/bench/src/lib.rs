//! # dear-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (§VI). Each
//! binary prints the regenerated rows/series to stdout and writes a JSON
//! artifact under `results/` so EXPERIMENTS.md can cite exact numbers.
//!
//! | Binary | Paper artifact |
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
//!
//! Wall-clock measurement of the runtime itself — DeAR vs WFBP over an
//! emulated link, per-fabric throughput, kernel and framing rates — is the
//! `spine/` package's job (`delay2_dear` / `delay2_wfbp`,
//! `runtime.dear_over_wfbp`, `collectives.simd.*`, `net.frame.*`), not a
//! binary here.

pub mod table;

pub use table::{write_json, TableBuilder};
