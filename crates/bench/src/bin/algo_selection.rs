//! Online algorithm selection (§VII): which all-reduce wins at which
//! (message size, topology), and does the pick hold up when the
//! algorithms actually run on a real two-tier world?
//!
//! Written to `results/algo_selection.json`:
//!
//! - **Analytic sweeps** over 1 KB → 100 MB on paper-preset clusters
//!   ([`CostModel::ten_gbe`], [`CostModel::nvlink`] intra): the winning
//!   algorithm per size, the predicted cost, and every regime switch.
//!   The flat 10 GbE ring must switch at least twice (latency-optimal →
//!   tree → bandwidth-optimal ring), and rewiring the same cluster as a
//!   butterfly must move at least one boundary — that is the selector
//!   being topology-aware, not just size-aware.
//! - **Runtime confirmation** on a real 2-host × 2-rank tiered world
//!   (shm intra, TCP inter): per-tier α-β measured with the runtime's
//!   own probe, the selector built from those *measured* models, and all
//!   candidates raced for real at three sizes; we record whether the
//!   pick was the fastest (or within noise of it) and the EWMA
//!   correction left behind by feeding the measurements back.

use std::time::{Duration, Instant};

use dear_bench::write_json;
use dear_collectives::{
    double_tree_all_reduce_seg, hierarchical_all_reduce_seg, naive_all_reduce_seg,
    rhd_all_reduce_seg, ring_all_reduce_seg, ClusterShape, CostModel, Placement, ReduceOp,
    SegmentConfig, Topology, Transport,
};
use dear_core::{AlgoSelector, CollectiveChoice};
use dear_net::{probe_alpha_beta, tiered_loopback, TieredEndpoint};

const SWEEP: [u64; 9] = [
    1 << 10,
    4 << 10,
    16 << 10,
    64 << 10,
    256 << 10,
    1 << 20,
    4 << 20,
    25 << 20,
    100 << 20,
];

/// Sweeps the selector across `SWEEP`, recording picks and regime
/// switches.
fn sweep_scenario(name: &str, selector: &AlgoSelector) -> (serde_json::Value, usize) {
    let mut picks = Vec::new();
    let mut switches = Vec::new();
    let mut prev: Option<CollectiveChoice> = None;
    for &bytes in &SWEEP {
        let sel = selector.select(bytes);
        if let Some(p) = prev {
            if p != sel.choice {
                switches.push(serde_json::json!({
                    "at_bytes": bytes,
                    "from": p.label(),
                    "to": sel.choice.label(),
                }));
            }
        }
        prev = Some(sel.choice);
        picks.push(serde_json::json!({
            "bytes": bytes,
            "choice": sel.choice.label(),
            "predicted_us": sel.predicted.as_secs_f64() * 1e6,
            "segment_bytes": sel.segment_bytes,
        }));
    }
    let n_switches = switches.len();
    let value = serde_json::json!({
        "scenario": name,
        "picks": picks,
        "regime_switches": switches,
    });
    (value, n_switches)
}

/// Runs one candidate for real on the tiered world and returns the best
/// of `iters` wall times (minimum: noise only ever adds).
fn race(eps: &[TieredEndpoint], choice: CollectiveChoice, bytes: u64, iters: usize) -> Duration {
    let elems = (bytes as usize / 4).max(1);
    let seg = SegmentConfig::new(256 << 10);
    let placement = &Placement::from_shape(ClusterShape::new(2, 2));
    let one = || {
        let start = Instant::now();
        std::thread::scope(|s| {
            for ep in eps {
                s.spawn(move || {
                    let mut buf = vec![ep.rank() as f32; elems];
                    match choice {
                        CollectiveChoice::Ring => {
                            ring_all_reduce_seg(ep, &mut buf, ReduceOp::Sum, seg).unwrap();
                        }
                        CollectiveChoice::RecursiveHalvingDoubling => {
                            rhd_all_reduce_seg(ep, &mut buf, ReduceOp::Sum, seg).unwrap();
                        }
                        CollectiveChoice::DoubleBinaryTree => {
                            double_tree_all_reduce_seg(ep, &mut buf, ReduceOp::Sum, seg).unwrap();
                        }
                        CollectiveChoice::NaiveTree => {
                            naive_all_reduce_seg(ep, &mut buf, ReduceOp::Sum, seg).unwrap();
                        }
                        CollectiveChoice::Hierarchical => {
                            hierarchical_all_reduce_seg(
                                ep,
                                placement,
                                &mut buf,
                                ReduceOp::Sum,
                                seg,
                            )
                            .unwrap();
                        }
                    }
                });
            }
        });
        start.elapsed()
    };
    one(); // warmup
    (0..iters).map(|_| one()).min().unwrap()
}

fn main() {
    // --- analytic sweeps on paper presets ---
    let flat_16 = AlgoSelector::new(CostModel::ten_gbe(), None, Topology::Ring, 16, 1);
    let butterfly_16 = AlgoSelector::new(CostModel::ten_gbe(), None, Topology::Butterfly, 16, 1);
    let tree_16 = AlgoSelector::new(CostModel::ten_gbe(), None, Topology::Tree, 16, 1);
    let mesh_16 = AlgoSelector::new(CostModel::ten_gbe(), None, Topology::Mesh2D(4, 4), 16, 1);
    let hier_4x4 = AlgoSelector::new(
        CostModel::ten_gbe(),
        Some(CostModel::nvlink()),
        Topology::Ring,
        4,
        4,
    );
    let mut scenarios = Vec::new();
    let mut total_switches = 0;
    for (name, sel) in [
        ("ten_gbe_16x1_ring", &flat_16),
        ("ten_gbe_16x1_butterfly", &butterfly_16),
        ("ten_gbe_16x1_tree", &tree_16),
        ("ten_gbe_16x1_mesh4x4", &mesh_16),
        ("ten_gbe_4x4_nvlink_ring", &hier_4x4),
    ] {
        let (value, switches) = sweep_scenario(name, sel);
        println!("{name}: {switches} regime switch(es)");
        scenarios.push(value);
        total_switches += switches;
    }
    // Topology awareness: the same cluster rewired must not pick
    // identically at every size.
    let topology_shifts_picks = SWEEP
        .iter()
        .any(|&b| flat_16.select(b).choice != butterfly_16.select(b).choice);

    // --- runtime confirmation on a real tiered 2×2 world ---
    let eps = tiered_loopback(2, 2).expect("tiered loopback");
    let probe_sizes = [1 << 10, 16 << 10, 256 << 10, 1 << 20];
    // Rank 0 probes rank 1 (same host, shm) then rank 2 (cross-host,
    // TCP); peers serve. Only rank pairs (0,1) and (0,2) participate per
    // probe, so run them back to back on the existing mesh.
    let (intra, inter) = std::thread::scope(|s| {
        let handles: Vec<_> = eps
            .iter()
            .map(|ep| {
                let sizes = &probe_sizes;
                s.spawn(move || match ep.rank() {
                    0 => {
                        let intra = probe_alpha_beta(ep, 1, sizes, 9).unwrap();
                        let inter = probe_alpha_beta(ep, 2, sizes, 9).unwrap();
                        Some((intra, inter))
                    }
                    1 => {
                        probe_alpha_beta(ep, 0, sizes, 9).unwrap();
                        None
                    }
                    2 => {
                        probe_alpha_beta(ep, 0, sizes, 9).unwrap();
                        None
                    }
                    _ => None,
                })
            })
            .collect();
        let mut out = None;
        for h in handles {
            if let Some(models) = h.join().unwrap() {
                out = Some(models);
            }
        }
        out.expect("rank 0 fitted both tiers")
    });
    println!(
        "measured intra: alpha={:.1}us beta={:.4}ns/B | inter: alpha={:.1}us beta={:.4}ns/B",
        intra.alpha_ns / 1e3,
        intra.beta_ns_per_byte,
        inter.alpha_ns / 1e3,
        inter.beta_ns_per_byte
    );
    let mut live = AlgoSelector::new(inter, Some(intra), Topology::Ring, 2, 2);
    let mut confirmations = Vec::new();
    for &bytes in &[16u64 << 10, 1 << 20, 8 << 20] {
        let sel = live.select(bytes);
        let mut measured = Vec::new();
        let mut fastest = (sel.choice, Duration::MAX);
        for cand in live.candidates() {
            let t = race(&eps, cand, bytes, 3);
            if t < fastest.1 {
                fastest = (cand, t);
            }
            measured.push((cand, t));
        }
        let picked_time = measured
            .iter()
            .find(|(c, _)| *c == sel.choice)
            .map(|(_, t)| *t)
            .unwrap();
        // Feed the measurement back: the EWMA correction is what keeps a
        // flattering model from winning forever.
        live.observe(sel.choice, bytes, picked_time);
        // "Confirmed" = the pick raced within 1.5× of the fastest
        // candidate (loopback timings are noisy; a pick that far off is a
        // model failure, anything closer is measurement jitter).
        let within = picked_time.as_secs_f64() <= fastest.1.as_secs_f64() * 1.5;
        println!(
            "{bytes:>9} B: picked {} ({:.3} ms), fastest {} ({:.3} ms), confirmed={within}",
            sel.choice.label(),
            picked_time.as_secs_f64() * 1e3,
            fastest.0.label(),
            fastest.1.as_secs_f64() * 1e3
        );
        confirmations.push(serde_json::json!({
            "bytes": bytes,
            "picked": sel.choice.label(),
            "predicted_us": sel.predicted.as_secs_f64() * 1e6,
            "picked_measured_us": picked_time.as_secs_f64() * 1e6,
            "fastest_measured": fastest.0.label(),
            "fastest_measured_us": fastest.1.as_secs_f64() * 1e6,
            "pick_confirmed_within_1p5x": within,
            "ewma_correction_after_observe": live.correction(sel.choice, bytes),
            "all_measured_us": measured
                .iter()
                .map(|(c, t)| serde_json::json!({
                    "choice": c.label(),
                    "us": t.as_secs_f64() * 1e6,
                }))
                .collect::<Vec<_>>(),
        }));
    }

    let artifact = serde_json::json!({
        "sweeps": scenarios,
        "total_regime_switches": total_switches,
        "topology_shifts_picks": topology_shifts_picks,
        // The vendored json! macro takes nested objects as plain exprs,
        // so inner maps are spelled as explicit json! calls.
        "runtime_confirmation": serde_json::json!({
            "world": "tiered 2 hosts x 2 ranks (shm intra, TCP loopback inter)",
            "measured_intra": serde_json::json!({
                "alpha_ns": intra.alpha_ns,
                "beta_ns_per_byte": intra.beta_ns_per_byte,
            }),
            "measured_inter": serde_json::json!({
                "alpha_ns": inter.alpha_ns,
                "beta_ns_per_byte": inter.beta_ns_per_byte,
            }),
            "races": confirmations,
        }),
    });
    assert!(
        total_switches >= 2,
        "selector must switch regimes at least twice across the sweeps"
    );
    let path = write_json("algo_selection", &artifact);
    println!("wrote {path}");
}
