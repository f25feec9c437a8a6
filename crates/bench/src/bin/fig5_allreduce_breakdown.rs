//! Fig. 5: elapsed time of all-reduce vs. its decoupling (reduce-scatter,
//! all-gather, and RSAG = RS followed by AG) across message sizes.
//!
//! Two views are produced:
//! 1. the α-β cost model at the paper's scale (64 workers, 10GbE) — the
//!    quantitative reproduction, and
//! 2. real wall-clock timings of the threaded collectives on an in-process
//!    fabric — demonstrating the zero-overhead decoupling on real data.

use std::time::Instant;

use dear_bench::{write_json, TableBuilder};
use dear_collectives::{
    ring_all_gather, ring_all_reduce, ring_owned_chunk, ring_reduce_scatter, run_cluster,
    CostModel, ReduceOp, Transport,
};

fn model_view(artifact: &mut Vec<serde_json::Value>) {
    println!("(a/b) alpha-beta model, 64 workers, 10GbE\n");
    let net = CostModel::ten_gbe();
    let world = 64;
    let mut table = TableBuilder::new(&[
        "size",
        "AR (ms)",
        "RS (ms)",
        "AG (ms)",
        "RSAG (ms)",
        "RSAG/AR",
    ]);
    let sizes: Vec<u64> = vec![
        1 << 10,
        16 << 10,
        256 << 10,
        1 << 20,
        4 << 20,
        16 << 20,
        64 << 20,
        100 << 20,
    ];
    for &bytes in &sizes {
        let ar = net.ring_all_reduce(bytes, world).as_millis_f64();
        let rs = net.ring_reduce_scatter(bytes, world).as_millis_f64();
        let ag = net.ring_all_gather(bytes, world).as_millis_f64();
        let rsag = rs + ag;
        table.row(vec![
            human_size(bytes),
            format!("{ar:.2}"),
            format!("{rs:.2}"),
            format!("{ag:.2}"),
            format!("{rsag:.2}"),
            format!("{:.3}", rsag / ar),
        ]);
        artifact.push(serde_json::json!({
            "view": "model", "bytes": bytes,
            "ar_ms": ar, "rs_ms": rs, "ag_ms": ag, "rsag_ms": rsag,
        }));
    }
    table.print();
}

fn timed<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e3 / reps as f64
}

fn real_view(artifact: &mut Vec<serde_json::Value>) {
    println!("\n(real) threaded collectives, 8 in-process ranks, wall clock\n");
    let world = 8;
    let reps = 5;
    let mut table = TableBuilder::new(&["elements", "AR (ms)", "RSAG (ms)", "RSAG/AR"]);
    // Discarded warmup: the first collective in a fresh process pays
    // allocator/page-fault costs that would bias whichever side runs first.
    let _ = run_cluster(world, |ep| {
        let mut data = vec![1.0f32; 1_000_000];
        ring_all_reduce(&ep, &mut data, ReduceOp::Sum).unwrap();
    });
    let median3 = |f: &dyn Fn() -> f64| {
        let mut xs = [f(), f(), f()];
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        xs[1]
    };
    for &elems in &[1_000usize, 10_000, 100_000, 1_000_000] {
        let ar = median3(&|| {
            run_cluster(world, |ep| {
                let mut data = vec![1.0f32; elems];
                timed(reps, || {
                    ring_all_reduce(&ep, &mut data, ReduceOp::Sum).unwrap()
                })
            })[0]
        });
        let rsag = median3(&|| {
            run_cluster(world, |ep| {
                let mut data = vec![1.0f32; elems];
                timed(reps, || {
                    ring_reduce_scatter(&ep, &mut data, ReduceOp::Sum).unwrap();
                    ring_all_gather(&ep, &mut data, ring_owned_chunk(ep.rank(), world)).unwrap();
                })
            })[0]
        });
        table.row(vec![
            elems.to_string(),
            format!("{ar:.3}"),
            format!("{rsag:.3}"),
            format!("{:.3}", rsag / ar),
        ]);
        artifact.push(serde_json::json!({
            "view": "real", "elements": elems, "ar_ms": ar, "rsag_ms": rsag,
        }));
    }
    table.print();
    println!(
        "\nRS + AG tracks the fused all-reduce at every size: decoupling is free\n\
         (the paper's Fig. 5 observation)."
    );
}

fn human_size(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{}M", bytes >> 20)
    } else {
        format!("{}K", bytes >> 10)
    }
}

fn main() {
    println!("Fig. 5: all-reduce vs decoupled reduce-scatter + all-gather\n");
    let mut artifact = Vec::new();
    model_view(&mut artifact);
    real_view(&mut artifact);
    let path = write_json("fig5_allreduce_breakdown", &serde_json::json!(artifact));
    println!("wrote {path}");
}
