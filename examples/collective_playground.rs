//! Collective-communication playground: runs every all-reduce algorithm in
//! the crate on real data over an in-process cluster, checks they agree,
//! and prints the α-β cost model's predictions for the paper's networks —
//! including the zero-overhead decoupling identity the whole system rests
//! on (cost(RS) + cost(AG) = cost(AR) for rings, Eqs. 3–5).
//!
//! Run with: `cargo run --release --example collective_playground`

use dear::collectives::{
    double_tree_all_reduce, hierarchical_all_reduce, naive_all_reduce, rhd_all_reduce,
    ring_all_reduce_on_wire, run_cluster, ClusterShape, CollectiveError, CostModel, DType,
    LocalEndpoint, ReduceOp, Transport,
};

/// One all-reduce family's entry point; all four share it.
type AllReduce = fn(&LocalEndpoint, &mut [f32], ReduceOp, DType) -> Result<(), CollectiveError>;

fn main() {
    let world = 8;
    let elems = 10_000;

    println!("== real execution: {world} ranks, {elems} elements per rank ==\n");
    let families: [(&str, AllReduce); 4] = [
        ("ring", ring_all_reduce_on_wire),
        ("rhd", rhd_all_reduce),
        ("double_binary_tree", double_tree_all_reduce),
        ("naive", naive_all_reduce),
    ];
    let mut outputs = Vec::new();
    for (family, all_reduce) in families {
        let results = run_cluster(world, |ep| {
            let mut data: Vec<f32> = (0..elems)
                .map(|i| ((ep.rank() + 1) * (i % 17 + 1)) as f32)
                .collect();
            all_reduce(&ep, &mut data, ReduceOp::Sum, DType::F32).unwrap();
            data
        });
        println!(
            "{family}: rank agreement {}",
            results.windows(2).all(|w| w[0] == w[1])
        );
        outputs.push(results[0].clone());
    }
    let reference = &outputs[0];
    for ((family, _), out) in families.iter().zip(&outputs) {
        let max_diff = out
            .iter()
            .zip(reference)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        println!("{family} vs ring: max |diff| = {max_diff}");
    }

    println!("\n== hierarchical (2 nodes x 4 GPUs) ==");
    let shape = ClusterShape::new(2, 4);
    let results = run_cluster(shape.world(), |ep| {
        let mut data = vec![ep.rank() as f32; 64];
        hierarchical_all_reduce(&ep, shape, &mut data, ReduceOp::Sum).unwrap();
        data[0]
    });
    println!("sum of ranks 0..8 = {} (expected 28)", results[0]);

    println!("\n== cost model: the decoupling identity (64 workers) ==\n");
    for (name, net) in [
        ("10GbE", CostModel::ten_gbe()),
        ("100GbIB", CostModel::hundred_gb_ib()),
    ] {
        println!("{name}:");
        println!(
            "{:>8} {:>10} {:>10} {:>10} {:>10} {:>9}",
            "size", "AR (ms)", "RS (ms)", "AG (ms)", "RS+AG", "overhead"
        );
        for mb in [1u64, 10, 100] {
            let bytes = mb << 20;
            let ar = net.ring_all_reduce(bytes, 64).as_millis_f64();
            let rs = net.ring_reduce_scatter(bytes, 64).as_millis_f64();
            let ag = net.ring_all_gather(bytes, 64).as_millis_f64();
            println!(
                "{:>7}M {ar:>10.2} {rs:>10.2} {ag:>10.2} {:>10.2} {:>8.2}%",
                mb,
                rs + ag,
                100.0 * ((rs + ag) / ar - 1.0)
            );
        }
        println!();
    }
    println!("decoupling an all-reduce into RS + AG costs exactly nothing — the");
    println!("property DeAR's fine-grained pipelining is built on.");
}
