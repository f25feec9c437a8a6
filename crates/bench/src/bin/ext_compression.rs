//! Extension (§VI-D future work): gradient compression break-even analysis
//! and a real measurement of compressed aggregation accuracy.
//!
//! The paper notes BERT-class models are communication-bound even under
//! DeAR and defers gradient compression to future work. This experiment
//! quantifies when the all-gather-based compressed aggregation beats the
//! dense ring all-reduce (wire volume per rank), and measures the top-k /
//! quantization accuracy loss on real data over the threaded cluster.

use dear_bench::{write_json, TableBuilder};
use dear_collectives::{
    compressed_aggregate, compressed_aggregate_wire_bytes, ring_all_reduce, run_cluster,
    Compressor, ErrorFeedback, ReduceOp, TopK, Transport, Uniform8,
};
use dear_models::Model;

fn main() {
    println!("Extension: gradient compression break-even and fidelity\n");
    let mut artifact = Vec::new();

    // Part 1: wire volume per rank, dense vs compressed, BERT-Large sizes.
    println!("wire bytes per rank, BERT-Large gradients (1344.8 MB dense):\n");
    let d = Model::BertLarge.profile().gradient_bytes();
    let mut table = TableBuilder::new(&[
        "workers",
        "dense ring (MB)",
        "top-1% (MB)",
        "top-0.1% (MB)",
        "8-bit quant (MB)",
    ]);
    for world in [4usize, 16, 64, 256] {
        let dense = 2.0 * d as f64 * (world - 1) as f64 / world as f64;
        let mb = |x: f64| x / (1 << 20) as f64;
        let topk1 = compressed_aggregate_wire_bytes(d, TopK::new(0.01).ratio(), world);
        let topk01 = compressed_aggregate_wire_bytes(d, TopK::new(0.001).ratio(), world);
        let quant = compressed_aggregate_wire_bytes(d, Uniform8::new(256).ratio(), world);
        table.row(vec![
            world.to_string(),
            format!("{:.0}", mb(dense)),
            format!("{:.0}", mb(topk1)),
            format!("{:.0}", mb(topk01)),
            format!("{:.0}", mb(quant)),
        ]);
        artifact.push(serde_json::json!({
            "workers": world,
            "dense_mb": mb(dense),
            "topk_1pct_mb": mb(topk1),
            "topk_01pct_mb": mb(topk01),
            "quant8_mb": mb(quant),
        }));
    }
    table.print();
    println!(
        "\nAll-gather-based sparse aggregation scales with P; it only beats the\n\
         ring all-reduce when density < ~1/P — the structural reason the paper\n\
         defers compression rather than bolting it onto the RS/AG split.\n"
    );

    // Part 2: fidelity of one compressed aggregation step on real data.
    println!("aggregation error vs exact mean (8 ranks, 100k elements):\n");
    let mut fidelity = TableBuilder::new(&["compressor", "ratio", "rel. L2 error"]);
    let world = 8;
    let elems = 100_000;
    let exact = run_cluster(world, |ep| {
        let mut data: Vec<f32> = (0..elems)
            .map(|i| ((ep.rank() * elems + i) as f32 * 0.001).sin())
            .collect();
        ring_all_reduce(&ep, &mut data, ReduceOp::Sum).unwrap();
        data.iter_mut().for_each(|x| *x /= world as f32);
        data
    })
    .remove(0);
    let run_one = |name: &str, ratio: f64, c: &(dyn Fn() -> Box<dyn CompressorObj> + Sync)| {
        let approx = run_cluster(world, |ep| {
            let mut data: Vec<f32> = (0..elems)
                .map(|i| ((ep.rank() * elems + i) as f32 * 0.001).sin())
                .collect();
            let mut ef = ErrorFeedback::new();
            c().aggregate(&ep, &mut data, &mut ef);
            data
        })
        .remove(0);
        let err_num: f64 = approx
            .iter()
            .zip(&exact)
            .map(|(a, b)| f64::from(a - b).powi(2))
            .sum();
        let err_den: f64 = exact.iter().map(|b| f64::from(*b).powi(2)).sum();
        (name.to_owned(), ratio, (err_num / err_den).sqrt())
    };

    trait CompressorObj {
        fn aggregate(
            &self,
            t: &dear_collectives::LocalEndpoint,
            data: &mut [f32],
            ef: &mut ErrorFeedback,
        );
    }
    struct TopKObj(TopK);
    impl CompressorObj for TopKObj {
        fn aggregate(
            &self,
            t: &dear_collectives::LocalEndpoint,
            data: &mut [f32],
            ef: &mut ErrorFeedback,
        ) {
            compressed_aggregate(t, data, &self.0, ef).unwrap();
        }
    }
    struct QuantObj(Uniform8);
    impl CompressorObj for QuantObj {
        fn aggregate(
            &self,
            t: &dear_collectives::LocalEndpoint,
            data: &mut [f32],
            ef: &mut ErrorFeedback,
        ) {
            compressed_aggregate(t, data, &self.0, ef).unwrap();
        }
    }

    for (name, ratio, mk) in [
        (
            "top-10%",
            TopK::new(0.1).ratio(),
            (&|| Box::new(TopKObj(TopK::new(0.1))) as Box<dyn CompressorObj>)
                as &(dyn Fn() -> Box<dyn CompressorObj> + Sync),
        ),
        ("top-1%", TopK::new(0.01).ratio(), &|| {
            Box::new(TopKObj(TopK::new(0.01)))
        }),
        ("8-bit quant", Uniform8::new(256).ratio(), &|| {
            Box::new(QuantObj(Uniform8::new(256)))
        }),
    ] {
        let (name, ratio, err) = run_one(name, ratio, mk);
        fidelity.row(vec![
            name.clone(),
            format!("{ratio:.3}"),
            format!("{err:.4}"),
        ]);
        artifact.push(serde_json::json!({
            "compressor": name, "ratio": ratio, "rel_l2_error": err,
        }));
    }
    fidelity.print();
    println!(
        "\n(top-k single-shot error is large by design; the dropped mass is\n\
         carried by error feedback across iterations — see the\n\
         compressed_training integration tests.)"
    );
    let path = write_json("ext_compression", &serde_json::json!(artifact));
    println!("wrote {path}");
}
