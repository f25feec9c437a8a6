//! Every deterministic figure regenerates its committed artifact byte for
//! byte: a stale `results/<name>.json` fails here. (`fig5_allreduce_breakdown`,
//! `fig10_search_cost` and `ext_zero_comparison` time real runs; they are
//! not compared.)

use dear_bench::{figures, Figure};

fn assert_current(name: &str, figure: fn() -> Figure) {
    let path = format!("{}/../../results/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(&path).expect("committed artifact");
    let regenerated = serde_json::to_string_pretty(&figure().artifact).expect("serialize");
    assert!(
        regenerated == committed,
        "{path} is stale: rerun `cargo run --release -p dear-bench --bin repro -- {name}`"
    );
}

macro_rules! current {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            assert_current(stringify!($name), figures::$name);
        }
    )*};
}

current!(
    table1_models,
    fig3_bo_example,
    fig6_no_fusion,
    fig7_with_fusion,
    table2_max_speedup,
    fig8_breakdown,
    fig9_fusion_strategies,
    fig11_batch_size,
    eq9_analysis,
    ablation_collectives,
    ext_compression,
);
