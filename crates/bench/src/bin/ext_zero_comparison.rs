//! §VII-B comparison: DeAR vs ZeRO-style sharding, in three layers.
//!
//! 1. **Volume argument (simulated)** — the paper's claim: *parameter*
//!    sharding pays two all-gathers plus one reduce-scatter (1.5× the
//!    all-reduce volume) versus DeAR's exactly one all-reduce worth.
//! 2. **Model forecast per `--strategy`** — what this repo actually
//!    ships: *optimizer-state* sharding riding the decoupled pipeline's
//!    own RS/AG (every strategy under DeAR; `zero2` also shards the
//!    stash), which the cost model predicts costs **zero** extra step
//!    time at ~1/world of the optimizer bytes per rank.
//! 3. **Runtime confirmation** — real 4-rank TCP loopback runs per
//!    strategy: measured step times, measured resident optimizer bytes,
//!    and bit-identical final parameters across strategies.
//!
//! All three land in `results/ext_zero_comparison.json` so the predicted
//! and measured numbers sit side by side in one artifact.

use std::time::Instant;

use dear_bench::{write_json, TableBuilder};
use dear_collectives::{CollectiveError, CostModel, Transport};
use dear_core::{forecast_strategy, run_worker, ParallelismStrategy, TrainConfig};
use dear_minidnn::{BlobDataset, Linear, Relu, Sequential};
use dear_models::Model;
use dear_net::tcp_loopback;
use dear_sched::{ClusterConfig, DearScheduler, Scheduler, ZeroScheduler};
use rand::rngs::StdRng;
use rand::SeedableRng;

const WORLD: usize = 4;
const STEPS: u64 = 40;
const WARMUP: u64 = 10;

fn bench_net(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    Sequential::new()
        .push(Linear::new(6, 64, &mut rng))
        .push(Relu::new())
        .push(Linear::new(64, 64, &mut rng))
        .push(Relu::new())
        .push(Linear::new(64, 3, &mut rng))
}

/// One real TCP-loopback training run under `strategy`: every rank's
/// (mean steady-state step ms, resident optimizer bytes, final params).
fn measure(strategy: &ParallelismStrategy) -> Vec<(f64, usize, Vec<f32>)> {
    let endpoints = tcp_loopback(WORLD).expect("loopback rendezvous");
    let config = TrainConfig {
        lr: 0.05,
        momentum: 0.9,
        fusion_buffer: Some(2048),
        strategy: *strategy,
        ..TrainConfig::default()
    };
    let data = BlobDataset::new(6, 3, 0.4, 99);
    std::thread::scope(|s| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|ep| {
                let data = &data;
                let config = config.clone();
                s.spawn(move || {
                    let rank = ep.rank();
                    run_worker(ep, config, move |handle| {
                        let mut net = bench_net(7);
                        let mut optim = handle.into_optim(&net);
                        let mut t0 = Instant::now();
                        let mut measured = 0.0f64;
                        for step in 0..STEPS {
                            if step == WARMUP {
                                t0 = Instant::now();
                            }
                            let (x, labels) = data.shard(step, 8 * WORLD, rank, WORLD);
                            optim.train_step(&mut net, &x, &labels)?;
                            if step + 1 == STEPS {
                                measured =
                                    t0.elapsed().as_secs_f64() * 1e3 / (STEPS - WARMUP) as f64;
                            }
                        }
                        optim.synchronize(&mut net)?;
                        let bytes = optim.optim_state_bytes()?;
                        Ok::<_, CollectiveError>((measured, bytes, net.flat_params()))
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let rank = h.join().expect("bench rank panicked");
                rank.expect("collective failed during the measured run")
            })
            .collect()
    })
}

fn main() {
    println!("Extension: DeAR vs ZeRO — volume argument, model forecast, runtime\n");
    let mut artifact = Vec::new();

    // -- 1: the paper's §VII-B volume argument (parameter sharding). --
    for cluster in [ClusterConfig::paper_10gbe(), ClusterConfig::paper_100gbib()] {
        println!("== {} (simulated, parameter sharding) ==", cluster.label);
        let mut table = TableBuilder::new(&[
            "Model",
            "DeAR iter (ms)",
            "ZeRO iter (ms)",
            "DeAR comm (ms)",
            "ZeRO comm (ms)",
            "volume ratio",
            "DeAR gain",
        ]);
        for m in Model::ALL {
            let model = m.profile();
            let dear = DearScheduler::with_buffer("DeAR", 25 << 20).simulate(&model, &cluster);
            let zero = ZeroScheduler::default().simulate(&model, &cluster);
            let ratio = zero.total_comm.as_secs_f64() / dear.total_comm.as_secs_f64();
            table.row(vec![
                model.name.clone(),
                format!("{:.1}", dear.iter_time.as_millis_f64()),
                format!("{:.1}", zero.iter_time.as_millis_f64()),
                format!("{:.1}", dear.total_comm.as_millis_f64()),
                format!("{:.1}", zero.total_comm.as_millis_f64()),
                format!("{ratio:.2}x"),
                format!(
                    "{:+.1}%",
                    100.0 * (zero.iter_time.as_secs_f64() / dear.iter_time.as_secs_f64() - 1.0)
                ),
            ]);
            artifact.push(serde_json::json!({
                "section": "sim_vii_b",
                "cluster": cluster.label,
                "model": model.name,
                "dear_iter_ms": dear.iter_time.as_millis_f64(),
                "zero_iter_ms": zero.iter_time.as_millis_f64(),
                "volume_ratio": ratio,
            }));
        }
        table.print();
        println!();
    }

    // -- 2: model forecast for this repo's optimizer-state sharding. --
    let strategies = [ParallelismStrategy::Ddp, ParallelismStrategy::Zero2];
    let net_elements = bench_net(7).flat_params().len();
    println!(
        "== model forecast: --strategy on the decoupled pipeline \
         ({WORLD} ranks, n = {net_elements}) =="
    );
    let mut table = TableBuilder::new(&[
        "strategy",
        "model step (us)",
        "optim state (B/rank)",
        "stash (B/rank)",
    ]);
    let model = CostModel::ten_gbe();
    let mut forecasts = Vec::new();
    for strategy in &strategies {
        // One f32 state vector (SGD momentum), 0.5 ns/element update.
        let f = forecast_strategy(strategy, &model, WORLD, net_elements, 1, 0.5);
        table.row(vec![
            strategy.to_string(),
            format!("{:.1}", f.step_time.as_micros_f64()),
            format!("{}", f.optim_state_bytes),
            format!("{}", f.stash_bytes),
        ]);
        forecasts.push(f);
    }
    table.print();
    println!("(identical step forecasts are the point: sharding rides the\n existing RS/AG, so it is predicted to cost zero step time)\n");

    // -- 3: runtime confirmation over real TCP loopback. --
    println!("== runtime: {WORLD}-rank TCP loopback, {STEPS} steps ==");
    let mut table = TableBuilder::new(&[
        "strategy",
        "measured step (ms)",
        "optim state (B/rank, max)",
        "params vs ddp",
    ]);
    let mut reference: Option<Vec<f32>> = None;
    for (strategy, forecast) in strategies.iter().zip(&forecasts) {
        let ranks = measure(strategy);
        let step_ms = ranks.iter().map(|r| r.0).sum::<f64>() / ranks.len() as f64;
        let max_bytes = ranks.iter().map(|r| r.1).max().unwrap();
        let params = ranks[0].2.clone();
        for (r, rank) in ranks.iter().enumerate() {
            assert_eq!(rank.2, params, "rank {r} diverged under {strategy}");
        }
        let parity = match &reference {
            None => {
                reference = Some(params.clone());
                "reference".to_string()
            }
            Some(ddp) => {
                assert_eq!(
                    ddp, &params,
                    "{strategy} must be bit-identical to ddp on the f32 wire"
                );
                "bit-identical".to_string()
            }
        };
        table.row(vec![
            strategy.to_string(),
            format!("{step_ms:.2}"),
            format!("{max_bytes}"),
            parity.clone(),
        ]);
        artifact.push(serde_json::json!({
            "section": "strategy_runtime",
            "strategy": strategy.to_string(),
            "world": WORLD,
            "net_elements": net_elements,
            "des_step_us": forecast.step_time.as_micros_f64(),
            "des_optim_state_bytes": forecast.optim_state_bytes,
            "des_stash_bytes": forecast.stash_bytes,
            "measured_step_ms": step_ms,
            "measured_optim_state_bytes_max": max_bytes,
            "params_vs_ddp": parity,
        }));
    }
    table.print();
    println!();
    println!(
        "§VII-B's trade, completed: *parameter* sharding (ZeRO-3 style) pays\n\
         ~1.5x DeAR's volume, while the *optimizer-state* sharding shipped\n\
         here reuses OP1's reduce-scatter and OP2's all-gather verbatim —\n\
         the model predicts zero step-time cost at ~1/world of the optimizer\n\
         bytes (every strategy under DeAR; zero2 also shards the stash), and\n\
         the loopback runtime confirms both, with final parameters\n\
         bit-identical across strategies."
    );
    let path = write_json("ext_zero_comparison", &serde_json::json!(artifact));
    println!("wrote {path}");
}
