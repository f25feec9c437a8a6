//! What the benchmark measures: the workloads, the two models, the metric
//! tables with their units and bounds, and the `BENCHMARK.json` text
//! generated from them (a test keeps the committed file equal to it).

use dear_collectives::CostModel;
use dear_core::{PipelineMode, TrainConfig};
use dear_minidnn::{BlobDataset, Linear, Relu, Sequential, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Input features / classes of the synthetic task both models train on.
pub const FEATURES: usize = 32;
pub const CLASSES: usize = 8;
/// Warm-up steps before every timed window: fills the buffer pools, runs
/// the layout handshake and puts DeAR's OP2 pipeline in its steady state.
pub const WARMUP_STEPS: u64 = 3;
/// Timed steps of the pilot repeat. Fixed, so its `params_hash` and
/// `final_loss` are comparable between commits whatever the machine speed.
pub const PILOT_STEPS: u64 = 20;
/// Timed repeats (fresh world each) after the pilot.
pub const TIMED_REPEATS: usize = 8;
/// Rows of the held-out batch every rank evaluates after `synchronize`.
pub const EVAL_ROWS: usize = 64;
/// Index of the held-out batch; far from any training step.
pub const EVAL_INDEX: u64 = 1_000_000;

/// The α-β of the emulated network of `delay2_*`: 50 µs per message and
/// 8 ns/B (1 Gb/s). Chosen so that `mlp_deep`'s 2.1 MB of gradients cost
/// about as much as its compute at batch 32 (README, "delay2").
pub fn delay_model() -> CostModel {
    CostModel::new(50_000.0, 8.0, 0.0)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// 32→512, 6×(512→512+ReLU), 512→8: 1.60 M parameters, 6.4 MB.
    Wide,
    /// 32→256, 8×(256→256+ReLU), 256→8: 0.53 M parameters, 2.1 MB.
    Deep,
}

impl Model {
    pub fn name(self) -> &'static str {
        match self {
            Model::Wide => "mlp_wide",
            Model::Deep => "mlp_deep",
        }
    }

    fn dims(self) -> (usize, usize) {
        match self {
            Model::Wide => (512, 6),
            Model::Deep => (256, 8),
        }
    }

    /// Fusion buffer: about a sixth of the gradient bytes, so several
    /// groups pipeline per step.
    pub fn fusion_buffer(self) -> u64 {
        match self {
            Model::Wide => 1 << 20,
            Model::Deep => 256 << 10,
        }
    }

    pub fn build(self, init_seed: u64) -> Sequential {
        let (width, hidden) = self.dims();
        let mut rng = StdRng::seed_from_u64(init_seed);
        let mut net = Sequential::new().push(Linear::new(FEATURES, width, &mut rng));
        for _ in 0..hidden {
            net = net
                .push(Relu::new())
                .push(Linear::new(width, width, &mut rng));
        }
        net.push(Relu::new())
            .push(Linear::new(width, CLASSES, &mut rng))
    }
}

/// How a host process gives its rank threads a transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// `TcpEndpoint` per rank; with two or more ranks per host the
    /// co-located ones talk over a `ShmFabric` (`TieredEndpoint`).
    Net,
    /// `DelayFabric(LocalFabric, delay_model())`, one host process.
    Delay,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub hosts: usize,
    pub ranks_per_host: usize,
    pub fabric: Fabric,
    pub model: Model,
    /// Samples per rank per step.
    pub batch: usize,
    pub mode: PipelineMode,
}

impl Workload {
    pub fn world(&self) -> usize {
        self.hosts * self.ranks_per_host
    }

    /// Fabric name of the link/collective ladder rows this workload's
    /// slowest hop corresponds to.
    pub fn link(&self) -> &'static str {
        match (self.fabric, self.hosts) {
            (Fabric::Delay, _) => "local",
            (Fabric::Net, 1) => "shm",
            (Fabric::Net, _) => "tcp",
        }
    }

    pub fn train_config(&self, mode: PipelineMode) -> TrainConfig {
        TrainConfig {
            lr: 0.01,
            fusion_buffer: Some(self.model.fusion_buffer()),
            mode,
            ..TrainConfig::default()
        }
    }
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "tcp2_dear",
        why: "2 processes over loopback TCP at batch 2: communication is most of the step, so framing, endpoint and ring gains must show here",
        hosts: 2,
        ranks_per_host: 1,
        fabric: Fabric::Net,
        model: Model::Wide,
        batch: 2,
        mode: PipelineMode::Dear,
    },
    Workload {
        name: "shm2_dear",
        why: "same model, seed and steps as tcp2_dear over the shm fabric: bypasses sockets and framing, so a TCP-only change predicts no change here",
        hosts: 1,
        ranks_per_host: 2,
        fabric: Fabric::Net,
        model: Model::Wide,
        batch: 2,
        mode: PipelineMode::Dear,
    },
    Workload {
        name: "tiered4_dear",
        why: "2 host processes x 2 rank threads: the only world with shm and TCP hops on one ring, where hierarchical or selector wiring can move the result",
        hosts: 2,
        ranks_per_host: 2,
        fabric: Fabric::Net,
        model: Model::Wide,
        batch: 8,
        mode: PipelineMode::Dear,
    },
    Workload {
        name: "delay2_dear",
        why: "emulated 1 Gb/s link sized so communication is about compute; the delay is sleep, so only the OP1/OP2 schedule decides the result",
        hosts: 1,
        ranks_per_host: 2,
        fabric: Fabric::Delay,
        model: Model::Deep,
        batch: 32,
        mode: PipelineMode::Dear,
    },
    Workload {
        name: "delay2_wfbp",
        why: "identical to delay2_dear in WFBP mode: a DeAR-path gain that costs the baseline path shows here, and the pair gives the headline ratio",
        hosts: 1,
        ranks_per_host: 2,
        fabric: Fabric::Delay,
        model: Model::Deep,
        batch: 32,
        mode: PipelineMode::Wfbp,
    },
];

pub fn mode_name(mode: PipelineMode) -> &'static str {
    match mode {
        PipelineMode::Dear => "dear",
        PipelineMode::Wfbp => "wfbp",
    }
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Everything a rank needs that depends on `--seed`, derived the same way
/// in the parent (references) and in the workers.
pub struct Inputs {
    pub init_seed: u64,
    pub data: BlobDataset,
}

impl Inputs {
    pub fn new(seed: u64) -> Self {
        // SplitMix64 steps keep the two derived seeds unrelated.
        let mix = |x: u64| {
            let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let init_seed = mix(seed);
        let data = BlobDataset::new(FEATURES, CLASSES, 0.4, mix(init_seed));
        Inputs { init_seed, data }
    }

    /// Rank `rank`'s shard of every step's global batch, warm-up first.
    pub fn shards(&self, w: &Workload, rank: usize, steps: u64) -> Vec<(Tensor, Vec<usize>)> {
        let world = w.world();
        (0..steps)
            .map(|s| self.data.shard(s, w.batch * world, rank, world))
            .collect()
    }

    pub fn eval_batch(&self) -> (Tensor, Vec<usize>) {
        self.data.batch(EVAL_INDEX, EVAL_ROWS)
    }
}

/// One metric of `BENCHMARK.json`. `bound` is set on end-to-end metrics
/// only.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: Option<f64>,
}

fn m(name: &str, unit: &'static str, higher_is_better: bool, bound: Option<f64>) -> MetricSpec {
    MetricSpec {
        name: name.to_string(),
        unit,
        higher_is_better,
        bound,
    }
}

/// The end-to-end metrics, the same on every workload. One bound per
/// metric holds for all five workloads (the contract has no per-workload
/// bound), so each is sized for the noisiest workload. Three times the
/// widest run-to-run spread measured on the 2-vCPU reference host (11 %)
/// exceeds the contract's cap of 25 %, so everything timed sits at the cap
/// (README, "Repeatability").
pub fn end_to_end() -> Vec<MetricSpec> {
    vec![
        m("samples_per_s", "samples/s", true, Some(0.25)),
        m("step_ms_p50", "ms", false, Some(0.25)),
        m("step_ms_p95", "ms", false, Some(0.25)),
        m("setup_s", "s", false, Some(0.25)),
        m("peak_rss_mib", "MiB", false, Some(0.10)),
        m("cpu_s_per_ksample", "s", false, Some(0.25)),
    ]
}

pub const LINKS: [&str; 3] = ["local", "shm", "tcp"];
/// Per-layer rows whose value is a count that must repeat exactly.
pub const EXACT_COUNTS: [&str; 3] = [
    "link.sends_per_step",
    "link.wire_bytes_per_step",
    "core.groups_per_step",
];

/// The per-layer metrics, reported by every `--trace 1` run.
pub fn per_layer() -> Vec<MetricSpec> {
    let mut v = vec![
        m("minidnn.ff_ms", "ms", false, None),
        m("minidnn.bp_ms", "ms", false, None),
        m("minidnn.single_samples_per_s", "samples/s", true, None),
        m("collectives.simd.sum_f32_bytes_gibs", "GiB/s", true, None),
        m("collectives.simd.encode_f32_gibs", "GiB/s", true, None),
        m("collectives.simd.decode_f32_gibs", "GiB/s", true, None),
        m("collectives.simd.sum_bf16_gibs", "GiB/s", true, None),
        m(
            "collectives.simd.encode_round_bf16_gibs",
            "GiB/s",
            true,
            None,
        ),
        m("net.frame.roundtrip_1mib_gibs", "GiB/s", true, None),
        m("net.frame.roundtrip_1kib_us", "us", false, None),
    ];
    for link in LINKS {
        v.push(m(&format!("link.{link}.alpha_us"), "us", false, None));
        v.push(m(
            &format!("link.{link}.beta_ns_per_b"),
            "ns/B",
            false,
            None,
        ));
    }
    for link in LINKS {
        v.push(m(&format!("coll.{link}.rs_4mib_ms"), "ms", false, None));
        v.push(m(&format!("coll.{link}.ag_4mib_ms"), "ms", false, None));
        v.push(m(&format!("coll.{link}.ar_4mib_ms"), "ms", false, None));
        v.push(m(&format!("coll.{link}.ar_4kib_us"), "us", false, None));
        v.push(m(&format!("coll.{link}.ar_4mib_eff"), "ratio", true, None));
    }
    v.extend([
        m("coll.tiered4.ring_ar_4mib_ms", "ms", false, None),
        m("coll.tiered4.hier_ar_4mib_ms", "ms", false, None),
        m("coll.local.rsag_over_ar", "ratio", false, None),
        m("core.comm_ms_per_step", "ms", false, None),
        m("core.exposed_comm_ms_per_step", "ms", false, None),
        m("core.hidden_frac", "ratio", true, None),
        m("core.upd_ms_per_step", "ms", false, None),
        m("core.ffwait_ms_per_step", "ms", false, None),
        m("core.step_self_ms_per_step", "ms", false, None),
        m("core.groups_per_step", "count", false, None),
        m("core.coll_self_ms_per_step", "ms", false, None),
        m("link.sends_per_step", "count", false, None),
        m("link.wire_bytes_per_step", "B", false, None),
        m("link.send_ms_per_step", "ms", false, None),
        m("link.recv_wait_ms_per_step", "ms", false, None),
        m("net.rendezvous_ms", "ms", false, None),
        m("des.pred_step_ms", "ms", false, None),
        m("des.residual", "ratio", false, None),
        m("des.pred_dear_over_wfbp", "ratio", true, None),
        m("runtime.dear_over_wfbp", "ratio", true, None),
        m("scaling_eff", "ratio", true, None),
        m("trace.overhead_frac", "ratio", false, None),
    ]);
    v
}

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    use serde_json::{json, Value};
    let metric = |s: &MetricSpec| {
        let better = if s.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        match s.bound {
            Some(b) => json!({"name": s.name, "unit": s.unit, "better": better, "bound": b}),
            None => json!({"name": s.name, "unit": s.unit, "better": better}),
        }
    };
    let command: Vec<&str> = vec![
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "spine/Cargo.toml",
        "--",
    ];
    let doc = json!({
        "command": command,
        "paths": vec!["spine"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS
            .iter()
            .map(|w| json!({"name": w.name, "why": w.why}))
            .collect::<Vec<Value>>(),
        "end_to_end": end_to_end().iter().map(metric).collect::<Vec<Value>>(),
        "per_layer": per_layer().iter().map(metric).collect::<Vec<Value>>(),
    });
    let mut text = serde_json::to_string_pretty(&doc).expect("the printer is infallible");
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `spine manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        names.extend(end_to_end().into_iter().map(|s| s.name));
        names.extend(per_layer().into_iter().map(|s| s.name));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(ok), "bad name {n}");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(per_layer().len() <= 128);
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(end_to_end()
            .iter()
            .all(|s| s.bound.is_some_and(|b| b <= 0.25)));
    }

    #[test]
    fn models_have_the_stated_sizes() {
        assert_eq!(Model::Wide.build(1).param_count(), 1_596_936);
        assert_eq!(Model::Deep.build(1).param_count(), 536_840);
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let w = &WORKLOADS[0];
        let a = Inputs::new(7).shards(w, 1, 3);
        let b = Inputs::new(7).shards(w, 1, 3);
        let c = Inputs::new(8).shards(w, 1, 3);
        assert_eq!(a[2].0.data(), b[2].0.data());
        assert_ne!(a[2].0.data(), c[2].0.data());
    }
}
