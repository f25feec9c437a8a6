//! Elastic-runtime overheads: what fault tolerance costs when nothing
//! fails, and how fast a world comes back when something does.
//!
//! Two headline numbers, written to `results/elastic.txt`:
//!
//! - **Checkpoint overhead at 25 MB** (the paper's fusion-buffer working
//!   set): serializing, atomically persisting (write + fsync + rename),
//!   and load-plus-checksum-verifying a checkpoint whose parameter tensor
//!   is 25 MB (with a same-sized momentum tensor, as SGD training writes).
//! - **Restart-to-first-step latency**: from a cold start — TCP rendezvous
//!   over real loopback sockets, the cross-rank resume-step agreement,
//!   checkpoint load, optimizer-state import — to the completion of the
//!   first training step on every rank of a 4-rank world.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use dear_collectives::Transport;
use dear_core::{run_worker, CheckpointStore, OptimState, TrainCheckpoint, TrainConfig};
use dear_minidnn::{BlobDataset, Linear, Relu, Sequential};
use dear_net::tcp_loopback;
use rand::rngs::StdRng;
use rand::SeedableRng;

const WORLD: usize = 4;
const CKPT_BYTES: usize = 25 << 20;
const CKPT_ELEMS: usize = CKPT_BYTES / 4;

fn demo_net(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    Sequential::new()
        .push(Linear::new(6, 16, &mut rng))
        .push(Relu::new())
        .push(Linear::new(16, 8, &mut rng))
        .push(Relu::new())
        .push(Linear::new(8, 3, &mut rng))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn mean(samples: &[Duration]) -> Duration {
    samples.iter().sum::<Duration>() / samples.len().max(1) as u32
}

/// Serialize / save / load timings for a checkpoint with a 25 MB parameter
/// tensor and a matching momentum tensor.
fn bench_checkpoint_25mb(dir: &std::path::Path) -> (f64, f64, f64, usize) {
    let ckpt = TrainCheckpoint {
        step: 1000,
        params: (0..CKPT_ELEMS).map(|i| i as f32 * 1e-6).collect(),
        optim: OptimState {
            velocity: (0..CKPT_ELEMS).map(|i| i as f32 * -1e-7).collect(),
            second_moment: Vec::new(),
            adam_step: 0,
        },
        rng: Vec::new(),
        tuner: None,
    };
    let path = dir.join("bench-25mb.dear");
    let iters = 5;
    let (mut ser, mut save, mut load) = (Vec::new(), Vec::new(), Vec::new());
    let mut file_len = 0usize;
    for _ in 0..iters {
        let t = Instant::now();
        let bytes = ckpt.to_bytes();
        ser.push(t.elapsed());
        file_len = bytes.len();
        let t = Instant::now();
        ckpt.save(&path).expect("saving 25 MB checkpoint");
        save.push(t.elapsed());
        let t = Instant::now();
        let back = TrainCheckpoint::load(&path).expect("loading 25 MB checkpoint");
        load.push(t.elapsed());
        assert_eq!(back.step, ckpt.step);
    }
    (ms(mean(&ser)), ms(mean(&save)), ms(mean(&load)), file_len)
}

/// Writes per-rank checkpoints the way a real run would: train a few
/// steps over a real TCP world, synchronize, export, save.
fn prepare_stores(dir: &std::path::Path, steps: u64) {
    let endpoints = tcp_loopback(WORLD).expect("loopback rendezvous");
    let config = TrainConfig {
        fusion_buffer: Some(512),
        ..TrainConfig::default()
    };
    let data = BlobDataset::new(6, 3, 0.4, 99);
    std::thread::scope(|s| {
        for ep in endpoints {
            let data = &data;
            let config = config.clone();
            s.spawn(move || {
                let rank = ep.rank();
                run_worker(ep, config, |handle| {
                    let mut net = demo_net(7);
                    let mut optim = handle.into_optim(&net);
                    for step in 0..steps {
                        let (x, labels) = data.shard(step, 8 * WORLD, rank, WORLD);
                        let _ = optim.train_step(&mut net, &x, &labels);
                    }
                    optim.synchronize(&mut net).unwrap();
                    let store = CheckpointStore::new(dir, rank).expect("store");
                    store
                        .save(&TrainCheckpoint {
                            step: steps,
                            params: net.flat_params(),
                            optim: optim
                                .export_optim_state()
                                .expect("a synchronized, healthy world"),
                            rng: Vec::new(),
                            tuner: None,
                        })
                        .expect("seeding checkpoint");
                });
            });
        }
    });
}

/// One cold restart: rendezvous, agree on the resume step, load + import
/// state, run one training step on every rank. Returns (rendezvous time,
/// total restart-to-first-step time).
fn one_restart(dir: &std::path::Path) -> (Duration, Duration) {
    let start = Instant::now();
    let endpoints = tcp_loopback(WORLD).expect("loopback rendezvous");
    let rendezvous = start.elapsed();
    let config = TrainConfig {
        fusion_buffer: Some(512),
        ..TrainConfig::default()
    };
    let data = BlobDataset::new(6, 3, 0.4, 99);
    std::thread::scope(|s| {
        for ep in endpoints {
            let data = &data;
            let config = config.clone();
            s.spawn(move || {
                let rank = ep.rank();
                let store = CheckpointStore::new(dir, rank).expect("store");
                let ckpt = store.latest_valid().expect("seeded checkpoint");
                run_worker(ep, config, move |handle| {
                    let mut net = demo_net(7);
                    let mut optim = handle.into_optim(&net);
                    let resume = optim.agree_min_step(ckpt.step).expect("agreement");
                    assert_eq!(resume, ckpt.step, "stores were seeded in sync");
                    net.set_flat_params(&ckpt.params);
                    optim
                        .import_optim_state(ckpt.optim)
                        .expect("the seeded checkpoint is this model's");
                    let (x, labels) = data.shard(resume, 8 * WORLD, rank, WORLD);
                    let _ = optim.train_step(&mut net, &x, &labels);
                    optim.synchronize(&mut net).unwrap();
                });
            });
        }
    });
    (rendezvous, start.elapsed())
}

fn main() {
    let scratch = std::env::temp_dir().join(format!("dear-elastic-bench-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");

    let (ser_ms, save_ms, load_ms, file_len) = bench_checkpoint_25mb(&scratch);

    let ckpt_dir = scratch.join("stores");
    prepare_stores(&ckpt_dir, 5);
    // Warm-up restart (page cache, lazy binds), then measured restarts.
    let _ = one_restart(&ckpt_dir);
    let iters = 5;
    let (mut rdv, mut total) = (Vec::new(), Vec::new());
    for _ in 0..iters {
        let (r, t) = one_restart(&ckpt_dir);
        rdv.push(r);
        total.push(t);
    }
    let rdv_ms = ms(mean(&rdv));
    let restart_ms = ms(mean(&total));

    let mb = CKPT_BYTES as f64 / (1024.0 * 1024.0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# elastic runtime overheads ({WORLD} ranks, TCP loopback)"
    );
    let _ = writeln!(
        out,
        "# checkpoint payload: {mb:.0} MB params + {mb:.0} MB momentum ({file_len} bytes on disk)"
    );
    let _ = writeln!(out, "checkpoint_serialize_25mb_ms={ser_ms:.2}");
    let _ = writeln!(
        out,
        "checkpoint_atomic_save_25mb_ms={save_ms:.2}  # write + fsync + rename, {:.0} MB/s",
        file_len as f64 / (1024.0 * 1024.0) / (save_ms / 1e3)
    );
    let _ = writeln!(out, "checkpoint_load_verify_25mb_ms={load_ms:.2}");
    let _ = writeln!(out, "restart_rendezvous_ms={rdv_ms:.2}");
    let _ = writeln!(
        out,
        "restart_to_first_step_ms={restart_ms:.2}  # rendezvous + resume agreement + state import + first step"
    );
    print!("{out}");
    std::fs::create_dir_all("results").expect("cannot create results/");
    std::fs::write("results/elastic.txt", out).expect("writing results/elastic.txt");
    let _ = std::fs::remove_dir_all(&scratch);
    eprintln!("wrote results/elastic.txt");
}
