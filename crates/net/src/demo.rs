//! The `dear-launch --demo` worker: a small but complete DeAR training run
//! over a real [`TcpEndpoint`], used by the multi-process smoke tests and
//! as a copy-paste template for real deployments.

use dear_collectives::{CollectiveError, Transport};
use dear_core::checkpoint::fnv1a64;
use dear_core::fusion::RandomSearch;
use dear_core::trace::{self, OverlapSummary};
use dear_core::tuning::OnlineTuning;
use dear_core::{run_worker, CheckpointStore, ParallelismStrategy, TrainCheckpoint, TrainConfig};
use dear_minidnn::{softmax_cross_entropy, BlobDataset, Linear, Relu, Sequential};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{NetConfig, NetError};
use crate::endpoint::TcpEndpoint;
use crate::shm::{ShmEndpoint, ShmFabric};
use crate::tiered::TieredEndpoint;

/// What one demo worker produced. `eval_loss` and `params_hash` are
/// computed after `synchronize`, on a batch every rank derives identically,
/// so they are **bit-identical across ranks** — the launcher smoke test
/// asserts exactly that.
#[derive(Debug, Clone, PartialEq)]
pub struct DemoSummary {
    /// This worker's rank.
    pub rank: usize,
    /// World size.
    pub world: usize,
    /// Cross-entropy on a fixed held-out batch after training.
    pub eval_loss: f32,
    /// Order-sensitive FNV-style hash of the final parameter bits.
    pub params_hash: u64,
    /// The parallelism strategy the run trained under.
    pub strategy: ParallelismStrategy,
    /// Bytes of optimizer state resident in this rank's communication engine at the
    /// end of the run — under DeAR, every strategy's owned shard, roughly
    /// `1/world` of the model per state vector, which the strategy smoke
    /// test asserts.
    pub optim_bytes: usize,
}

impl DemoSummary {
    /// The stable one-line form the launcher smoke test parses. The
    /// `strategy`/`optim_bytes` fields ride at the end so older token-wise
    /// parsers keep working; `optim_bytes` is per-rank and may legitimately
    /// differ across ranks (chunk rounding), so cross-rank equality checks
    /// must compare `eval_loss`/`params_hash`, not whole lines.
    #[must_use]
    pub fn to_line(&self) -> String {
        format!(
            "dear-demo rank={} world={} eval_loss={:.6} params_hash={:016x} \
             strategy={} optim_bytes={}",
            self.rank,
            self.world,
            self.eval_loss,
            self.params_hash,
            self.strategy,
            self.optim_bytes
        )
    }
}

/// Hashes parameter bits order-sensitively (FNV-1a over the `f32` bits).
#[must_use]
pub fn hash_params(params: &[f32]) -> u64 {
    fnv1a64(params.iter().flat_map(|p| p.to_bits().to_le_bytes()))
}

/// Which retained boundary snapshot matches the agreed resume step after
/// an in-place resize.
#[derive(Debug, PartialEq, Eq)]
enum Rollback {
    /// The latest boundary snapshot is the agreed one (the common case).
    Current,
    /// This rank raced one boundary ahead: a ring collective completed
    /// here but failed on a peer that stayed a boundary behind, so the
    /// *previous* snapshot is the one every survivor holds.
    Previous,
}

/// Picks the snapshot whose step equals `agreed`, or `None` when neither
/// matches — more than one boundary of skew, which the boundary sync (a
/// collective itself) makes impossible unless state was corrupted; the
/// caller must then fall back to a supervised restart rather than resume
/// mismatched state under an agreed step counter.
fn choose_rollback(agreed: u64, snap_step: u64, prev_step: u64) -> Option<Rollback> {
    if agreed == snap_step {
        Some(Rollback::Current)
    } else if agreed == prev_step {
        Some(Rollback::Previous)
    } else {
        None
    }
}

fn demo_net(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    Sequential::new()
        .push(Linear::new(6, 16, &mut rng))
        .push(Relu::new())
        .push(Linear::new(16, 8, &mut rng))
        .push(Relu::new())
        .push(Linear::new(8, 3, &mut rng))
}

/// Joins the cluster described by `cfg` and trains the demo network for
/// `steps` data-parallel steps. All behaviour is driven by the typed
/// config — build one with [`NetConfig::from_env`] (the crate's only env
/// reader) or construct it explicitly; see [`DemoOptions`](crate::config::DemoOptions) for the
/// demo-specific knobs.
///
/// With [`ckpt_dir`](crate::config::DemoOptions::ckpt_dir) set, every rank writes an atomic,
/// checksummed checkpoint every [`ckpt_every`](crate::config::DemoOptions::ckpt_every) steps and, on
/// startup, the world agrees on the newest step *all* ranks have a valid
/// checkpoint for (a `Min` all-reduce over each rank's latest) and resumes
/// from it bit-identically — this is what makes a supervised restart
/// converge to the same final parameters as an uninterrupted run.
///
/// For failure-propagation tests, [`exit_rank`](crate::config::DemoOptions::exit_rank) /
/// [`exit_at_step`](crate::config::DemoOptions::exit_at_step) make exactly one rank die abruptly
/// (`process::exit`, indistinguishable from a kill at the network layer)
/// mid-training; the surviving ranks must then error out of their
/// collectives instead of hanging. The injection only fires when the
/// world generation equals [`exit_gen`](crate::config::DemoOptions::exit_gen), so under an elastic
/// launcher the restarted world survives.
///
/// [`NetConfig::wire`] selects the data-path precision: with `bf16`/`f16`
/// the gradients and parameters cross the socket at half the bytes,
/// accumulated in f32 at every hop; the summary stays bit-identical
/// across ranks either way.
///
/// # Errors
///
/// Returns [`NetError`] when rendezvous fails, the checkpoint directory
/// is unusable, the resumed checkpoint's optimizer state is not this
/// model's, or a collective fails mid-training and elastic resize is off
/// — e.g. a peer died and the configured recv deadline or a disconnect
/// surfaced.
///
/// With [`NetConfig::elastic_resize`] set, a mid-training collective
/// failure does **not** kill the survivors: each one prints a
/// `resizing in place` marker, re-runs rendezvous at the next generation
/// via [`Transport::reconfigure`], agrees on the last common snapshot
/// boundary (a `Min` all-reduce), rolls parameters and optimizer shards
/// back to it, repartitions the reduce-scattered optimizer state over the
/// new world, and keeps training — no restart, no checkpoint reload.
/// Each rank retains its last *two* boundary snapshots: a peer death
/// mid-collective can let the boundary sync complete on some survivors
/// and fail on others, leaving one rank a boundary ahead — it restores
/// the previous snapshot (the one matching the agreed step) instead of
/// silently resuming newer state.
/// Every rank prints a `params_hash` line at each snapshot boundary
/// (every [`ckpt_every`](crate::config::DemoOptions::ckpt_every) steps), so an external observer can check
/// that survivors stay bit-identical through the resize.
///
/// # Panics
///
/// Panics (taking the process down with a non-zero status) when an
/// attempted in-place resize itself fails (e.g. quorum loss), or when a
/// checkpoint write fails.
pub fn run_demo_worker(cfg: &NetConfig, steps: u64) -> Result<DemoSummary, NetError> {
    run_demo_on(TcpEndpoint::connect(cfg)?, cfg, steps)
}

/// One host process of a two-tier demo world: joins as `ranks_per_host`
/// rank threads whose intra-host traffic rides a shared [`ShmFabric`]
/// while inter-host traffic rides TCP ([`TieredEndpoint`]).
///
/// The process's `RANK`/`WORLD_SIZE` environment (already parsed into
/// `base`) is reinterpreted at the *host* granularity: `base.rank` is the
/// host index `h` out of `base.world` hosts, and the global world becomes
/// `base.world * ranks_per_host` with this process owning global ranks
/// `h*k .. (h+1)*k`. Every rank tags itself with `host_id = h`, so the
/// rendezvous host table — and therefore tier routing — reflects real
/// process co-location, not a loopback fiction. This is what
/// `dear-launch --hosts H --demo` re-enters.
///
/// # Errors
///
/// Returns [`NetError`] when rendezvous fails, the host/rank geometry is
/// inconsistent, or any rank thread's demo run fails.
///
/// # Panics
///
/// Panics when a rank thread panics (see [`run_demo_worker`]).
pub fn run_demo_host(
    base: &NetConfig,
    steps: u64,
    ranks_per_host: usize,
) -> Result<Vec<DemoSummary>, NetError> {
    let k = ranks_per_host;
    if k == 0 {
        return Err(NetError::Config("ranks_per_host must be >= 1".into()));
    }
    let hosts = base.world;
    let host = base
        .rank
        .ok_or_else(|| NetError::Config("host worker needs RANK set".into()))?;
    if host >= hosts {
        return Err(NetError::Config(format!(
            "host index {host} out of range for {hosts} hosts"
        )));
    }
    let world = hosts * k;
    let members: Vec<usize> = (host * k..(host + 1) * k).collect();
    // One shm fabric per process, shared by its rank threads. A single
    // rank per host degenerates to pure TCP — no fabric at all.
    let shm_eps: Vec<Option<ShmEndpoint>> = if k > 1 {
        let mut fab_cfg = base.clone();
        fab_cfg.world = world;
        ShmFabric::with_config(&fab_cfg, &members)
            .into_iter()
            .map(Some)
            .collect()
    } else {
        vec![None]
    };
    let summaries: Vec<Result<DemoSummary, NetError>> = std::thread::scope(|s| {
        let handles: Vec<_> = members
            .iter()
            .zip(shm_eps)
            .map(|(&global, shm)| {
                let mut cfg = base.clone();
                cfg.world = world;
                cfg.rank = Some(global);
                cfg.host_id = Some(host as u64);
                s.spawn(move || {
                    let tcp = TcpEndpoint::connect(&cfg)?;
                    let ep = TieredEndpoint::compose(tcp, shm)?;
                    run_demo_on(ep, &cfg, steps)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("demo rank thread panicked"))
            .collect()
    });
    summaries.into_iter().collect()
}

/// The transport-generic demo body behind [`run_demo_worker`]: everything
/// after the connect — resume agreement, training, elastic recovery,
/// trace dump — only needs the [`Transport`] contract, so tiered
/// (shm + TCP) endpoints drive the identical run.
///
/// # Errors
///
/// Returns [`NetError`] when the checkpoint store is unusable, the
/// resume-step agreement fails, or training fails with elastic resize
/// off; see [`run_demo_worker`] for the full behaviour contract.
///
/// # Panics
///
/// Same panics as [`run_demo_worker`]: a failed in-place resize or a
/// failed checkpoint write.
pub fn run_demo_on<T: Transport + Send + 'static>(
    transport: T,
    cfg: &NetConfig,
    steps: u64,
) -> Result<DemoSummary, NetError> {
    let rank = transport.rank();
    let world = transport.world_size();
    let exit_here = cfg.demo.exit_rank == Some(rank) && cfg.generation == cfg.demo.exit_gen;
    let exit_step = cfg.demo.exit_at_step;
    let ckpt_every = cfg.demo.ckpt_every.max(1);
    let store = match &cfg.demo.ckpt_dir {
        Some(dir) => Some(
            CheckpointStore::new(dir, rank)
                .map_err(|e| NetError::Config(format!("checkpoint store: {e}")))?,
        ),
        None => None,
    };
    let data = BlobDataset::new(6, 3, 0.4, 99);
    let train_cfg = TrainConfig {
        fusion_buffer: Some(512), // several groups => real pipelining
        // Momentum, so that there is optimizer state to shard, checkpoint,
        // restore and rebalance: SGD without it keeps none.
        momentum: 0.9,
        ..TrainConfig::default()
    }
    .with_wire(cfg.wire)
    .with_strategy(cfg.strategy);
    let fusion_hint = train_cfg.fusion_buffer.unwrap_or(0) as f64;
    // Optional throughput measurement over BO-style tuning windows
    // (`tune_window` steps per window, 0 = off). Checkpoint saves are
    // bracketed with pause()/resume() so their cost never lands inside a
    // window's observation.
    let tune_window = cfg.demo.tune_window;
    let elastic = cfg.elastic_resize;
    let generation = cfg.generation;
    let training = |e: CollectiveError| NetError::Protocol(format!("training: {e}"));
    let (eval_loss, params_hash, optim_bytes, rank, world) =
        run_worker(transport, train_cfg, move |handle| {
            let mut net = demo_net(7);
            let mut optim = handle.into_optim(&net);
            let mut rank = rank;
            let mut world = world;
            let mut tuning: Option<OnlineTuning<RandomSearch>> = (tune_window > 0)
                .then(|| OnlineTuning::new(None, tune_window, (8 * world) as f64, fusion_hint));
            // Agree on the resume point before training: each rank offers
            // one past the step of its newest *valid* checkpoint (0 = none),
            // and the world takes the minimum, so every rank is guaranteed
            // to hold the chosen one (a rank killed mid-save only ever lags
            // the others, and retention keeps several steps back). 0
            // anywhere means a fresh start everywhere.
            let mut start = 0;
            if let Some(store) = &store {
                let mine = store.latest_valid();
                let offer = mine.as_ref().map_or(0, |c| c.step + 1);
                let agreed = optim
                    .agree_min_step(offer)
                    .map_err(|e| NetError::Protocol(format!("resume-step agreement: {e}")))?;
                if let Some(agreed) = agreed.checked_sub(1) {
                    let ckpt = match mine {
                        Some(c) if c.step == agreed => c,
                        _ => TrainCheckpoint::load(&store.path_for(agreed)).map_err(|e| {
                            NetError::Config(format!(
                                "loading agreed checkpoint for step {agreed}: {e}"
                            ))
                        })?,
                    };
                    eprintln!(
                        "dear-demo rank={rank} resuming from checkpoint at step {agreed} \
                         (generation {generation})"
                    );
                    net.set_flat_params(&ckpt.params);
                    optim.import_optim_state(ckpt.optim).map_err(training)?;
                    start = agreed;
                }
            }
            // Rollback anchors for in-place resize: the last TWO boundaries
            // this rank passed. A ring collective can complete on some
            // survivors and fail on others when a peer dies mid-transfer, so
            // one rank may pass the boundary sync (and snapshot step N) while
            // another keeps N − ckpt_every; `agree_min_step` then picks the
            // older step. Retaining the previous boundary lets the rank that
            // raced one boundary ahead restore the snapshot *matching* the
            // agreed step, instead of silently resuming newer parameters under
            // an older step counter and diverging from its peers. More than
            // one boundary of skew is impossible (a boundary sync is itself a
            // collective the lagging rank would have had to complete), so any
            // other mismatch panics into the supervised-restart fallback.
            let mut step = start;
            let mut snap_step = start;
            let mut snap_params = net.flat_params();
            let mut snap_optim = optim.export_optim_state().map_err(training)?;
            let mut prev_step = snap_step;
            let mut prev_params = snap_params.clone();
            let mut prev_optim = snap_optim.clone();
            macro_rules! recover {
            ($e:expr) => {{
                eprintln!(
                    "dear-demo rank={rank} resizing in place after collective failure: {}",
                    $e
                );
                if let Some(t) = tuning.as_mut() {
                    t.pause();
                }
                let change = optim
                    .resize_world(None)
                    .unwrap_or_else(|err| panic!("in-place resize failed: {err}"));
                rank = change.new_rank;
                world = change.new_world;
                let generation = change.generation;
                let agreed = optim
                    .agree_min_step(snap_step)
                    .unwrap_or_else(|err| panic!("resume-step agreement failed: {err}"));
                match choose_rollback(agreed, snap_step, prev_step) {
                    Some(Rollback::Current) => (),
                    Some(Rollback::Previous) => {
                        eprintln!(
                            "dear-demo rank={rank} raced one boundary ahead (snapshot \
                             {snap_step} > agreed {agreed}); rolling back to the \
                             previous boundary snapshot"
                        );
                        snap_step = prev_step;
                        snap_params = prev_params.clone();
                        snap_optim = prev_optim.clone();
                    }
                    None => panic!(
                        "rank {rank} holds no snapshot for the agreed resume step \
                         {agreed} (latest {snap_step}, previous {prev_step}); \
                         survivors cannot roll back consistently — falling back to \
                         a supervised restart"
                    ),
                }
                net.set_flat_params(&snap_params);
                optim.import_optim_state(snap_optim.clone()).map_err(training)?;
                optim
                    .rebalance_optim_state()
                    .unwrap_or_else(|err| panic!("optimizer-shard rebalance failed: {err}"));
                step = agreed;
                if let Some(t) = tuning.as_mut() {
                    t.resume();
                }
                // One write per line, like the hash lines it is printed
                // next to: a fragment of this one in front of a peer's hash
                // line would hide that line from whoever parses stderr.
                let line = format!(
                    "dear-demo rank={rank} world={world} generation={generation} \
                     resumed at step {step}\n"
                );
                let _ = std::io::Write::write_all(&mut std::io::stderr(), line.as_bytes());
            }};
        }
            'run: loop {
                while step < steps {
                    // Boundary work at the same steps on every generation
                    // (skipping the one just resumed at): synchronize is
                    // numerics-neutral, so interrupted, resized and
                    // uninterrupted runs produce bit-identical parameters.
                    // The boundary snapshot is the in-memory rollback anchor;
                    // the hash line lets an observer compare ranks.
                    if step > start && step % ckpt_every == 0 {
                        match optim.synchronize(&mut net) {
                            Err(e) if elastic => {
                                recover!(e);
                                continue;
                            }
                            outcome => outcome.map_err(training)?,
                        }
                        prev_step = snap_step;
                        prev_params = std::mem::replace(&mut snap_params, net.flat_params());
                        prev_optim = std::mem::replace(
                            &mut snap_optim,
                            optim.export_optim_state().map_err(training)?,
                        );
                        snap_step = step;
                        // One write_all per line: stderr is unbuffered, so a
                        // multi-fragment eprintln! from 4 ranks sharing the
                        // supervisor's pipe can interleave mid-line and corrupt
                        // the machine-parsed hash lines.
                        let line = format!(
                            "dear-demo rank={rank} world={world} step={step} params_hash={:016x}\n",
                            hash_params(&snap_params)
                        );
                        let _ = std::io::Write::write_all(&mut std::io::stderr(), line.as_bytes());
                        if let Some(store) = &store {
                            let ckpt = TrainCheckpoint {
                                step,
                                params: snap_params.clone(),
                                optim: snap_optim.clone(),
                                rng: Vec::new(),
                                tuner: None,
                            };
                            if let Some(t) = tuning.as_mut() {
                                t.pause();
                            }
                            store
                                .save(&ckpt)
                                .unwrap_or_else(|e| panic!("checkpoint save at step {step}: {e}"));
                            if let Some(t) = tuning.as_mut() {
                                t.resume();
                            }
                        }
                    }
                    if exit_here && step == exit_step {
                        eprintln!("dear-demo rank={rank} dying abruptly at step {step} (injected)");
                        std::process::exit(41);
                    }
                    let (x, labels) = data.shard(step, 8 * world, rank, world);
                    match optim.train_step(&mut net, &x, &labels) {
                        Err(e) if elastic => {
                            recover!(e);
                            continue;
                        }
                        outcome => outcome.map_err(training)?,
                    };
                    if let Some(t) = tuning.as_mut() {
                        if let Some(throughput) = t.on_step() {
                            eprintln!(
                                "dear-tune rank={rank} window={tune_window} \
                             throughput={throughput:.1} samples/s"
                            );
                        }
                    }
                    step += 1;
                }
                match optim.synchronize(&mut net) {
                    Err(e) if elastic => {
                        recover!(e);
                        continue;
                    }
                    outcome => outcome.map_err(training)?,
                }
                break 'run;
            }
            // Queried after the final synchronize, so the figure reflects the
            // steady resident state (the dense owned shard).
            let optim_bytes = optim.optim_state_bytes().map_err(training)?;
            let (x, labels) = data.batch(1_000_000, 64);
            let logits = net.forward(&x);
            let (loss, _) = softmax_cross_entropy(&logits, &labels);
            let hash = hash_params(&net.flat_params());
            Ok((loss, hash, optim_bytes, rank, world))
        })?;
    // End-of-run trace dump: one Perfetto-loadable file per rank plus a
    // greppable overlap summary line on stderr.
    if let Some(prefix) = trace::configured_path() {
        let tl = trace::timeline();
        let path = std::path::PathBuf::from(format!("{}.rank{rank}.json", prefix.display()));
        match trace::write_chrome_trace(&path, &tl) {
            Ok(()) => eprintln!("dear-trace rank={rank} wrote {}", path.display()),
            Err(e) => eprintln!("dear-trace rank={rank} dump failed: {e}"),
        }
        eprintln!(
            "{}",
            OverlapSummary::from_timeline(&tl).to_line(&format!("rank{rank}"))
        );
    }
    Ok(DemoSummary {
        rank,
        world,
        eval_loss,
        params_hash,
        strategy: cfg.strategy,
        optim_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_hash_is_order_sensitive() {
        let a = hash_params(&[1.0, 2.0]);
        let b = hash_params(&[2.0, 1.0]);
        assert_ne!(a, b);
        assert_eq!(a, hash_params(&[1.0, 2.0]));
    }

    #[test]
    fn rollback_restores_the_snapshot_matching_the_agreed_step() {
        // Common case: every survivor failed before its next boundary.
        assert_eq!(choose_rollback(6, 6, 3), Some(Rollback::Current));
        // A ring collective completed on this rank but failed on a peer:
        // this rank snapshotted one boundary ahead of the agreed step and
        // must restore the previous snapshot, not resume newer parameters
        // under the older step counter.
        assert_eq!(choose_rollback(3, 6, 3), Some(Rollback::Previous));
        // More than one boundary of skew cannot be rolled back.
        assert_eq!(choose_rollback(0, 6, 3), None);
        // Fresh start: both anchors sit at the start step.
        assert_eq!(choose_rollback(0, 0, 0), Some(Rollback::Current));
    }

    #[test]
    fn resumes_at_a_step_past_f32_precision() {
        // 2^24 + 1 is the first step an f32 cannot hold: the world must
        // still agree on it exactly and resume from that checkpoint.
        const STEP: u64 = (1 << 24) + 1;
        let dir = std::env::temp_dir().join(format!("dear-demo-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = NetConfig::new(2, 0, "127.0.0.1:0");
        cfg.demo.ckpt_dir = Some(dir.display().to_string());
        cfg.demo.ckpt_every = 2;
        let run = |steps: u64| {
            std::thread::scope(|s| {
                let handles: Vec<_> = dear_collectives::LocalFabric::create(2)
                    .into_iter()
                    .map(|ep| s.spawn(|| run_demo_on(ep, &cfg, steps)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("demo rank panicked"))
                    .collect::<Vec<_>>()
            })
        };
        for summary in run(4) {
            summary.expect("seeding run");
        }
        let mut hashes = Vec::new();
        for rank in 0..2 {
            let store = CheckpointStore::new(&dir, rank).unwrap();
            let mut ckpt = store.latest_valid().expect("seeded checkpoint");
            ckpt.step = STEP;
            store.save(&ckpt).unwrap();
            hashes.push(hash_params(&ckpt.params));
        }
        for (rank, summary) in run(STEP).into_iter().enumerate() {
            let summary = summary.expect("resuming at 2^24 + 1");
            assert_eq!(summary.params_hash, hashes[rank], "rank {rank}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_line_is_parseable() {
        let s = DemoSummary {
            rank: 2,
            world: 4,
            eval_loss: 0.25,
            params_hash: 0xdead_beef,
            strategy: ParallelismStrategy::Zero2,
            optim_bytes: 1234,
        };
        let line = s.to_line();
        assert!(line.contains("rank=2"));
        assert!(line.contains("params_hash=00000000deadbeef"));
        assert!(line.contains("strategy=zero2"));
        assert!(line.contains("optim_bytes=1234"));
    }
}
