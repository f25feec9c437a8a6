//! OP1 fused into the reduce-scatter's last receive against the two-pass
//! sequence it replaced — the reduce-scatter completes, then a second pass
//! updates the owned chunk — kept as the oracle in `send_ahead_tests`. The
//! parameters and the exported optimizer state must agree to the bit on
//! every wire, strategy and update rule, on ragged layouts whose owned
//! chunks cut items mid-way.

use crossbeam_channel::unbounded;
use dear_collectives::{DType, LocalEndpoint, LocalFabric, EPILOGUE_SLICE};
use proptest::prelude::*;

use super::send_ahead_tests::run_one_at_a_time;
use super::tests::{net_of, rules};
use super::*;

/// Steps per run: the second reads the state the first left.
const STEPS: u64 = 2;

/// What a comm thread is run as: [`run_comm_thread`] or the oracle.
type CommFn = fn(
    LocalEndpoint,
    HyperParams,
    ParallelismStrategy,
    PipelineMode,
    &str,
    &Receiver<CommJob>,
    &Sender<CommResult>,
);

/// `n` values in `[-2, 2)` from `seed` (a multiplicative hash: cheap in
/// an unoptimised build, where the long item dominates the run time).
fn values(seed: u64, n: usize) -> Vec<f32> {
    (0..n as u64)
        .map(|i| {
            let x =
                (seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0xD1B5_4A32_D192_ED03);
            (x >> 40) as f32 / (1u64 << 22) as f32 - 2.0
        })
        .collect()
}

/// Trains [`STEPS`] DeAR steps of seeded gradients on a `world`-rank
/// fabric whose comm threads run as `comm`. Returns, per rank, the final
/// parameters of every group and the exported optimizer state.
fn train(
    world: usize,
    comm: CommFn,
    layout: &GroupLayout,
    hyper: HyperParams,
    strategy: ParallelismStrategy,
    seed: u64,
) -> Vec<(Vec<Vec<f32>>, OptimState)> {
    let groups = layout.num_groups();
    std::thread::scope(|s| {
        let ranks: Vec<_> = LocalFabric::create(world)
            .into_iter()
            .map(|ep| {
                s.spawn(move || {
                    let rank = ep.rank() as u64;
                    let (job_tx, job_rx) = unbounded();
                    let (res_tx, res_rx) = unbounded();
                    job_tx
                        .send(CommJob::Reconfigure {
                            layout: layout.clone(),
                        })
                        .unwrap();
                    let comm_thread = s.spawn(move || {
                        let scope = crate::trace::unique_scope(rank as usize);
                        comm(
                            ep,
                            hyper,
                            strategy,
                            PipelineMode::Dear,
                            &scope,
                            &job_rx,
                            &res_tx,
                        );
                    });
                    let mut params: Vec<Vec<f32>> = (0..groups)
                        .map(|g| values(seed ^ g as u64, layout.group_elements(g)))
                        .collect();
                    for step in 0..STEPS {
                        for group in (0..groups).rev() {
                            let at = rank << 40 ^ step << 20 ^ group as u64;
                            job_tx
                                .send(CommJob::Reduce {
                                    group,
                                    grads: values(seed ^ at, layout.group_elements(group)),
                                    params: params[group].clone(),
                                })
                                .unwrap();
                        }
                        job_tx.send(CommJob::Flush).unwrap();
                        for _ in 0..groups {
                            match res_rx.recv().unwrap() {
                                CommResult::Params {
                                    group, params: p, ..
                                } => params[group] = p,
                                other => panic!("unexpected reply {other:?}"),
                            }
                        }
                    }
                    job_tx.send(CommJob::ExportOptimState).unwrap();
                    let state = match res_rx.recv().unwrap() {
                        CommResult::OptimState(state) => state,
                        other => panic!("unexpected reply {other:?}"),
                    };
                    drop(job_tx);
                    comm_thread.join().unwrap();
                    (params, state)
                })
            })
            .collect();
        ranks.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn the_fused_epilogue_is_bitwise_the_two_pass_update(
        lens in prop::collection::vec(1usize..40, 2..8),
        long in 2 * EPILOGUE_SLICE + 1..2 * EPILOGUE_SLICE + 800,
        buffer_bytes in 8u64..320,
        seed in any::<u64>(),
    ) {
        // One item long enough that on two ranks an owned chunk is reduced
        // and updated in two slices or more.
        let mut lens = lens;
        lens.insert(lens.len() / 2, long);
        let strategies = [ParallelismStrategy::Ddp, ParallelismStrategy::Zero2];
        for world in [2usize, 3, 4, 6] {
            for wire in [DType::F32, DType::Bf16, DType::F16] {
                // Several items per group, of ragged lengths: every rank's
                // owned chunk cuts items mid-way.
                let layout = GroupLayout::from_buffer_wire(&net_of(&lens), Some(buffer_bytes), wire);
                for hyper in rules() {
                    for strategy in strategies {
                        let case = format!("world {world} {wire} {strategy:?} {hyper:?}");
                        let fused = train(world, run_comm_thread, &layout, hyper, strategy, seed);
                        let oracle = train(world, run_one_at_a_time, &layout, hyper, strategy, seed);
                        for (rank, (got, want)) in fused.iter().zip(&oracle).enumerate() {
                            for (group, (g, w)) in got.0.iter().zip(&want.0).enumerate() {
                                prop_assert_eq!(bits(g), bits(w), "{}: rank {} group {}", case, rank, group);
                            }
                            let (g, w) = (&got.1, &want.1);
                            prop_assert_eq!(bits(&g.velocity), bits(&w.velocity), "{}: rank {} velocity", case, rank);
                            prop_assert_eq!(bits(&g.second_moment), bits(&w.second_moment), "{}: rank {} second moment", case, rank);
                            prop_assert_eq!(g.adam_step, w.adam_step, "{}: rank {}", case, rank);
                        }
                    }
                }
            }
        }
    }
}
