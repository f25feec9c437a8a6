//! OP1 fused into the reduce-scatter's last receive against the two-pass
//! sequence it replaced — the reduce-scatter completes, then a second pass
//! updates the owned chunk — kept as the oracle in `send_ahead_tests`. The
//! parameters and the exported optimizer state must agree to the bit on
//! every wire, strategy and update rule, on ragged layouts whose owned
//! chunks cut items mid-way.

use dear_collectives::{DType, LocalFabric, EPILOGUE_SLICE};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::send_ahead_tests::{OneAtATime, Rank};
use super::tests::{net_of, rules};
use super::*;

/// Steps per run: the second reads the state the first left.
const STEPS: u64 = 2;

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

/// How [`train`] runs a rank.
#[derive(Clone, Copy)]
pub(super) enum RunAs {
    /// The one-group-at-a-time oracle.
    Oracle,
    /// The engine, posted to back to back.
    Engine,
    /// The engine, with `0..n` seeded polls and pauses of up to 50 µs
    /// between posts, as layer hooks between gradients make them.
    Hooks(u64),
}

/// Trains [`STEPS`] steps of seeded gradients on a `world`-rank local
/// fabric, each rank run as `run_as`. Returns, per rank, the final
/// parameters of every group and the exported optimizer state.
#[allow(clippy::too_many_arguments)]
pub(super) fn train(
    world: usize,
    run_as: RunAs,
    layout: &GroupLayout,
    hyper: HyperParams,
    strategy: ParallelismStrategy,
    mode: PipelineMode,
    seed: u64,
) -> Vec<(Vec<Vec<f32>>, OptimState)> {
    let groups = layout.num_groups();
    std::thread::scope(|s| {
        let ranks: Vec<_> = LocalFabric::create(world)
            .into_iter()
            .map(|ep| {
                s.spawn(move || {
                    let rank = ep.rank() as u64;
                    let scope = crate::trace::unique_scope(ep.rank());
                    let mut runner: Box<dyn Rank> = match run_as {
                        RunAs::Oracle => {
                            Box::new(OneAtATime::new(ep, hyper, strategy, mode, layout.clone()))
                        }
                        RunAs::Engine | RunAs::Hooks(_) => {
                            let mut engine = CommEngine::new(ep, hyper, strategy, mode, &scope);
                            engine.reconfigure(layout.clone()).unwrap();
                            Box::new(engine)
                        }
                    };
                    let mut hooks = match run_as {
                        RunAs::Hooks(n) => Some((StdRng::seed_from_u64(seed ^ rank), n)),
                        _ => None,
                    };
                    let mut params: Vec<Vec<f32>> = (0..groups)
                        .map(|g| values(seed ^ g as u64, layout.group_elements(g)))
                        .collect();
                    for step in 0..STEPS {
                        let mut home = vec![Vec::new(); groups];
                        for (group, p) in std::mem::take(&mut params).into_iter().enumerate().rev()
                        {
                            if let Some((rng, n)) = hooks.as_mut() {
                                for _ in 0..rng.gen_range(0..*n) {
                                    runner.progress(&mut home);
                                    let pause = rng.gen_range(0..50);
                                    std::thread::sleep(std::time::Duration::from_micros(pause));
                                }
                            }
                            let at = rank << 40 ^ step << 20 ^ group as u64;
                            let grads = values(seed ^ at, layout.group_elements(group));
                            runner.reduce(group, grads, p, &mut home);
                        }
                        runner.end_step(&mut home);
                        params = home;
                    }
                    (params, runner.export())
                })
            })
            .collect();
        ranks.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

pub(super) fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `got` against `want`, rank by rank, to the bit.
pub(super) fn agree(
    got: &[(Vec<Vec<f32>>, OptimState)],
    want: &[(Vec<Vec<f32>>, OptimState)],
    case: &str,
) -> Result<(), String> {
    for (rank, (got, want)) in got.iter().zip(want).enumerate() {
        for (group, (g, w)) in got.0.iter().zip(&want.0).enumerate() {
            prop_assert_eq!(bits(g), bits(w), "{}: rank {} group {}", case, rank, group);
        }
        let (g, w) = (&got.1, &want.1);
        prop_assert_eq!(
            bits(&g.velocity),
            bits(&w.velocity),
            "{}: rank {} velocity",
            case,
            rank
        );
        prop_assert_eq!(
            bits(&g.second_moment),
            bits(&w.second_moment),
            "{}: rank {} second moment",
            case,
            rank
        );
        prop_assert_eq!(g.adam_step, w.adam_step, "{}: rank {}", case, rank);
    }
    Ok(())
}

/// A layout of the items `lens` with one item long enough that on two
/// ranks an owned chunk is reduced and updated in two slices or more:
/// several items per group, of ragged lengths, so every rank's owned chunk
/// cuts items mid-way.
pub(super) fn ragged_layout(
    lens: &[usize],
    long: usize,
    buffer_bytes: u64,
    wire: DType,
) -> GroupLayout {
    let mut lens = lens.to_vec();
    lens.insert(lens.len() / 2, long);
    GroupLayout::from_buffer_wire(&net_of(&lens), Some(buffer_bytes), wire)
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
        let strategies = [ParallelismStrategy::Ddp, ParallelismStrategy::Zero2];
        for world in [2usize, 3, 4, 6] {
            for wire in [DType::F32, DType::Bf16, DType::F16] {
                let layout = ragged_layout(&lens, long, buffer_bytes, wire);
                for hyper in rules() {
                    for strategy in strategies {
                        let case = format!("world {world} {wire} {strategy:?} {hyper:?}");
                        let run = |run_as| train(world, run_as, &layout, hyper, strategy, PipelineMode::Dear, seed);
                        agree(&run(RunAs::Engine), &run(RunAs::Oracle), &case)?;
                    }
                }
            }
        }
    }
}
