//! The training thread driving the engine from its layer hooks against the
//! one-group-at-a-time sequence, bit for bit: the ranks poll and pause a
//! seeded, different number of times between their posts, as the compute
//! between two layers' gradients makes them, under DeAR and WFBP, every
//! strategy that runs under each, every wire and update rule, on worlds
//! of two to six ranks.

use dear_collectives::{DType, EPILOGUE_SLICE};
use proptest::prelude::*;

use super::epilogue_tests::{agree, ragged_layout, train, RunAs};
use super::tests::rules;
use super::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn progress_at_the_hooks_is_bitwise_the_one_at_a_time_sequence(
        lens in prop::collection::vec(1usize..40, 2..8),
        long in EPILOGUE_SLICE..2 * EPILOGUE_SLICE + 800,
        buffer_bytes in 8u64..320,
        seed in any::<u64>(),
        polls in 1u64..6,
    ) {
        let runs = [
            (PipelineMode::Dear, ParallelismStrategy::Ddp),
            (PipelineMode::Dear, ParallelismStrategy::Zero2),
            (PipelineMode::Wfbp, ParallelismStrategy::Ddp),
        ];
        for world in [2usize, 3, 4, 6] {
            for wire in [DType::F32, DType::Bf16, DType::F16] {
                let layout = ragged_layout(&lens, long, buffer_bytes, wire);
                for hyper in rules() {
                    for (mode, strategy) in runs {
                        let case = format!("world {world} {wire} {mode:?} {strategy:?} {hyper:?}");
                        let run = |run_as| train(world, run_as, &layout, hyper, strategy, mode, seed);
                        agree(&run(RunAs::Hooks(polls)), &run(RunAs::Oracle), &case)?;
                    }
                }
            }
        }
    }
}
