//! Recursive halving-doubling all-reduce (Rabenseifner's algorithm):
//! a recursive-halving reduce-scatter followed by a recursive-doubling
//! all-gather. Latency-optimal in `log₂(P)` rounds per phase while keeping
//! the ring's bandwidth term — another all-reduce that decouples into two
//! continuous operations, as DeAR requires.
//!
//! This implementation supports power-of-two world sizes directly and
//! non-power-of-two sizes via the standard fold/unfold pre- and post-steps
//! (the `2·r` lowest ranks pair up so that a power-of-two subgroup runs the
//! core algorithm).

use crate::error::CollectiveError;
use crate::hop::{recv_hop, send_hop, Chunks, Loans};
use crate::reduce::ReduceOp;
use crate::transport::Transport;
use crate::wire::DType;

/// Recursive halving-doubling all-reduce over `data`, in place, each
/// exchanged half cast to `wire` on send.
///
/// After the call every rank's `data` holds the element-wise reduction
/// across all ranks. Works for any world size ≥ 1.
///
/// # Errors
///
/// Propagates transport errors; returns [`CollectiveError::SizeMismatch`]
/// if peers disagree on buffer lengths.
pub fn rhd_all_reduce<T: Transport>(
    t: &T,
    data: &mut [f32],
    op: ReduceOp,
    wire: DType,
) -> Result<(), CollectiveError> {
    let world = t.world_size();
    if world == 1 {
        return Ok(());
    }
    let pof2 = prev_power_of_two(world);
    let rem = world - pof2;
    let (buf, len) = (Chunks::of(data), data.len());
    let mut loans = Loans::default();
    // SAFETY: `data` is borrowed, and reached only through `buf`, for the
    // whole call; every receive settles the loans on its range first, and
    // `loans` is settled (or dropped, on an error) before the call returns.
    unsafe {
        halve_and_double(t, buf, 0..len, op, wire, pof2, rem, &mut loans)?;
    }
    loans.settle()
}

/// The body of [`rhd_all_reduce`] over `buf[all]`.
///
/// # Safety
///
/// As `send_hop`'s and `recv_hop`'s, for the buffer `buf` addresses.
#[allow(clippy::too_many_arguments)]
unsafe fn halve_and_double<T: Transport>(
    t: &T,
    buf: Chunks,
    all: std::ops::Range<usize>,
    op: ReduceOp,
    wire: DType,
    pof2: usize,
    rem: usize,
    loans: &mut Loans,
) -> Result<(), CollectiveError> {
    let rank = t.rank();
    // Fold step: ranks 0..2*rem pair up (even r sends to r+1, which reduces),
    // leaving a power-of-two active group: odd ranks of the folded prefix
    // plus all ranks >= 2*rem.
    let core_rank: Option<usize> = if rank < 2 * rem {
        if rank.is_multiple_of(2) {
            // SAFETY: this function's contract, with every loan in `loans`.
            unsafe { send_hop(t, rank + 1, buf, all.clone(), wire, loans)? };
            None
        } else {
            // SAFETY: as above.
            unsafe {
                recv_hop(
                    t,
                    rank - 1,
                    buf,
                    all.clone(),
                    Some(op),
                    &mut (),
                    loans,
                    true,
                )?
            };
            Some(rank / 2)
        }
    } else {
        Some(rank - rem)
    };

    if let Some(crank) = core_rank {
        // Core recursive halving (reduce-scatter) on the pof2 subgroup.
        // Track the live segment [lo, hi) of `data`.
        let to_global = |c: usize| -> usize {
            if c < rem {
                2 * c + 1
            } else {
                c + rem
            }
        };
        // Segment [lo, hi) before each halving step, replayed in reverse by
        // the doubling phase (exact bookkeeping handles odd lengths).
        let mut segs: Vec<(usize, usize)> = Vec::new();
        let mut lo = 0usize;
        let mut hi = all.end;
        let mut dist = pof2 / 2;
        while dist >= 1 {
            segs.push((lo, hi));
            let partner = to_global(crank ^ dist);
            let mid = lo + (hi - lo) / 2;
            let keep_low = (crank / dist).is_multiple_of(2);
            let (send_range, keep_range) = if keep_low {
                (mid..hi, lo..mid)
            } else {
                (lo..mid, mid..hi)
            };
            // SAFETY: as above; the halves are disjoint.
            unsafe {
                send_hop(t, partner, buf, send_range, wire, loans)?;
                recv_hop(
                    t,
                    partner,
                    buf,
                    keep_range.clone(),
                    Some(op),
                    &mut (),
                    loans,
                    true,
                )?;
            }
            lo = keep_range.start;
            hi = keep_range.end;
            dist /= 2;
        }
        // Core recursive doubling (all-gather), mirroring the halving.
        let mut dist = 1usize;
        while dist < pof2 {
            let (plo, phi) = segs.pop().expect("one segment per halving step");
            let partner = to_global(crank ^ dist);
            // The partner fills whichever side of [plo, phi) we do not hold.
            let recv_range = if plo < lo { plo..lo } else { hi..phi };
            // SAFETY: as above; the receive settles the halving's loans on
            // `recv_range` first.
            unsafe {
                send_hop(t, partner, buf, lo..hi, wire, loans)?;
                recv_hop(t, partner, buf, recv_range, None, &mut (), loans, true)?;
            }
            lo = plo;
            hi = phi;
            dist *= 2;
        }
        debug_assert_eq!(lo, 0);
        debug_assert_eq!(hi, all.end);
    }

    // Unfold step: the odd folded ranks send the final result back to their
    // even partners.
    if rank < 2 * rem {
        if !rank.is_multiple_of(2) {
            // SAFETY: as above.
            unsafe { send_hop(t, rank - 1, buf, all, wire, loans)? };
        } else {
            // SAFETY: as above.
            unsafe { recv_hop(t, rank + 1, buf, all, None, &mut (), loans, true)? };
        }
    }
    Ok(())
}

fn prev_power_of_two(n: usize) -> usize {
    debug_assert!(n >= 1);
    let mut p = 1;
    while p * 2 <= n {
        p *= 2;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::run_cluster;

    fn rank_data(rank: usize, d: usize) -> Vec<f32> {
        (0..d).map(|i| (rank * d + i) as f32).collect()
    }

    fn expected_sum(world: usize, d: usize) -> Vec<f32> {
        (0..d)
            .map(|i| (0..world).map(|r| (r * d + i) as f32).sum())
            .collect()
    }

    #[test]
    fn power_of_two_worlds_match_sum() {
        for world in [1, 2, 4, 8, 16] {
            for d in [1, 8, 33, 128] {
                let expect = expected_sum(world, d);
                let results = run_cluster(world, |ep| {
                    let mut data = rank_data(ep.rank(), d);
                    rhd_all_reduce(&ep, &mut data, ReduceOp::Sum, DType::F32).unwrap();
                    data
                });
                for (rank, data) in results.into_iter().enumerate() {
                    assert_eq!(data, expect, "world {world} d {d} rank {rank}");
                }
            }
        }
    }

    #[test]
    fn non_power_of_two_worlds_match_sum() {
        for world in [3, 5, 6, 7, 12] {
            let d = 64;
            let expect = expected_sum(world, d);
            let results = run_cluster(world, |ep| {
                let mut data = rank_data(ep.rank(), d);
                rhd_all_reduce(&ep, &mut data, ReduceOp::Sum, DType::F32).unwrap();
                data
            });
            for (rank, data) in results.into_iter().enumerate() {
                assert_eq!(data, expect, "world {world} rank {rank}");
            }
        }
    }

    #[test]
    fn odd_buffer_lengths_survive_halving() {
        // Lengths that do not divide evenly at every halving step.
        for d in [1, 3, 7, 13] {
            let world = 8;
            let expect = expected_sum(world, d);
            let results = run_cluster(world, |ep| {
                let mut data = rank_data(ep.rank(), d);
                rhd_all_reduce(&ep, &mut data, ReduceOp::Sum, DType::F32).unwrap();
                data
            });
            for data in results {
                assert_eq!(data, expect, "d {d}");
            }
        }
    }

    #[test]
    fn zero_length_buffers_are_fine() {
        for world in [2, 4, 6] {
            let results = run_cluster(world, |ep| {
                let mut data: Vec<f32> = Vec::new();
                rhd_all_reduce(&ep, &mut data, ReduceOp::Sum, DType::F32).unwrap();
                data.len()
            });
            assert!(results.into_iter().all(|n| n == 0));
        }
    }

    #[test]
    fn prev_power_of_two_values() {
        assert_eq!(prev_power_of_two(1), 1);
        assert_eq!(prev_power_of_two(2), 2);
        assert_eq!(prev_power_of_two(3), 2);
        assert_eq!(prev_power_of_two(63), 32);
        assert_eq!(prev_power_of_two(64), 64);
    }
}
