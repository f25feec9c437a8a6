//! α-β communication cost models (Thakur et al., Hockney) for the
//! collectives the schedulers cost: the ring, its hierarchical composition
//! and the double binary tree's two phases.
//!
//! The DeAR paper's analysis (Eqs. 3–5) uses the standard α-β model: a
//! point-to-point message of `d` elements between two workers costs
//! `α + d·β`, where `α` is the per-message startup latency and `β` the
//! per-element transmission time. We additionally carry an optional `γ`
//! per-byte reduction cost (set to zero by default, matching the paper's
//! Eq. 3 which "omit[s] the overhead of arithmetic operations").
//!
//! All cost functions take message sizes in **bytes** and return simulated
//! durations.

use dear_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// An α-β(-γ) cost model for one interconnect.
///
/// # Examples
///
/// ```
/// use dear_collectives::CostModel;
///
/// let net = CostModel::ten_gbe();
/// let one_mb = 1 << 20;
/// // The paper quotes ~4.5 ms for a 1 MB all-reduce on 64 GPUs over 10GbE.
/// let t = net.ring_all_reduce(one_mb, 64).as_millis_f64();
/// assert!((4.0..5.0).contains(&t), "got {t} ms");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Per-message startup latency, in nanoseconds.
    pub alpha_ns: f64,
    /// Per-byte transmission time, in nanoseconds.
    pub beta_ns_per_byte: f64,
    /// Per-byte reduction (arithmetic) time, in nanoseconds. Zero by default.
    pub gamma_ns_per_byte: f64,
}

/// Named interconnect presets used by the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NetworkPreset {
    /// 10 Gb/s Ethernet — high latency, low bandwidth (the paper's 10GbE).
    TenGbE,
    /// 100 Gb/s InfiniBand — low latency, high bandwidth (the paper's 100GbIB).
    HundredGbIb,
    /// NVLink-class intra-node fabric (for hierarchical algorithms).
    NvLink,
}

impl NetworkPreset {
    /// The cost model for this preset.
    #[must_use]
    pub fn cost_model(self) -> CostModel {
        match self {
            NetworkPreset::TenGbE => CostModel::ten_gbe(),
            NetworkPreset::HundredGbIb => CostModel::hundred_gb_ib(),
            NetworkPreset::NvLink => CostModel::nvlink(),
        }
    }

    /// Short human-readable name, matching the paper's figure labels.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            NetworkPreset::TenGbE => "10GbE",
            NetworkPreset::HundredGbIb => "100GbIB",
            NetworkPreset::NvLink => "NVLink",
        }
    }
}

impl CostModel {
    /// Builds a model from raw parameters.
    #[must_use]
    pub fn new(alpha_ns: f64, beta_ns_per_byte: f64, gamma_ns_per_byte: f64) -> Self {
        CostModel {
            alpha_ns,
            beta_ns_per_byte,
            gamma_ns_per_byte,
        }
    }

    /// 10 Gb/s Ethernet, calibrated so that a 64-worker ring all-reduce of
    /// 1 MB costs ≈ 4.5 ms and of 500 KB ≈ 3.9 ms, the measurements quoted
    /// in §II-D of the paper.
    #[must_use]
    pub fn ten_gbe() -> Self {
        // 10 Gb/s = 1.25 GB/s => 0.8 ns/byte effective link bandwidth.
        CostModel::new(22_500.0, 0.8, 0.0)
    }

    /// 100 Gb/s InfiniBand: 12.5 GB/s and microsecond-scale startup.
    #[must_use]
    pub fn hundred_gb_ib() -> Self {
        CostModel::new(2_500.0, 0.08, 0.0)
    }

    /// NVLink-class fabric (~100 GB/s, sub-microsecond startup).
    #[must_use]
    pub fn nvlink() -> Self {
        CostModel::new(700.0, 0.01, 0.0)
    }

    /// Least-squares affine fit of measured point-to-point times: given
    /// `(bytes, nanoseconds)` samples, recovers the α (intercept) and β
    /// (slope) that best explain them, with γ left at zero. This is how the
    /// two-tier transport turns ping-pong probe measurements into a
    /// [`CostModel`] per tier. Negative fitted parameters are clamped to
    /// zero (measurement noise on a nearly-flat or nearly-free axis).
    ///
    /// Returns `None` with fewer than two samples or when every sample has
    /// the same size (the slope is unidentifiable).
    #[must_use]
    pub fn fit(samples: &[(u64, f64)]) -> Option<CostModel> {
        if samples.len() < 2 {
            return None;
        }
        let n = samples.len() as f64;
        let mean_x = samples.iter().map(|&(b, _)| b as f64).sum::<f64>() / n;
        let mean_y = samples.iter().map(|&(_, t)| t).sum::<f64>() / n;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        for &(b, t) in samples {
            let dx = b as f64 - mean_x;
            sxx += dx * dx;
            sxy += dx * (t - mean_y);
        }
        if sxx == 0.0 {
            return None;
        }
        let beta = (sxy / sxx).max(0.0);
        let alpha = (mean_y - beta * mean_x).max(0.0);
        Some(CostModel::new(alpha, beta, 0.0))
    }

    /// Like [`CostModel::fit`], but **rejects degenerate fits** instead of
    /// clamping them: a raw slope or intercept below zero means noise
    /// dominated the measurement (e.g. the large probe finished *faster*
    /// than the small one), and a clamped-to-zero α or β would poison any
    /// downstream cost comparison — a zero β claims infinite bandwidth, a
    /// zero α claims free messages. Also rejects non-finite fits (a `NaN`
    /// timing sample propagates into α/β).
    ///
    /// Returns `None` for under-determined inputs (as [`CostModel::fit`])
    /// **and** for degenerate ones; callers fall back to a preset.
    #[must_use]
    pub fn fit_checked(samples: &[(u64, f64)]) -> Option<CostModel> {
        if samples.len() < 2 {
            return None;
        }
        let n = samples.len() as f64;
        let mean_x = samples.iter().map(|&(b, _)| b as f64).sum::<f64>() / n;
        let mean_y = samples.iter().map(|&(_, t)| t).sum::<f64>() / n;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        for &(b, t) in samples {
            let dx = b as f64 - mean_x;
            sxx += dx * dx;
            sxy += dx * (t - mean_y);
        }
        if sxx == 0.0 {
            return None;
        }
        let beta = sxy / sxx;
        let alpha = mean_y - beta * mean_x;
        if beta.is_nan() || beta <= 0.0 || alpha.is_nan() || alpha < 0.0 {
            return None; // degenerate or non-finite: noise won
        }
        Some(CostModel::new(alpha, beta, 0.0))
    }

    /// Link bandwidth implied by β, in bytes per second.
    #[must_use]
    pub fn bandwidth_bytes_per_sec(&self) -> f64 {
        1e9 / self.beta_ns_per_byte
    }

    /// Point-to-point cost of one message of `bytes` bytes: `α + bytes·β`.
    #[must_use]
    pub fn p2p(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(
            (self.alpha_ns + bytes as f64 * self.beta_ns_per_byte).round() as u64,
        )
    }

    fn rounds(&self, rounds: f64, bytes_per_round: f64, reduce: bool) -> SimDuration {
        let gamma = if reduce { self.gamma_ns_per_byte } else { 0.0 };
        let per_round = self.alpha_ns + bytes_per_round * (self.beta_ns_per_byte + gamma);
        SimDuration::from_nanos((rounds * per_round).round() as u64)
    }

    /// Ring reduce-scatter of `bytes` over `world` workers (Eq. 3):
    /// `(P−1)(α + (d/P)β)`.
    ///
    /// # Panics
    ///
    /// Panics if `world == 0`.
    #[must_use]
    pub fn ring_reduce_scatter(&self, bytes: u64, world: usize) -> SimDuration {
        assert!(world > 0, "world size must be positive");
        if world == 1 {
            return SimDuration::ZERO;
        }
        self.rounds((world - 1) as f64, bytes as f64 / world as f64, true)
    }

    /// Ring all-gather of `bytes` over `world` workers (Eq. 4):
    /// `(P−1)(α + (d/P)β)`.
    #[must_use]
    pub fn ring_all_gather(&self, bytes: u64, world: usize) -> SimDuration {
        assert!(world > 0, "world size must be positive");
        if world == 1 {
            return SimDuration::ZERO;
        }
        self.rounds((world - 1) as f64, bytes as f64 / world as f64, false)
    }

    /// Ring all-reduce (Eq. 5): reduce-scatter followed by all-gather,
    /// `2(P−1)α + 2(P−1)d/P·β`.
    #[must_use]
    pub fn ring_all_reduce(&self, bytes: u64, world: usize) -> SimDuration {
        self.ring_reduce_scatter(bytes, world) + self.ring_all_gather(bytes, world)
    }

    /// Hierarchical (2-level) ring all-reduce over `nodes` nodes with
    /// `gpus_per_node` workers each: intra-node RS, inter-node AR over the
    /// scattered shard, intra-node AG. The intra-node phases use `intra`.
    #[must_use]
    pub fn hierarchical_all_reduce(
        &self,
        intra: &CostModel,
        bytes: u64,
        nodes: usize,
        gpus_per_node: usize,
    ) -> SimDuration {
        assert!(
            nodes > 0 && gpus_per_node > 0,
            "cluster dims must be positive"
        );
        let shard = bytes / gpus_per_node.max(1) as u64;
        intra.ring_reduce_scatter(bytes, gpus_per_node)
            + self.ring_all_reduce(shard, nodes)
            + intra.ring_all_gather(bytes, gpus_per_node)
    }

    /// OP1 of the hierarchical all-reduce: intra-node reduce-scatter plus
    /// inter-node reduce-scatter over the `1/g` shard.
    #[must_use]
    pub fn hierarchical_rs_phase(
        &self,
        intra: &CostModel,
        bytes: u64,
        nodes: usize,
        gpus_per_node: usize,
    ) -> SimDuration {
        assert!(
            nodes > 0 && gpus_per_node > 0,
            "cluster dims must be positive"
        );
        let shard = bytes / gpus_per_node.max(1) as u64;
        intra.ring_reduce_scatter(bytes, gpus_per_node) + self.ring_reduce_scatter(shard, nodes)
    }

    /// OP2 of the hierarchical all-reduce: inter-node all-gather of the
    /// shard plus intra-node all-gather.
    #[must_use]
    pub fn hierarchical_ag_phase(
        &self,
        intra: &CostModel,
        bytes: u64,
        nodes: usize,
        gpus_per_node: usize,
    ) -> SimDuration {
        assert!(
            nodes > 0 && gpus_per_node > 0,
            "cluster dims must be positive"
        );
        let shard = bytes / gpus_per_node.max(1) as u64;
        self.ring_all_gather(shard, nodes) + intra.ring_all_gather(bytes, gpus_per_node)
    }

    /// OP1 of the double-binary-tree all-reduce: two half-message tree
    /// reduces (§VII-A's "tree-based reduce").
    #[must_use]
    pub fn double_tree_reduce_phase(&self, bytes: u64, world: usize) -> SimDuration {
        assert!(world > 0, "world size must be positive");
        if world == 1 {
            return SimDuration::ZERO;
        }
        let rounds = (world as f64).log2().ceil();
        SimDuration::from_nanos(
            (rounds * self.alpha_ns
                + bytes as f64 * (self.beta_ns_per_byte + self.gamma_ns_per_byte))
                .round() as u64,
        )
    }

    /// OP2 of the double-binary-tree all-reduce: two half-message tree
    /// broadcasts.
    #[must_use]
    pub fn double_tree_broadcast_phase(&self, bytes: u64, world: usize) -> SimDuration {
        assert!(world > 0, "world size must be positive");
        if world == 1 {
            return SimDuration::ZERO;
        }
        let rounds = (world as f64).log2().ceil();
        SimDuration::from_nanos(
            (rounds * self.alpha_ns + bytes as f64 * self.beta_ns_per_byte).round() as u64,
        )
    }

    /// Lower bound on all-reduce time from link bandwidth alone:
    /// `2·(P−1)/P·d·β ≈ 2d/B` (the bound the paper uses in §VI-E).
    #[must_use]
    pub fn all_reduce_bandwidth_bound(&self, bytes: u64, world: usize) -> SimDuration {
        if world <= 1 {
            return SimDuration::ZERO;
        }
        let volume = 2.0 * bytes as f64 * (world - 1) as f64 / world as f64;
        SimDuration::from_nanos((volume * self.beta_ns_per_byte).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    #[test]
    fn ring_decoupling_is_exact() {
        // The headline property: cost(RS) + cost(AG) == cost(AR) for rings.
        let m = CostModel::ten_gbe();
        for world in [2, 4, 16, 64] {
            for bytes in [1_000, 100_000, 25 * MB] {
                assert_eq!(
                    m.ring_reduce_scatter(bytes, world) + m.ring_all_gather(bytes, world),
                    m.ring_all_reduce(bytes, world)
                );
            }
        }
    }

    #[test]
    fn ring_halves_match_paper_symmetry() {
        // Eq. 3 == Eq. 4 when γ = 0.
        let m = CostModel::ten_gbe();
        assert_eq!(m.ring_reduce_scatter(MB, 64), m.ring_all_gather(MB, 64));
    }

    #[test]
    fn ten_gbe_calibration_matches_quoted_measurements() {
        let m = CostModel::ten_gbe();
        let t_1mb = m.ring_all_reduce(MB, 64).as_millis_f64();
        let t_500kb = m.ring_all_reduce(MB / 2, 64).as_millis_f64();
        assert!((4.2..4.8).contains(&t_1mb), "1MB: {t_1mb} ms");
        assert!((3.5..4.2).contains(&t_500kb), "500KB: {t_500kb} ms");
        // Halving the message saves much less than half the time: latency-bound.
        assert!(t_500kb > 0.75 * t_1mb);
    }

    #[test]
    fn startup_latency_scales_linearly_in_world_size() {
        let m = CostModel::ten_gbe();
        let small = 1_000; // latency-dominated message
        let t8 = m.ring_all_reduce(small, 8).as_secs_f64();
        let t64 = m.ring_all_reduce(small, 64).as_secs_f64();
        let ratio = t64 / t8;
        assert!((ratio - 9.0).abs() < 0.5, "(64-1)/(8-1) = 9, got {ratio}");
    }

    #[test]
    fn world_of_one_costs_nothing() {
        let m = CostModel::ten_gbe();
        assert_eq!(m.ring_all_reduce(MB, 1), SimDuration::ZERO);
        assert_eq!(m.double_tree_reduce_phase(MB, 1), SimDuration::ZERO);
        assert_eq!(m.double_tree_broadcast_phase(MB, 1), SimDuration::ZERO);
    }

    #[test]
    fn bandwidth_bound_is_a_lower_bound() {
        let m = CostModel::ten_gbe();
        for world in [2, 8, 64] {
            for bytes in [1_000, MB, 100 * MB] {
                assert!(
                    m.all_reduce_bandwidth_bound(bytes, world) <= m.ring_all_reduce(bytes, world)
                );
            }
        }
    }

    #[test]
    fn hierarchical_beats_flat_ring_on_mixed_fabric() {
        let inter = CostModel::ten_gbe();
        let intra = CostModel::nvlink();
        let flat = inter.ring_all_reduce(100 * MB, 64);
        let hier = inter.hierarchical_all_reduce(&intra, 100 * MB, 16, 4);
        assert!(hier < flat, "hier {hier} >= flat {flat}");
    }

    #[test]
    fn presets_have_sane_bandwidth() {
        assert!((CostModel::ten_gbe().bandwidth_bytes_per_sec() - 1.25e9).abs() < 1e6);
        assert!((CostModel::hundred_gb_ib().bandwidth_bytes_per_sec() - 12.5e9).abs() < 1e7);
        assert_eq!(NetworkPreset::TenGbE.label(), "10GbE");
        assert_eq!(
            NetworkPreset::HundredGbIb.cost_model(),
            CostModel::hundred_gb_ib()
        );
    }

    #[test]
    fn hierarchical_phases_compose_to_hierarchical_all_reduce() {
        let inter = CostModel::ten_gbe();
        let intra = CostModel::nvlink();
        for (nodes, g) in [(16, 4), (8, 8), (1, 4)] {
            for bytes in [MB, 25 * MB, 100 * MB] {
                let fused = inter.hierarchical_all_reduce(&intra, bytes, nodes, g);
                let phased = inter.hierarchical_rs_phase(&intra, bytes, nodes, g)
                    + inter.hierarchical_ag_phase(&intra, bytes, nodes, g);
                assert_eq!(fused, phased, "{nodes}x{g} {bytes}B");
            }
        }
    }

    #[test]
    fn fit_recovers_alpha_beta_from_exact_samples() {
        let truth = CostModel::new(12_000.0, 0.75, 0.0);
        let samples: Vec<(u64, f64)> = [1_000u64, 64_000, 1 << 20, 25 << 20]
            .iter()
            .map(|&b| (b, truth.alpha_ns + b as f64 * truth.beta_ns_per_byte))
            .collect();
        let fitted = CostModel::fit(&samples).unwrap();
        assert!((fitted.alpha_ns - truth.alpha_ns).abs() < 1.0, "{fitted:?}");
        assert!(
            (fitted.beta_ns_per_byte - truth.beta_ns_per_byte).abs() < 1e-6,
            "{fitted:?}"
        );
        // Degenerate inputs refuse to fit.
        assert!(CostModel::fit(&samples[..1]).is_none());
        assert!(CostModel::fit(&[(8, 1.0), (8, 2.0)]).is_none());
        // Noise can't push parameters negative.
        let noisy = CostModel::fit(&[(0, 100.0), (1_000, 50.0)]).unwrap();
        assert!(noisy.beta_ns_per_byte >= 0.0 && noisy.alpha_ns >= 0.0);
    }

    #[test]
    fn fit_checked_rejects_what_clamping_would_poison() {
        // Clean samples: fit_checked agrees with fit.
        let truth = CostModel::new(2_000.0, 0.1, 0.0);
        let samples: Vec<(u64, f64)> = [1_000u64, 64_000, 1 << 20]
            .iter()
            .map(|&b| (b, truth.alpha_ns + b as f64 * truth.beta_ns_per_byte))
            .collect();
        let checked = CostModel::fit_checked(&samples).unwrap();
        assert!((checked.alpha_ns - truth.alpha_ns).abs() < 1.0);
        assert!((checked.beta_ns_per_byte - truth.beta_ns_per_byte).abs() < 1e-6);
        // Decreasing times (the big probe beat the small one): fit clamps
        // β to zero — an infinite-bandwidth claim — but fit_checked
        // refuses the fit outright.
        let decreasing = [(0u64, 100.0), (1_000, 50.0)];
        assert_eq!(CostModel::fit(&decreasing).unwrap().beta_ns_per_byte, 0.0);
        assert!(CostModel::fit_checked(&decreasing).is_none());
        // A steep slope through a high-offset cluster fits a negative
        // intercept (free messages after clamping): also refused.
        let neg_intercept = [(100u64, 10.0), (200, 1_000.0)];
        assert_eq!(CostModel::fit(&neg_intercept).unwrap().alpha_ns, 0.0);
        assert!(CostModel::fit_checked(&neg_intercept).is_none());
        // Constant samples (slope unidentifiable, β would be exactly 0).
        assert!(CostModel::fit_checked(&[(8, 1.0), (16, 1.0)]).is_none());
        // A NaN timing sample must not launder into a "valid" model.
        assert!(CostModel::fit_checked(&[(8, f64::NAN), (16, 2.0)]).is_none());
        // Under-determined inputs behave like fit.
        assert!(CostModel::fit_checked(&samples[..1]).is_none());
        assert!(CostModel::fit_checked(&[(8, 1.0), (8, 2.0)]).is_none());
    }

    #[test]
    fn p2p_is_affine() {
        let m = CostModel::new(100.0, 2.0, 0.0);
        assert_eq!(m.p2p(0).as_nanos(), 100);
        assert_eq!(m.p2p(50).as_nanos(), 200);
    }

    #[test]
    fn gamma_increases_reducing_phases_only() {
        let no_gamma = CostModel::new(1000.0, 1.0, 0.0);
        let gamma = CostModel::new(1000.0, 1.0, 0.5);
        assert!(gamma.ring_reduce_scatter(MB, 8) > no_gamma.ring_reduce_scatter(MB, 8));
        assert_eq!(
            gamma.ring_all_gather(MB, 8),
            no_gamma.ring_all_gather(MB, 8)
        );
    }
}
