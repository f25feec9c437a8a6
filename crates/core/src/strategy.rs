//! The `ParallelismStrategy` layer: what, beyond data parallelism, is
//! sharded across the world.
//!
//! DeAR's decoupling — all-reduce = reduce-scatter ∘ all-gather — is the
//! exact primitive pair ZeRO-1/2 is built from. After OP1.RS every rank
//! holds the reduced gradients of the shard it owns; the engine
//! already updates only that shard and OP2.AG redistributes the updated
//! parameters. The strategies below only change *what state is resident*
//! between those two points — the wire traffic is identical for both, so
//! `Zero2` is bit-identical to `Ddp` on an f32 wire. There is one variant
//! per behaviour: under DeAR the optimizer state is the owned shard for
//! every strategy (~`1/world_size` of the model per state vector — ZeRO-1
//! comes with the decoupling), and in WFBP mode — `Ddp` only — every rank
//! updates, and keeps the state of, the whole model.

/// How training state is partitioned across ranks: whether the
/// communication engine's between-phase gradient / parameter stash is
/// sharded too. The
/// collective schedule is the same decoupled RS ∘ AG pipeline in every
/// case, and so is the optimizer state (DeAR's owned shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParallelismStrategy {
    /// Data parallelism, the only strategy WFBP runs. Under DeAR the
    /// optimizer state is already ZeRO-1's: the owned shard only.
    #[default]
    Ddp,
    /// ZeRO stage 2: sharded residency of the engine-side gradient/parameter
    /// stash between OP1.RS and OP2.AG — only the owned chunk of each
    /// fused group is kept; the full buffer is rematerialized just-in-time
    /// for the all-gather.
    Zero2,
}

/// Typed rejection of a strategy string or an unusable strategy/mode
/// combination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrategyError {
    /// What was rejected and why.
    pub reason: String,
}

impl std::fmt::Display for StrategyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid parallelism strategy: {}", self.reason)
    }
}

impl std::error::Error for StrategyError {}

impl ParallelismStrategy {
    /// Whether the engine-side stash between OP1.RS and OP2.AG keeps only
    /// the owned chunk of each group.
    #[must_use]
    pub fn shards_grad_stash(&self) -> bool {
        matches!(self, ParallelismStrategy::Zero2)
    }

    /// The canonical spelling accepted back by [`str::parse`].
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            ParallelismStrategy::Ddp => "ddp",
            ParallelismStrategy::Zero2 => "zero2",
        }
    }

    /// Rejects combinations the runtime cannot execute: ZeRO-2 needs the
    /// decoupled DeAR pipeline (WFBP all-reduces full gradients and
    /// updates whole groups — there is no shard to own).
    ///
    /// # Errors
    ///
    /// Returns a [`StrategyError`] naming the unusable combination.
    pub fn validate_mode(&self, mode: crate::PipelineMode) -> Result<(), StrategyError> {
        match self {
            ParallelismStrategy::Zero2 if mode != crate::PipelineMode::Dear => Err(StrategyError {
                reason: format!(
                    "{self:?} requires the DeAR pipeline (reduce-scatter owns the shard); \
                         WFBP has no sharded state to keep"
                ),
            }),
            _ => Ok(()),
        }
    }
}

impl std::fmt::Display for ParallelismStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for ParallelismStrategy {
    type Err = StrategyError;

    /// Accepts `ddp` and `zero2`/`zero-2` (case-insensitive);
    /// anything else is rejected with the list of valid spellings.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "ddp" => Ok(ParallelismStrategy::Ddp),
            "zero2" | "zero-2" => Ok(ParallelismStrategy::Zero2),
            other => Err(StrategyError {
                reason: format!("unknown strategy {other:?} (expected ddp or zero2)"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PipelineMode;

    #[test]
    fn parse_round_trips_every_runnable_strategy() {
        for s in [ParallelismStrategy::Ddp, ParallelismStrategy::Zero2] {
            let spelled = s.as_str();
            assert_eq!(spelled.parse::<ParallelismStrategy>().unwrap(), s);
            // Case and dash variants round-trip too.
            assert_eq!(
                spelled
                    .to_uppercase()
                    .parse::<ParallelismStrategy>()
                    .unwrap(),
                s
            );
        }
        assert_eq!(
            "zero-2".parse::<ParallelismStrategy>().unwrap(),
            ParallelismStrategy::Zero2
        );
    }

    #[test]
    fn invalid_strategies_are_rejected_with_typed_errors() {
        for spelled in ["zero3", "zero1", "zero-1"] {
            let err = spelled.parse::<ParallelismStrategy>().unwrap_err();
            assert!(err.reason.contains(spelled), "{err}");
            assert!(err.reason.contains("expected ddp or zero2"), "{err}");
            assert!(err.to_string().contains("invalid parallelism strategy"));
        }
    }

    #[test]
    fn zero_requires_the_dear_pipeline() {
        assert!(ParallelismStrategy::Ddp
            .validate_mode(PipelineMode::Wfbp)
            .is_ok());
        assert!(ParallelismStrategy::Zero2
            .validate_mode(PipelineMode::Dear)
            .is_ok());
        let err = ParallelismStrategy::Zero2
            .validate_mode(PipelineMode::Wfbp)
            .unwrap_err();
        assert!(err.reason.contains("DeAR pipeline"), "{err}");
    }

    #[test]
    fn only_zero2_shards_the_stash() {
        assert!(!ParallelismStrategy::Ddp.shards_grad_stash());
        assert!(ParallelismStrategy::Zero2.shards_grad_stash());
    }
}
