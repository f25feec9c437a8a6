//! The `ParallelismStrategy` layer: what, beyond data parallelism, is
//! sharded across the world.
//!
//! DeAR's decoupling — all-reduce = reduce-scatter ∘ all-gather — is the
//! exact primitive pair ZeRO-1/2 is built from. After OP1.RS every rank
//! holds the reduced gradients of the shard it owns; the comm thread
//! already updates only that shard and OP2.AG redistributes the updated
//! parameters. The strategies below only change *what state is resident*
//! between those two points — the wire traffic is identical for all of
//! them, so `Zero1`/`Zero2` are bit-identical to `Ddp` on an f32 wire.
//! Under DeAR the optimizer state of every strategy is the owned shard,
//! stored densely (~`1/world_size` of the model per state vector): the
//! update never reads an element outside it, so `Ddp` there is `Zero1`'s
//! layout under another name. In WFBP mode — `Ddp` only — the training
//! thread's optimizer keeps full-length state.

/// How training state is partitioned across ranks. Selects the resident
/// layout of the comm thread's optimizer state (and, for
/// [`ParallelismStrategy::Zero2`], of the between-phase gradient /
/// parameter stash); the collective schedule is the same decoupled
/// RS ∘ AG pipeline in every case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParallelismStrategy {
    /// Plain data parallelism, the only strategy WFBP runs. Under DeAR it
    /// is [`ParallelismStrategy::Zero1`].
    #[default]
    Ddp,
    /// ZeRO stage 1: optimizer state (momentum / Adam moments) is stored
    /// densely for the owned shard only — ~`1/world_size` of the model
    /// per state vector, with zero extra collectives.
    Zero1,
    /// ZeRO stage 2: [`ParallelismStrategy::Zero1`] plus sharded residency
    /// of the comm-side gradient/parameter stash between OP1.RS and
    /// OP2.AG — only the owned chunk of each fused group is kept; the
    /// full buffer is rematerialized just-in-time for the all-gather.
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
    /// Whether the comm-side stash between OP1.RS and OP2.AG keeps only
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
            ParallelismStrategy::Zero1 => "zero1",
            ParallelismStrategy::Zero2 => "zero2",
        }
    }

    /// Rejects combinations the runtime cannot execute: ZeRO needs the
    /// decoupled DeAR pipeline (WFBP all-reduces full gradients and
    /// updates locally — there is no shard to own).
    ///
    /// # Errors
    ///
    /// Returns a [`StrategyError`] naming the unusable combination.
    pub fn validate_mode(&self, mode: crate::PipelineMode) -> Result<(), StrategyError> {
        match self {
            ParallelismStrategy::Zero1 | ParallelismStrategy::Zero2
                if mode != crate::PipelineMode::Dear =>
            {
                Err(StrategyError {
                    reason: format!(
                        "{self:?} requires the DeAR pipeline (reduce-scatter owns the shard); \
                         WFBP has no sharded state to keep"
                    ),
                })
            }
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

    /// Accepts `ddp`, `zero1`/`zero-1`, `zero2`/`zero-2` (case-insensitive);
    /// anything else is rejected with the list of valid spellings.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "ddp" => Ok(ParallelismStrategy::Ddp),
            "zero1" | "zero-1" => Ok(ParallelismStrategy::Zero1),
            "zero2" | "zero-2" => Ok(ParallelismStrategy::Zero2),
            other => Err(StrategyError {
                reason: format!("unknown strategy {other:?} (expected ddp, zero1 or zero2)"),
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
        for s in [
            ParallelismStrategy::Ddp,
            ParallelismStrategy::Zero1,
            ParallelismStrategy::Zero2,
        ] {
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
            "zero-1".parse::<ParallelismStrategy>().unwrap(),
            ParallelismStrategy::Zero1
        );
        assert_eq!(
            "zero-2".parse::<ParallelismStrategy>().unwrap(),
            ParallelismStrategy::Zero2
        );
    }

    #[test]
    fn invalid_strategies_are_rejected_with_typed_errors() {
        let err = "zero3".parse::<ParallelismStrategy>().unwrap_err();
        assert!(err.reason.contains("zero3"), "{err}");
        assert!(err.to_string().contains("invalid parallelism strategy"));
    }

    #[test]
    fn zero_requires_the_dear_pipeline() {
        assert!(ParallelismStrategy::Ddp
            .validate_mode(PipelineMode::Wfbp)
            .is_ok());
        assert!(ParallelismStrategy::Zero1
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
        assert!(!ParallelismStrategy::Zero1.shards_grad_stash());
        assert!(ParallelismStrategy::Zero2.shards_grad_stash());
    }
}
