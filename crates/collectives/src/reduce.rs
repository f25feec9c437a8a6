//! Element-wise reduction operators.

use crate::error::CollectiveError;
use crate::simd;

use serde::{Deserialize, Serialize};

/// The reduction applied element-wise by reducing collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ReduceOp {
    /// Element-wise sum (the operator used for gradient aggregation).
    #[default]
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
    /// Element-wise product.
    Prod,
}

impl ReduceOp {
    /// Combines two scalars.
    #[must_use]
    pub fn combine(self, a: f32, b: f32) -> f32 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Prod => a * b,
        }
    }

    /// Accumulates `src` into `dst` element-wise: `dst[i] = op(dst[i], src[i])`.
    ///
    /// Runs on the training thread with peer-supplied sizes, so a mismatch is a
    /// typed error, never a panic — a panic here would abort the comm
    /// thread and defeat the non-panicking elastic recovery path.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError::SizeMismatch`] if the slices have
    /// different lengths.
    pub fn accumulate(self, dst: &mut [f32], src: &[f32]) -> Result<(), CollectiveError> {
        if dst.len() != src.len() {
            return Err(CollectiveError::SizeMismatch {
                expected: dst.len(),
                actual: src.len(),
            });
        }
        match self {
            // The gradient-aggregation op takes the SIMD kernel; the rare
            // ops stay as simple scalar loops.
            ReduceOp::Sum => simd::sum_f32(dst, src),
            _ => {
                for (d, s) in dst.iter_mut().zip(src) {
                    *d = self.combine(*d, *s);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_accumulates() {
        let mut a = vec![1.0, 2.0];
        ReduceOp::Sum.accumulate(&mut a, &[10.0, 20.0]).unwrap();
        assert_eq!(a, vec![11.0, 22.0]);
    }

    #[test]
    fn max_min_prod() {
        assert_eq!(ReduceOp::Max.combine(1.0, 2.0), 2.0);
        assert_eq!(ReduceOp::Min.combine(1.0, 2.0), 1.0);
        assert_eq!(ReduceOp::Prod.combine(3.0, 4.0), 12.0);
        let mut a = vec![2.0, -1.0];
        ReduceOp::Max.accumulate(&mut a, &[1.0, 5.0]).unwrap();
        assert_eq!(a, vec![2.0, 5.0]);
    }

    #[test]
    fn default_is_sum() {
        assert_eq!(ReduceOp::default(), ReduceOp::Sum);
    }

    #[test]
    fn accumulate_length_mismatch_is_a_typed_error_not_a_panic() {
        // A panic here would abort the training thread; peer-supplied sizes
        // must surface as a typed error the recovery path can handle.
        let err = ReduceOp::Sum
            .accumulate(&mut [0.0], &[1.0, 2.0])
            .unwrap_err();
        assert!(matches!(
            err,
            CollectiveError::SizeMismatch {
                expected: 1,
                actual: 2
            }
        ));
    }
}
