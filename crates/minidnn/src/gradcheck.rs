//! Finite-difference gradient checking for layers and networks.

use crate::loss::softmax_cross_entropy;
use crate::network::Sequential;
use crate::tensor::Tensor;

/// Result of a gradient check: the largest relative error found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradCheckReport {
    /// Maximum relative error over all checked parameters.
    pub max_rel_error: f32,
    /// Number of parameters checked.
    pub checked: usize,
}

/// Compares each analytic parameter gradient of `net` on `(input, labels)`
/// against a central finite difference, checking every `stride`-th
/// parameter (stride > 1 keeps large nets fast).
///
/// # Panics
///
/// Panics if `stride == 0`.
#[must_use]
pub fn check_gradients(
    net: &mut Sequential,
    input: &Tensor,
    labels: &[usize],
    stride: usize,
) -> GradCheckReport {
    assert!(stride > 0, "stride must be positive");
    // Analytic gradients.
    let logits = net.forward(input);
    let (_, dloss) = softmax_cross_entropy(&logits, labels);
    net.backward(&dloss);
    let analytic = net.store().flat_grads();
    let base = net.flat_params();
    let eps = 1e-2f32;
    let mut max_rel = 0.0f32;
    let mut checked = 0;
    for i in (0..base.len()).step_by(stride) {
        let mut plus = base.clone();
        plus[i] += eps;
        net.set_flat_params(&plus);
        let (lp, _) = softmax_cross_entropy(&net.forward(input), labels);
        let mut minus = base.clone();
        minus[i] -= eps;
        net.set_flat_params(&minus);
        let (lm, _) = softmax_cross_entropy(&net.forward(input), labels);
        let fd = (lp - lm) / (2.0 * eps);
        let denom = fd.abs().max(analytic[i].abs()).max(1e-4);
        max_rel = max_rel.max((fd - analytic[i]).abs() / denom);
        checked += 1;
    }
    net.set_flat_params(&base);
    GradCheckReport {
        max_rel_error: max_rel,
        checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Relu, Tanh};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mlp_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut net = Sequential::new()
            .push(Linear::new(5, 7, &mut rng))
            .push(Tanh::new())
            .push(Linear::new(7, 3, &mut rng));
        let input = Tensor::from_vec(&[4, 5], (0..20).map(|i| (i as f32 / 7.0).sin()).collect());
        let labels = [0usize, 1, 2, 1];
        let report = check_gradients(&mut net, &input, &labels, 3);
        assert!(report.checked > 10);
        assert!(
            report.max_rel_error < 0.05,
            "max relative error {}",
            report.max_rel_error
        );
    }

    #[test]
    fn relu_network_gradients_check_out() {
        // ReLU kinks can upset finite differences at exactly zero; the sin
        // inputs avoid that measure-zero case.
        let mut rng = StdRng::seed_from_u64(13);
        let mut net = Sequential::new()
            .push(Linear::new(4, 6, &mut rng))
            .push(Relu::new())
            .push(Linear::new(6, 2, &mut rng));
        let input = Tensor::from_vec(&[3, 4], (0..12).map(|i| (i as f32 / 3.0).cos()).collect());
        let labels = [1usize, 0, 1];
        let report = check_gradients(&mut net, &input, &labels, 2);
        assert!(
            report.max_rel_error < 0.08,
            "max relative error {}",
            report.max_rel_error
        );
    }
}
