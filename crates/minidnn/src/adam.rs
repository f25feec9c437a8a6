//! Adam optimizer (Kingma & Ba) — the optimizer BERT-class pre-training
//! actually uses, provided alongside SGD so the distributed runtime can be
//! exercised with stateful per-element optimizers.

use crate::network::Sequential;
use crate::optim::Optimizer;

/// Adam with optional decoupled-style L2 weight decay (classic Adam
/// formulation: decay added to the gradient).
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    step: u64,
    /// First-moment estimates, one buffer per parameter tensor.
    m: Vec<Vec<f32>>,
    /// Second-moment estimates.
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates Adam with the canonical defaults `β₁ = 0.9`, `β₂ = 0.999`,
    /// `ε = 1e-8`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    #[must_use]
    pub fn new(lr: f32) -> Self {
        Adam::with_options(lr, 0.9, 0.999, 1e-8, 0.0)
    }

    /// Creates Adam with explicit hyper-parameters.
    ///
    /// # Panics
    ///
    /// Panics if `lr` or `eps` is not positive, or if either beta is
    /// outside `[0, 1)`.
    #[must_use]
    pub fn with_options(lr: f32, beta1: f32, beta2: f32, eps: f32, weight_decay: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1), "beta1 must be in [0, 1)");
        assert!((0.0..1.0).contains(&beta2), "beta2 must be in [0, 1)");
        assert!(eps > 0.0, "epsilon must be positive");
        Adam {
            lr,
            beta1,
            beta2,
            eps,
            weight_decay,
            step: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// The learning rate.
    #[must_use]
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Replaces the learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn set_lr(&mut self, lr: f32) {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }

    /// Steps taken so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.step
    }
}

impl Optimizer for Adam {
    fn step(&mut self, net: &mut Sequential) {
        self.step += 1;
        let bias1 = bias_correction(self.beta1, self.step);
        let bias2 = bias_correction(self.beta2, self.step);
        let Adam {
            lr,
            beta1,
            beta2,
            eps,
            weight_decay,
            ..
        } = *self;
        net.store_mut().update(|idx, p, g| {
            if self.m.len() <= idx {
                self.m.push(vec![0.0; p.len()]);
                self.v.push(vec![0.0; p.len()]);
            }
            let (m, v) = (&mut self.m[idx], &mut self.v[idx]);
            assert_eq!(
                m.len(),
                p.len(),
                "parameter tensor size changed between steps"
            );
            for (((w, &g), m), v) in p.iter_mut().zip(g).zip(m).zip(v) {
                let grad = g + weight_decay * *w;
                *m = beta1 * *m + (1.0 - beta1) * grad;
                *v = beta2 * *v + (1.0 - beta2) * grad * grad;
                let m_hat = *m / bias1;
                let v_hat = *v / bias2;
                *w -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        });
    }
}

/// The bias correction `1 − βᵗ` at step `t`, in f64 as the communication
/// engine's sharded Adam computes it: in f32, 1 − βᵗ loses all precision once βᵗ
/// rounds to 1. `powi` takes an `i32`, so a step past `i32::MAX` takes the
/// exact exponent instead of wrapping to a negative one.
fn bias_correction(beta: f32, t: u64) -> f32 {
    let beta_t = match i32::try_from(t) {
        Ok(t) => f64::from(beta).powi(t),
        Err(_) => f64::from(beta).powf(t as f64),
    };
    (1.0 - beta_t) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use crate::loss::mse;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quadratic_net(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new().push(Linear::new(2, 1, &mut rng))
    }

    #[test]
    fn adam_descends_a_quadratic() {
        let mut net = quadratic_net(0);
        let mut opt = Adam::new(0.05);
        let x = Tensor::from_vec(&[4, 2], vec![1., 0., 0., 1., 1., 1., 0.5, 0.5]);
        let target = Tensor::from_vec(&[4, 1], vec![1., 2., 3., 1.5]);
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..300 {
            let y = net.forward(&x);
            let (loss, dl) = mse(&y, &target);
            if step == 0 {
                first = loss;
            }
            last = loss;
            net.backward(&dl);
            opt.step(&mut net);
        }
        assert!(last < 0.02 * first.max(0.01), "{first} -> {last}");
        assert_eq!(opt.steps(), 300);
    }

    #[test]
    fn adam_handles_badly_scaled_gradients_better_than_sgd() {
        // One input dimension is 100x the other: Adam's per-element scaling
        // equalizes progress where a single SGD learning rate cannot.
        let run_adam = {
            let mut net = quadratic_net(3);
            let mut opt = Adam::new(0.05);
            let x = Tensor::from_vec(&[2, 2], vec![100., 0., 0., 0.01]);
            let target = Tensor::from_vec(&[2, 1], vec![5., -5.]);
            let mut last = 0.0;
            for _ in 0..400 {
                let y = net.forward(&x);
                let (loss, dl) = mse(&y, &target);
                last = loss;
                net.backward(&dl);
                opt.step(&mut net);
            }
            last
        };
        let run_sgd = {
            let mut net = quadratic_net(3);
            let mut opt = crate::optim::Sgd::new(1e-4); // larger diverges
            let x = Tensor::from_vec(&[2, 2], vec![100., 0., 0., 0.01]);
            let target = Tensor::from_vec(&[2, 1], vec![5., -5.]);
            let mut last = 0.0;
            for _ in 0..400 {
                let y = net.forward(&x);
                let (loss, dl) = mse(&y, &target);
                last = loss;
                net.backward(&dl);
                crate::optim::Optimizer::step(&mut opt, &mut net);
            }
            last
        };
        assert!(run_adam < run_sgd, "Adam {run_adam} >= SGD {run_sgd}");
    }

    #[test]
    fn keeps_updating_past_two_to_the_31_steps() {
        // At either step βᵗ is 0 in f64, so the correction is exactly 1.
        // An `i32` exponent would wrap: βᵗ = inf and no update at all at
        // 2^31 + 5, step 1's correction again at 2^32 + 1.
        for t in [(1u64 << 31) + 5, (1 << 32) + 1] {
            let mut net = quadratic_net(0);
            let mut opt = Adam::new(0.05);
            opt.step = t - 1;
            let w = net.flat_params();
            let g: Vec<f32> = (0..w.len()).map(|i| 0.5 - i as f32).collect();
            net.store_mut().set_flat_grads(&g);
            opt.step(&mut net);
            assert_eq!(opt.steps(), t);
            let want: Vec<u32> = w
                .iter()
                .zip(&g)
                .map(|(&w, &g)| {
                    let m = 0.9f32 * 0.0 + (1.0 - 0.9f32) * g;
                    let v = 0.999f32 * 0.0 + (1.0 - 0.999f32) * g * g;
                    (w - 0.05 * (m / 1.0) / ((v / 1.0).sqrt() + 1e-8)).to_bits()
                })
                .collect();
            let got: Vec<u32> = net.flat_params().iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "step {t}");
        }
    }

    #[test]
    #[should_panic(expected = "beta1")]
    fn invalid_beta_rejected() {
        let _ = Adam::with_options(0.1, 1.0, 0.999, 1e-8, 0.0);
    }

    #[test]
    fn fused_step_matches_the_indexed_loop_bitwise() {
        // The per-tensor loop as it ran on a cloned gradient vector.
        #[allow(clippy::too_many_arguments)]
        fn indexed(
            data: &mut [f32],
            g: &[f32],
            m: &mut [f32],
            v: &mut [f32],
            t: i32,
            lr: f32,
            (beta1, beta2, eps): (f32, f32, f32),
            weight_decay: f32,
        ) {
            let bias1 = (1.0 - f64::from(beta1).powi(t)) as f32;
            let bias2 = (1.0 - f64::from(beta2).powi(t)) as f32;
            for i in 0..data.len() {
                let grad = g[i] + weight_decay * data[i];
                m[i] = beta1 * m[i] + (1.0 - beta1) * grad;
                v[i] = beta2 * v[i] + (1.0 - beta2) * grad * grad;
                let m_hat = m[i] / bias1;
                let v_hat = v[i] / bias2;
                data[i] -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        }
        let mut rng = StdRng::seed_from_u64(8);
        let mut net = Sequential::new()
            .push(Linear::new(5, 7, &mut rng))
            .push(Linear::new(7, 3, &mut rng));
        let (lr, betas, wd) = (0.02, (0.9, 0.999, 1e-8), 1e-2);
        let mut opt = Adam::with_options(lr, betas.0, betas.1, betas.2, wd);
        let mut w = net.flat_params();
        let (mut m, mut v) = (vec![0.0; w.len()], vec![0.0; w.len()]);
        for step in 0..4 {
            let g: Vec<f32> = (0..w.len())
                .map(|i| ((i * 7 + step * 13) as f32 * 0.37).sin())
                .collect();
            net.store_mut().set_flat_grads(&g);
            opt.step(&mut net);
            indexed(&mut w, &g, &mut m, &mut v, step as i32 + 1, lr, betas, wd);
            let bits = |x: &[f32]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&net.flat_params()), bits(&w), "step {step}");
        }
    }
}
