//! SGD with momentum and weight decay — the optimizer that DeAR's
//! `DistOptim` wraps, matching the paper's Listing 1 usage.

use crate::network::Sequential;

/// A parameter-update rule applied from a network's gradients.
pub trait Optimizer: Send {
    /// Applies one update step to every parameter of `net` from its
    /// current gradients.
    fn step(&mut self, net: &mut Sequential);
}

/// Plain mini-batch SGD (Eq. 1) with optional momentum and L2 weight decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    /// One velocity buffer per parameter tensor, allocated lazily — with
    /// momentum only: without, SGD keeps no state.
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Creates an optimizer with learning rate `lr` and no momentum.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    #[must_use]
    pub fn new(lr: f32) -> Self {
        Sgd::with_options(lr, 0.0, 0.0)
    }

    /// Creates an optimizer with momentum and weight decay.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive, or if `momentum` is
    /// outside `[0, 1)`.
    #[must_use]
    pub fn with_options(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }

    /// The learning rate.
    #[must_use]
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Replaces the learning rate (e.g. for schedules).
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn set_lr(&mut self, lr: f32) {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }

    /// Applies one update step to every parameter of `net` from its current
    /// gradients: `v ← μv + (g + λw)`, `w ← w − η·v`; without momentum
    /// `w ← w − η·(g + λw)`, keeping no `v`.
    pub fn step(&mut self, net: &mut Sequential) {
        Optimizer::step(self, net);
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, net: &mut Sequential) {
        let Sgd {
            lr,
            momentum,
            weight_decay,
            ..
        } = *self;
        net.store_mut().update(|idx, p, g| {
            // Without momentum the velocity would only ever hold the step's
            // gradient. On finite values this is the stateful loop bit for
            // bit, except that a −0.0 weight meeting a −0.0 gradient may end
            // +0.0 where that kept −0.0.
            if momentum == 0.0 {
                for (w, &g) in p.iter_mut().zip(g) {
                    *w -= lr * (g + weight_decay * *w);
                }
                return;
            }
            if self.velocity.len() <= idx {
                self.velocity.push(vec![0.0; p.len()]);
            }
            let v = &mut self.velocity[idx];
            assert_eq!(
                v.len(),
                p.len(),
                "parameter tensor size changed between steps"
            );
            for ((w, &g), v) in p.iter_mut().zip(g).zip(v) {
                let grad = g + weight_decay * *w;
                *v = momentum * *v + grad;
                *w -= lr * *v;
            }
        });
    }
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
    fn sgd_descends_a_quadratic() {
        let mut net = quadratic_net(0);
        let mut opt = Sgd::new(0.1);
        let x = Tensor::from_vec(&[4, 2], vec![1., 0., 0., 1., 1., 1., 0.5, 0.5]);
        let target = Tensor::from_vec(&[4, 1], vec![1., 2., 3., 1.5]);
        let mut losses = Vec::new();
        for _ in 0..200 {
            let y = net.forward(&x);
            let (loss, dl) = mse(&y, &target);
            losses.push(loss);
            net.backward(&dl);
            opt.step(&mut net);
        }
        assert!(
            losses[199] < 0.01 * losses[0].max(0.01),
            "did not converge: {losses:?}"
        );
    }

    #[test]
    fn momentum_accelerates_convergence() {
        let run = |momentum: f32| {
            let mut net = quadratic_net(3);
            let mut opt = Sgd::with_options(0.02, momentum, 0.0);
            let x = Tensor::from_vec(&[2, 2], vec![1., 0., 0., 1.]);
            let target = Tensor::from_vec(&[2, 1], vec![5., -5.]);
            let mut last = 0.0;
            for _ in 0..50 {
                let y = net.forward(&x);
                let (loss, dl) = mse(&y, &target);
                last = loss;
                net.backward(&dl);
                opt.step(&mut net);
            }
            last
        };
        assert!(run(0.9) < run(0.0));
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut net = quadratic_net(5);
        let initial_norm: f32 = net.flat_params().iter().map(|x| x * x).sum();
        let mut opt = Sgd::with_options(0.1, 0.0, 0.5);
        // Zero gradients: only decay acts.
        for _ in 0..20 {
            net.zero_grads();
            opt.step(&mut net);
        }
        let final_norm: f32 = net.flat_params().iter().map(|x| x * x).sum();
        assert!(final_norm < initial_norm);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn non_positive_lr_rejected() {
        let _ = Sgd::new(0.0);
    }

    #[test]
    fn set_lr_changes_step_size() {
        let mut opt = Sgd::new(0.1);
        opt.set_lr(0.5);
        assert_eq!(opt.lr(), 0.5);
    }

    #[test]
    fn sgd_without_momentum_is_the_stateful_loop_but_at_signed_zeros() {
        // The stateful loop this rule replaced: `v ← 0·v + (g + λw)`,
        // `w ← w − η·v`, from any old velocity. Over every pairing of a grid
        // of finite weights, gradients and old velocities — signed zeros,
        // subnormals, ordinary and huge values — the stateless step keeps
        // no velocity and agrees to the bit, except for a −0.0 weight
        // meeting a −0.0 gradient: the stateful `+0.0 + −0.0` made the
        // velocity +0.0 and left the weight −0.0, the stateless step makes
        // it +0.0.
        let grid = [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            0.375,
            -3.5,
            1e-40,
            -1e-40,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1e30,
            -1e30,
        ];
        let cells: Vec<(f32, f32, f32)> = grid
            .iter()
            .flat_map(|&w| grid.iter().flat_map(move |&g| grid.map(|v| (w, g, v))))
            .collect();
        let lr = 0.05;
        for weight_decay in [0.0, 1e-2] {
            // One weight per cell: a single tensor holding the whole grid.
            let mut net = Sequential::new().push(crate::Embedding::new(
                cells.len(),
                1,
                &mut StdRng::seed_from_u64(0),
            ));
            let weights: Vec<f32> = cells.iter().map(|c| c.0).collect();
            let grads: Vec<f32> = cells.iter().map(|c| c.1).collect();
            net.set_flat_params(&weights);
            net.store_mut().set_flat_grads(&grads);
            let mut opt = Sgd::with_options(lr, 0.0, weight_decay);
            opt.step(&mut net);
            assert!(opt.velocity.is_empty(), "a velocity was kept");
            let mut exceptions = 0;
            for (&(w, g, v), got) in cells.iter().zip(net.flat_params()) {
                let mut old = (w, v);
                old.1 = 0.0 * old.1 + (g + weight_decay * old.0);
                old.0 -= lr * old.1;
                if got.to_bits() != old.0.to_bits() {
                    let negative_zero = |x: f32| x.to_bits() == (-0.0f32).to_bits();
                    assert!(
                        negative_zero(w) && negative_zero(g),
                        "w {w:e} g {g:e} v {v:e} λ {weight_decay}: {got:e}, not {:e}",
                        old.0
                    );
                    assert_eq!((got.to_bits(), old.0.to_bits()), (0, (-0.0f32).to_bits()));
                    exceptions += 1;
                }
            }
            assert!(exceptions > 0, "the (−0.0, −0.0) exception is real");
        }
    }

    #[test]
    fn fused_step_matches_the_two_sweep_loops_bitwise() {
        // The update as it ran before parameters and gradients could be
        // borrowed together: `v ← μv + (g + λw)` for a whole tensor, then
        // `w ← w − η·v`.
        fn two_sweeps(w: &mut [f32], g: &[f32], v: &mut [f32], lr: f32, mu: f32, wd: f32) {
            for ((v, &g), &w) in v.iter_mut().zip(g).zip(w.iter()) {
                let grad = g + wd * w;
                *v = mu * *v + grad;
            }
            for (w, &v) in w.iter_mut().zip(v.iter()) {
                *w -= lr * v;
            }
        }
        let mut rng = StdRng::seed_from_u64(8);
        let mut net = Sequential::new()
            .push(Linear::new(5, 7, &mut rng))
            .push(Linear::new(7, 3, &mut rng));
        let (lr, mu, wd) = (0.05, 0.9, 1e-2);
        let mut opt = Sgd::with_options(lr, mu, wd);
        let mut w = net.flat_params();
        let mut v = vec![0.0; w.len()];
        for step in 0..4 {
            let g: Vec<f32> = (0..w.len())
                .map(|i| ((i * 7 + step * 13) as f32 * 0.37).sin())
                .collect();
            net.store_mut().set_flat_grads(&g);
            opt.step(&mut net);
            two_sweeps(&mut w, &g, &mut v, lr, mu, wd);
            let bits = |x: &[f32]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&net.flat_params()), bits(&w), "step {step}");
        }
    }
}
