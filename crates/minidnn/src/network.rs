//! A sequential network container with the hook points DeAR needs.
//!
//! During `backward`, a **GradReady** hook fires after each layer's
//! gradients are computed — last layer first, exactly the event PyTorch's
//! grad hooks deliver and the trigger for DeAR's OP1 (reduce-scatter).
//! During `forward`, a **PreForward** hook fires before each layer runs —
//! first layer first, the synchronization point for DeAR's OP2
//! (all-gather).
//!
//! The network owns its parameters and gradients in a [`ParamStore`] and
//! lends each layer its slices for the duration of a call. The hooks get
//! the store: that is where a distributed optimizer takes a finished
//! group's buffers out and puts arriving ones back.

use crate::layer::Layer;
use crate::store::ParamStore;
use crate::tensor::Tensor;

/// A stack of layers applied in order, and the store of their parameters.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    store: ParamStore,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field(
                "layers",
                &self.layers.iter().map(|l| l.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Sequential {
    /// Creates an empty network.
    #[must_use]
    pub fn new() -> Self {
        Sequential {
            layers: Vec::new(),
            store: ParamStore::default(),
        }
    }

    /// Appends a layer (builder style), moving its initial parameter
    /// values into the store.
    ///
    /// # Panics
    ///
    /// Panics if the layer's initial values do not match the shapes it
    /// declares.
    #[must_use]
    pub fn push(mut self, mut layer: impl Layer + 'static) -> Self {
        let init = layer.take_init();
        let declared: Vec<usize> = layer.params().iter().map(|p| p.len()).collect();
        let given: Vec<usize> = init.iter().map(Vec::len).collect();
        assert_eq!(
            given,
            declared,
            "{} does not initialise the tensors it declares",
            layer.name()
        );
        self.store.push_layer(init);
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True if the network has no layers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layers, for read access.
    #[must_use]
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// The parameters and gradients.
    #[must_use]
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// The parameters and gradients, for updates and re-packing.
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Total learnable parameter count.
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.store.len()
    }

    /// Plain forward pass.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        self.forward_with_hook(input, |_layer_idx, _store| {})
    }

    /// Forward pass raising the PreForward hook with each layer's index and
    /// the store (front to back) before that layer executes — the point
    /// where DeAR puts all-gathered parameters back.
    pub fn forward_with_hook(
        &mut self,
        input: &Tensor,
        mut pre_forward: impl FnMut(usize, &mut ParamStore),
    ) -> Tensor {
        self.try_forward_with_hook(input, |idx, store| {
            pre_forward(idx, store);
            true
        })
        .expect("this hook never stops the pass")
    }

    /// [`Sequential::forward_with_hook`] with a hook that may stop the
    /// pass by returning `false` — parameters it was waiting for will
    /// never arrive. `None` if it did.
    pub fn try_forward_with_hook(
        &mut self,
        input: &Tensor,
        mut pre_forward: impl FnMut(usize, &mut ParamStore) -> bool,
    ) -> Option<Tensor> {
        let mut x = input.clone();
        for (idx, layer) in self.layers.iter_mut().enumerate() {
            if !pre_forward(idx, &mut self.store) {
                return None;
            }
            x = layer.forward(&self.store.layer_params(idx), &x);
        }
        Some(x)
    }

    /// Plain backward pass from the loss gradient.
    pub fn backward(&mut self, grad_loss: &Tensor) -> Tensor {
        self.backward_with_hook(grad_loss, |_layer_idx, _store| {})
    }

    /// Backward pass raising the GradReady hook with each layer's index and
    /// the store (back to front) right after the layer's gradients are
    /// written — the point where DeAR takes a finished group's buffers.
    pub fn backward_with_hook(
        &mut self,
        grad_loss: &Tensor,
        mut grad_ready: impl FnMut(usize, &mut ParamStore),
    ) -> Tensor {
        let mut g = grad_loss.clone();
        for (idx, layer) in self.layers.iter_mut().enumerate().rev() {
            let (params, mut grads) = self.store.layer_views(idx);
            g = layer.backward(&params, &mut grads, &g);
            grad_ready(idx, &mut self.store);
        }
        g
    }

    /// Zeroes every gradient. A backward pass overwrites the gradients, so
    /// a training loop does not need this between steps.
    pub fn zero_grads(&mut self) {
        self.store.zero_grads();
    }

    /// Flattens all parameters into one vector (deterministic layer order),
    /// used for cross-worker consistency checks.
    #[must_use]
    pub fn flat_params(&self) -> Vec<f32> {
        self.store.flat_params()
    }

    /// Overwrites all parameters from a flat vector (inverse of
    /// [`Sequential::flat_params`]); see [`ParamStore::set_flat_params`].
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` does not equal [`Sequential::param_count`].
    pub fn set_flat_params(&mut self, flat: &[f32]) {
        self.store.set_flat_params(flat);
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Sequential::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_net(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new()
            .push(Linear::new(4, 8, &mut rng))
            .push(Relu::new())
            .push(Linear::new(8, 3, &mut rng))
    }

    #[test]
    fn forward_hook_fires_front_to_back() {
        let mut net = small_net(0);
        let mut order = Vec::new();
        let x = Tensor::zeros(&[2, 4]);
        let _ = net.forward_with_hook(&x, |idx, _| order.push(idx));
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn backward_hook_fires_back_to_front() {
        let mut net = small_net(0);
        let x = Tensor::zeros(&[2, 4]);
        let y = net.forward(&x);
        let mut order = Vec::new();
        let _ = net.backward_with_hook(&y, |idx, _| order.push(idx));
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn flat_params_roundtrip() {
        let mut net = small_net(1);
        let flat = net.flat_params();
        assert_eq!(flat.len(), net.param_count());
        let mut doubled = flat.clone();
        for x in &mut doubled {
            *x *= 2.0;
        }
        net.set_flat_params(&doubled);
        assert_eq!(net.flat_params(), doubled);
    }

    #[test]
    fn identical_seeds_produce_identical_networks() {
        let a = small_net(7);
        let b = small_net(7);
        assert_eq!(a.flat_params(), b.flat_params());
    }

    #[test]
    fn param_count_matches_structure() {
        let net = small_net(0);
        assert_eq!(net.param_count(), 4 * 8 + 8 + 8 * 3 + 3);
        assert_eq!(net.len(), 3);
        assert!(!net.is_empty());
    }
}
