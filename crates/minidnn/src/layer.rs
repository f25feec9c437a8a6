//! The layer abstraction: forward/backward over parameter and gradient
//! slices borrowed from the network's [`crate::ParamStore`].
//!
//! The DeAR runtime attaches to the two hook points the paper's PyTorch
//! implementation uses — gradient-ready events during backprop and
//! pre-forward events during the next iteration — which [`crate::Sequential`]
//! raises around calls into this trait.

use crate::tensor::Tensor;

/// The declared shape of one parameter tensor of a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamShape(Vec<usize>);

impl ParamShape {
    /// A tensor of the given dimensions.
    #[must_use]
    pub fn new(dims: &[usize]) -> Self {
        ParamShape(dims.to_vec())
    }

    /// The dimensions.
    #[must_use]
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.iter().product()
    }

    /// True if the tensor has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One learnable (or pass-through) layer of a network.
///
/// A layer owns neither its parameters nor its gradients: the network's
/// [`crate::ParamStore`] does, laid out as the communication runtime wants
/// them, and lends the layer one flat slice per tensor of
/// [`Layer::params`] (row-major, in that order) for the duration of a
/// `forward` or `backward` call. `forward` must cache whatever it needs
/// for `backward`. Batched inputs are 2-D `[batch, features]` tensors.
pub trait Layer: Send {
    /// Human-readable layer name (e.g. `"linear(64->32)"`).
    fn name(&self) -> String;

    /// Shapes of the parameter tensors (possibly none).
    fn params(&self) -> Vec<ParamShape> {
        Vec::new()
    }

    /// Hands over the initial value of every tensor of [`Layer::params`],
    /// in order. [`crate::Sequential::push`] calls it once and moves the
    /// values into the store; the layer holds none from then on.
    fn take_init(&mut self) -> Vec<Vec<f32>> {
        Vec::new()
    }

    /// Computes the layer output for `input`, caching activations needed by
    /// the backward pass.
    fn forward(&mut self, params: &[&[f32]], input: &Tensor) -> Tensor;

    /// Given `d(loss)/d(output)`, **writes** the gradient of every
    /// parameter tensor into `grads` and returns `d(loss)/d(input)`.
    ///
    /// "Writes", not "adds to": `grads` may hold anything on entry (the
    /// previous step's reduced sums, say) and every element must come out
    /// as the sum chain `0.0 + …` of this call alone, in a fixed order —
    /// the runtime ships the slices as they are, and no zeroing sweep runs
    /// between steps.
    ///
    /// Must be called after a matching [`Layer::forward`].
    fn backward(
        &mut self,
        params: &[&[f32]],
        grads: &mut [&mut [f32]],
        grad_output: &Tensor,
    ) -> Tensor;

    /// Total number of learnable scalars.
    fn param_count(&self) -> usize {
        self.params().iter().map(ParamShape::len).sum()
    }
}
