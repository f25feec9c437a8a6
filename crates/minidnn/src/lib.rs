//! # dear-minidnn — a minimal deep-learning training substrate
//!
//! The stand-in for PyTorch in the DeAR reproduction. It provides exactly
//! what the paper's system needs from the DL framework:
//!
//! - [`Tensor`]: dense row-major `f32` tensors with the handful of ops an
//!   MLP needs.
//! - [`Layer`] / [`Linear`] / [`Relu`] / [`Tanh`]: layers with manual
//!   forward/backward over parameter and gradient slices they borrow.
//! - [`ParamStore`]: the one resident copy of a network's parameters and
//!   gradients, segmented the way the communication runtime fuses them —
//!   backward writes gradients where the collectives read them.
//! - [`Sequential`]: a network container raising **GradReady** hooks during
//!   backprop (last layer → first) and **PreForward** hooks during the
//!   forward pass (first → last) — the two attachment points for DeAR's
//!   BackPipe (reduce-scatter) and FeedPipe (all-gather).
//! - [`Sgd`]: the optimizer `DistOptim` wraps.
//! - [`BlobDataset`]: deterministic synthetic data, shardable across
//!   workers so S-SGD equivalence can be asserted bitwise.
//! - [`gradcheck`]: finite-difference validation of every backward pass.
//!
//! # Examples
//!
//! Train a tiny classifier:
//!
//! ```
//! use dear_minidnn::{softmax_cross_entropy, BlobDataset, Linear, Relu, Sequential, Sgd};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = Sequential::new()
//!     .push(Linear::new(4, 16, &mut rng))
//!     .push(Relu::new())
//!     .push(Linear::new(16, 3, &mut rng));
//! let mut opt = Sgd::new(0.1);
//! let data = BlobDataset::new(4, 3, 0.2, 7);
//! let mut first_loss = None;
//! let mut last_loss = 0.0;
//! for step in 0..100 {
//!     let (x, labels) = data.batch(step, 32);
//!     let logits = net.forward(&x);
//!     let (loss, dloss) = softmax_cross_entropy(&logits, &labels);
//!     first_loss.get_or_insert(loss);
//!     last_loss = loss;
//!     net.backward(&dloss); // writes the gradients: nothing to zero first
//!     opt.step(&mut net);
//! }
//! assert!(last_loss < 0.5 * first_loss.unwrap());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod adam;
mod attention;
mod data;
mod embedding;
pub mod gradcheck;
mod layer;
mod layers;
mod loss;
mod network;
mod optim;
mod store;
mod tensor;

pub use adam::Adam;
pub use attention::SelfAttention;
pub use data::BlobDataset;
pub use embedding::Embedding;
pub use layer::{Layer, ParamShape};
pub use layers::{LayerNorm, Linear, Relu, Tanh};
pub use loss::{accuracy, mse, softmax_cross_entropy};
pub use network::Sequential;
pub use optim::{Optimizer, Sgd};
pub use store::ParamStore;
pub use tensor::Tensor;
