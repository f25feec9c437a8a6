//! 2-D convolution — the layer family behind the paper's ResNet/DenseNet/
//! Inception workloads. Direct (loop-based) implementation with full
//! backward, suitable for the small images the correctness experiments use.

use rand::Rng;

use crate::layer::{Layer, ParamShape};
use crate::tensor::Tensor;

/// A 2-D convolution with stride 1 and symmetric zero padding.
///
/// Input rows are flattened `[channels × height × width]` images (row-major
/// `c, h, w`); the batched input tensor is `[batch, c·h·w]`, matching the
/// rest of the substrate's 2-D tensor convention. Two parameter tensors:
/// the kernel `[out_c, in_c, k, k]` (flattened) and the per-output-channel
/// bias.
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_c: usize,
    out_c: usize,
    h: usize,
    w: usize,
    k: usize,
    pad: usize,
    /// Initial kernel and bias, until the layer is pushed.
    init: Vec<Vec<f32>>,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution over `in_c × h × w` inputs with `out_c`
    /// output channels, a `k × k` kernel, and `pad` zero padding (use
    /// `pad = k / 2` for same-size outputs with odd `k`).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or the kernel does not fit the
    /// padded input.
    #[must_use]
    pub fn new(
        in_c: usize,
        out_c: usize,
        h: usize,
        w: usize,
        k: usize,
        pad: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            in_c > 0 && out_c > 0 && h > 0 && w > 0 && k > 0,
            "dims must be positive"
        );
        assert!(
            h + 2 * pad >= k && w + 2 * pad >= k,
            "kernel larger than padded input"
        );
        let fan_in = (in_c * k * k) as f32;
        let limit = (3.0 / fan_in).sqrt();
        let weight_data: Vec<f32> = (0..out_c * in_c * k * k)
            .map(|_| rng.gen_range(-limit..=limit))
            .collect();
        Conv2d {
            in_c,
            out_c,
            h,
            w,
            k,
            pad,
            init: vec![weight_data, vec![0.0; out_c]],
            cached_input: None,
        }
    }

    /// Output spatial height.
    #[must_use]
    pub fn out_h(&self) -> usize {
        self.h + 2 * self.pad - self.k + 1
    }

    /// Output spatial width.
    #[must_use]
    pub fn out_w(&self) -> usize {
        self.w + 2 * self.pad - self.k + 1
    }

    /// Flattened output feature count (`out_c · out_h · out_w`).
    #[must_use]
    pub fn out_features(&self) -> usize {
        self.out_c * self.out_h() * self.out_w()
    }

    #[inline]
    fn input_at(&self, x: &Tensor, b: usize, c: usize, ih: isize, iw: isize) -> f32 {
        if ih < 0 || iw < 0 || ih >= self.h as isize || iw >= self.w as isize {
            return 0.0; // zero padding
        }
        x.at(b, c * self.h * self.w + ih as usize * self.w + iw as usize)
    }

    /// Flat index into the `[out_c, in_c·k·k]` kernel.
    #[inline]
    fn widx(&self, oc: usize, ic: usize, kh: usize, kw: usize) -> usize {
        (oc * self.in_c + ic) * self.k * self.k + kh * self.k + kw
    }
}

impl Layer for Conv2d {
    fn name(&self) -> String {
        format!(
            "conv2d({}x{}x{} -> {}, k{}, p{})",
            self.in_c, self.h, self.w, self.out_c, self.k, self.pad
        )
    }

    fn params(&self) -> Vec<ParamShape> {
        vec![
            ParamShape::new(&[self.out_c, self.in_c * self.k * self.k]),
            ParamShape::new(&[self.out_c]),
        ]
    }

    fn take_init(&mut self) -> Vec<Vec<f32>> {
        std::mem::take(&mut self.init)
    }

    fn forward(&mut self, params: &[&[f32]], input: &Tensor) -> Tensor {
        assert_eq!(
            input.cols(),
            self.in_c * self.h * self.w,
            "conv2d input feature mismatch"
        );
        let (weight, bias) = (params[0], params[1]);
        let batch = input.rows();
        let (oh, ow) = (self.out_h(), self.out_w());
        let mut out = Tensor::zeros(&[batch, self.out_c * oh * ow]);
        for b in 0..batch {
            for oc in 0..self.out_c {
                for y in 0..oh {
                    for x in 0..ow {
                        let mut acc = bias[oc];
                        for ic in 0..self.in_c {
                            for kh in 0..self.k {
                                for kw in 0..self.k {
                                    let ih = y as isize + kh as isize - self.pad as isize;
                                    let iw = x as isize + kw as isize - self.pad as isize;
                                    acc += weight[self.widx(oc, ic, kh, kw)]
                                        * self.input_at(input, b, ic, ih, iw);
                                }
                            }
                        }
                        *out.at_mut(b, oc * oh * ow + y * ow + x) = acc;
                    }
                }
            }
        }
        self.cached_input = Some(input.clone());
        out
    }

    fn backward(
        &mut self,
        params: &[&[f32]],
        grads: &mut [&mut [f32]],
        grad_output: &Tensor,
    ) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        let weight = params[0];
        let [grad_weight, grad_bias] = grads else {
            panic!("conv2d has two parameter tensors");
        };
        grad_weight.fill(0.0);
        grad_bias.fill(0.0);
        let batch = grad_output.rows();
        let (oh, ow) = (self.out_h(), self.out_w());
        assert_eq!(
            grad_output.cols(),
            self.out_c * oh * ow,
            "conv2d grad shape"
        );
        let mut grad_in = Tensor::zeros(&[batch, self.in_c * self.h * self.w]);
        for b in 0..batch {
            for oc in 0..self.out_c {
                for y in 0..oh {
                    for x in 0..ow {
                        let dy = grad_output.at(b, oc * oh * ow + y * ow + x);
                        if dy == 0.0 {
                            continue;
                        }
                        grad_bias[oc] += dy;
                        for ic in 0..self.in_c {
                            for kh in 0..self.k {
                                for kw in 0..self.k {
                                    let ih = y as isize + kh as isize - self.pad as isize;
                                    let iw = x as isize + kw as isize - self.pad as isize;
                                    if ih < 0
                                        || iw < 0
                                        || ih >= self.h as isize
                                        || iw >= self.w as isize
                                    {
                                        continue;
                                    }
                                    let wi = self.widx(oc, ic, kh, kw);
                                    let in_idx =
                                        ic * self.h * self.w + ih as usize * self.w + iw as usize;
                                    grad_weight[wi] += dy * input.at(b, in_idx);
                                    *grad_in.at_mut(b, in_idx) += dy * weight[wi];
                                }
                            }
                        }
                    }
                }
            }
        }
        grad_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use crate::layers::{Linear, Relu};
    use crate::network::Sequential;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_kernel_reproduces_input() {
        // A single-channel 1x1 kernel of weight 1 is the identity map.
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, 3, 3, 1, 0, &mut rng);
        let x = Tensor::from_vec(&[1, 9], (0..9).map(|i| i as f32).collect());
        let y = conv.forward(&[&[1.0], &[0.0]], &x);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_convolution() {
        // Sum kernel over a padded 2x2 image: each output = sum of the
        // 3x3 neighbourhood.
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new(1, 1, 2, 2, 3, 1, &mut rng);
        let x = Tensor::from_vec(&[1, 4], vec![1.0, 2.0, 3.0, 4.0]);
        let y = conv.forward(&[&[1.0; 9], &[0.0]], &x);
        // All four taps see the whole image (2x2 inside 3x3 window).
        assert_eq!(y.data(), &[10.0, 10.0, 10.0, 10.0]);
        assert_eq!(conv.out_features(), 4);
    }

    #[test]
    fn output_dimensions() {
        let mut rng = StdRng::seed_from_u64(2);
        let conv = Conv2d::new(3, 8, 6, 5, 3, 1, &mut rng);
        assert_eq!(conv.out_h(), 6);
        assert_eq!(conv.out_w(), 5);
        assert_eq!(conv.out_features(), 8 * 30);
        assert_eq!(conv.param_count(), 8 * 3 * 9 + 8);
    }

    #[test]
    fn conv_gradients_match_finite_differences() {
        // Tanh (not ReLU) after the conv: finite differences break at ReLU
        // kinks, and convolution outputs cluster near zero.
        let mut rng = StdRng::seed_from_u64(3);
        let conv = Conv2d::new(2, 3, 4, 4, 3, 1, &mut rng);
        let out_features = conv.out_features();
        let mut net = Sequential::new()
            .push(conv)
            .push(crate::layers::Tanh::new())
            .push(Linear::new(out_features, 2, &mut rng));
        let x = Tensor::from_vec(
            &[2, 2 * 16],
            (0..64).map(|i| ((i as f32) * 0.19).cos()).collect(),
        );
        let report = check_gradients(&mut net, &x, &[0, 1], 11);
        assert!(
            report.max_rel_error < 0.08,
            "conv gradcheck failed: {}",
            report.max_rel_error
        );
    }

    #[test]
    fn conv_net_trains_on_blobs() {
        use crate::data::BlobDataset;
        use crate::loss::softmax_cross_entropy;
        use crate::optim::Sgd;
        let mut rng = StdRng::seed_from_u64(4);
        let conv = Conv2d::new(1, 4, 4, 4, 3, 1, &mut rng);
        let feats = conv.out_features();
        let mut net = Sequential::new()
            .push(conv)
            .push(Relu::new())
            .push(Linear::new(feats, 3, &mut rng));
        let data = BlobDataset::new(16, 3, 0.3, 9); // 16 = 1x4x4 "images"
        let mut opt = Sgd::new(0.05);
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..80 {
            let (x, labels) = data.batch(step, 16);
            let logits = net.forward(&x);
            let (loss, dloss) = softmax_cross_entropy(&logits, &labels);
            if step == 0 {
                first = loss;
            }
            last = loss;
            net.backward(&dloss);
            opt.step(&mut net);
        }
        assert!(
            last < 0.3 * first,
            "conv net did not learn: {first} -> {last}"
        );
    }

    #[test]
    #[should_panic(expected = "kernel larger")]
    fn oversized_kernel_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = Conv2d::new(1, 1, 2, 2, 5, 0, &mut rng);
    }
}
