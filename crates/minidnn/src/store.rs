//! The parameter store: the one resident copy of a network's parameters
//! and gradients, laid out in **segments**.
//!
//! A segment is one flat parameter buffer plus one flat gradient buffer
//! holding a run of tensors back to back. A plain [`crate::Sequential`]
//! gets one segment per tensor; a distributed optimizer re-packs the store
//! ([`ParamStore::repack`]) so that every fusion group is one segment, and
//! from then on the buffers the layers compute on *are* the buffers the
//! collectives run on. They travel by move: the optimizer **takes** a
//! segment's buffers out when its group's gradients are complete and
//! **puts** them back when the communication thread returns them. While
//! they are away nothing can read them — touching an absent segment is a
//! panic, never a stale value.

use std::ops::Range;

/// Where one tensor lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    segment: usize,
    offset: usize,
    len: usize,
}

impl Slot {
    fn range(&self) -> Range<usize> {
        self.offset..self.offset + self.len
    }
}

/// One buffer per segment; `None` while the buffer is away.
type Buffers = Vec<Option<Vec<f32>>>;

#[cold]
fn away(segment: usize) -> ! {
    panic!(
        "segment {segment} is away: its buffers are with the communication thread (call \
         `synchronize` first) or were lost with a failed step (roll back with `set_flat_params`)"
    )
}

fn home(bufs: &Buffers, segment: usize) -> &[f32] {
    bufs[segment].as_deref().unwrap_or_else(|| away(segment))
}

fn home_mut(bufs: &mut Buffers, segment: usize) -> &mut [f32] {
    bufs[segment]
        .as_deref_mut()
        .unwrap_or_else(|| away(segment))
}

/// Views of the tensors at `slots`.
fn slices<'a>(bufs: &'a Buffers, slots: &[Slot]) -> Vec<&'a [f32]> {
    slots
        .iter()
        .map(|slot| &home(bufs, slot.segment)[slot.range()])
        .collect()
}

/// Disjoint mutable views of the tensors at `slots`, which must be in
/// storage order (ascending segment, then offset).
fn slices_mut<'a>(bufs: &'a mut Buffers, slots: &[Slot]) -> Vec<&'a mut [f32]> {
    let mut out = Vec::with_capacity(slots.len());
    let mut segments = bufs.iter_mut().enumerate();
    // The current segment, the offset its unclaimed tail starts at, and
    // that tail.
    let mut current: Option<(usize, usize, &'a mut [f32])> = None;
    for slot in slots {
        let (base, tail) = match current.take() {
            Some((segment, base, tail)) if segment == slot.segment => (base, tail),
            _ => {
                let (_, buf) = segments
                    .find(|(segment, _)| *segment == slot.segment)
                    .expect("a layer's tensors are stored in tensor order");
                let buf = buf.as_deref_mut().unwrap_or_else(|| away(slot.segment));
                (0, buf)
            }
        };
        let (mine, rest) = tail[slot.offset - base..].split_at_mut(slot.len);
        out.push(mine);
        current = Some((slot.segment, slot.offset + slot.len, rest));
    }
    out
}

/// The parameters and gradients of a network, in segments (see the module
/// docs).
#[derive(Debug, Default)]
pub struct ParamStore {
    /// The `(layer, tensor)` pairs of every segment, in buffer order.
    segmentation: Vec<Vec<(usize, usize)>>,
    params: Buffers,
    grads: Buffers,
    /// `slots[layer][tensor]`.
    slots: Vec<Vec<Slot>>,
}

impl ParamStore {
    /// Appends a layer with the given initial tensors, each as a segment
    /// of its own — the default segmentation.
    pub(crate) fn push_layer(&mut self, init: Vec<Vec<f32>>) {
        let layer = self.slots.len();
        let mut slots = Vec::with_capacity(init.len());
        for (tensor, values) in init.into_iter().enumerate() {
            slots.push(Slot {
                segment: self.segmentation.len(),
                offset: 0,
                len: values.len(),
            });
            self.segmentation.push(vec![(layer, tensor)]);
            self.grads.push(Some(vec![0.0; values.len()]));
            self.params.push(Some(values));
        }
        self.slots.push(slots);
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.iter().flatten().map(|s| s.len).sum()
    }

    /// True if the store holds no element.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `(layer, tensor)` pairs of every segment, in buffer order.
    #[must_use]
    pub fn segmentation(&self) -> &[Vec<(usize, usize)>] {
        &self.segmentation
    }

    /// Element count of `segment`.
    #[must_use]
    pub fn segment_len(&self, segment: usize) -> usize {
        self.segmentation[segment]
            .iter()
            .map(|&(layer, tensor)| self.slots[layer][tensor].len)
            .sum()
    }

    /// Re-packs the store to `segmentation`: one segment per entry, holding
    /// the listed `(layer, tensor)` pairs back to back. Parameter and
    /// gradient values carry over. Old segments are released as they empty,
    /// so the store never holds more than one segment above the model.
    ///
    /// # Panics
    ///
    /// Panics if a segment is away, if `segmentation` does not name every
    /// tensor exactly once, or if it stores a layer's tensors out of
    /// tensor order.
    pub fn repack(&mut self, segmentation: &[Vec<(usize, usize)>]) {
        let mut unmoved: Vec<usize> = self.segmentation.iter().map(Vec::len).collect();
        let mut slots: Vec<Vec<Option<Slot>>> =
            self.slots.iter().map(|l| vec![None; l.len()]).collect();
        let mut params = Vec::with_capacity(segmentation.len());
        let mut grads = Vec::with_capacity(segmentation.len());
        for (segment, tensors) in segmentation.iter().enumerate() {
            let len = tensors.iter().map(|&(l, t)| self.slots[l][t].len).sum();
            let (mut p, mut g) = (Vec::with_capacity(len), Vec::with_capacity(len));
            for &(layer, tensor) in tensors {
                let old = self.slots[layer][tensor];
                let new = Slot {
                    segment,
                    offset: p.len(),
                    len: old.len,
                };
                assert!(
                    slots[layer][tensor].replace(new).is_none(),
                    "tensor {tensor} of layer {layer} is named twice"
                );
                p.extend_from_slice(&home(&self.params, old.segment)[old.range()]);
                g.extend_from_slice(&home(&self.grads, old.segment)[old.range()]);
                unmoved[old.segment] -= 1;
                if unmoved[old.segment] == 0 {
                    self.params[old.segment] = None;
                    self.grads[old.segment] = None;
                }
            }
            params.push(Some(p));
            grads.push(Some(g));
        }
        self.slots = slots
            .into_iter()
            .map(|layer| {
                let layer: Vec<Slot> = layer
                    .into_iter()
                    .map(|s| s.expect("the segmentation names every tensor"))
                    .collect();
                assert!(
                    layer
                        .windows(2)
                        .all(|w| (w[0].segment, w[0].offset) < (w[1].segment, w[1].offset)),
                    "a layer's tensors must be stored in tensor order"
                );
                layer
            })
            .collect();
        self.segmentation = segmentation.to_vec();
        self.params = params;
        self.grads = grads;
    }

    /// Whether `segment`'s parameter buffer is here.
    #[must_use]
    pub fn has_params(&self, segment: usize) -> bool {
        self.params[segment].is_some()
    }

    /// Moves `segment`'s parameter buffer out of the store.
    ///
    /// # Panics
    ///
    /// Panics if it is already away.
    pub fn take_params(&mut self, segment: usize) -> Vec<f32> {
        self.params[segment].take().unwrap_or_else(|| away(segment))
    }

    /// Moves `segment`'s gradient buffer out of the store.
    ///
    /// # Panics
    ///
    /// Panics if it is already away.
    pub fn take_grads(&mut self, segment: usize) -> Vec<f32> {
        self.grads[segment].take().unwrap_or_else(|| away(segment))
    }

    /// Puts a parameter buffer back as `segment`'s — any allocation of the
    /// right length, not necessarily the one taken.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is not [`ParamStore::segment_len`] long.
    pub fn put_params(&mut self, segment: usize, buf: Vec<f32>) {
        assert_eq!(
            buf.len(),
            self.segment_len(segment),
            "parameter buffer of segment {segment} has the wrong length"
        );
        self.params[segment] = Some(buf);
    }

    /// Puts a gradient buffer back as `segment`'s. An empty `buf` (a
    /// collective that consumed the buffer hands none back) is replaced by
    /// a new one; its contents do not matter, the next backward pass
    /// writes them.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is neither empty nor [`ParamStore::segment_len`]
    /// long.
    pub fn put_grads(&mut self, segment: usize, buf: Vec<f32>) {
        let len = self.segment_len(segment);
        assert!(
            buf.is_empty() || buf.len() == len,
            "gradient buffer of segment {segment} has the wrong length"
        );
        self.grads[segment] = Some(if buf.len() == len {
            buf
        } else {
            vec![0.0; len]
        });
    }

    /// The values of one parameter tensor.
    ///
    /// # Panics
    ///
    /// Panics if its segment is away.
    #[must_use]
    pub fn param(&self, layer: usize, tensor: usize) -> &[f32] {
        let slot = self.slots[layer][tensor];
        &home(&self.params, slot.segment)[slot.range()]
    }

    /// The gradient of one parameter tensor.
    ///
    /// # Panics
    ///
    /// Panics if its segment is away.
    #[must_use]
    pub fn grad(&self, layer: usize, tensor: usize) -> &[f32] {
        let slot = self.slots[layer][tensor];
        &home(&self.grads, slot.segment)[slot.range()]
    }

    /// The parameter tensors of `layer`, for its forward pass.
    pub(crate) fn layer_params(&self, layer: usize) -> Vec<&[f32]> {
        slices(&self.params, &self.slots[layer])
    }

    /// The parameter tensors of `layer` and its gradient tensors to write,
    /// for its backward pass.
    pub(crate) fn layer_views(&mut self, layer: usize) -> (Vec<&[f32]>, Vec<&mut [f32]>) {
        let slots = &self.slots[layer];
        (
            slices(&self.params, slots),
            slices_mut(&mut self.grads, slots),
        )
    }

    /// Calls `f(index, parameters, gradient)` for every tensor in forward
    /// order (`index` counts them) — the optimizers' update loop.
    ///
    /// # Panics
    ///
    /// Panics if a segment is away.
    pub fn update(&mut self, mut f: impl FnMut(usize, &mut [f32], &[f32])) {
        for (index, slot) in self.slots.iter().flatten().enumerate() {
            f(
                index,
                &mut home_mut(&mut self.params, slot.segment)[slot.range()],
                &home(&self.grads, slot.segment)[slot.range()],
            );
        }
    }

    /// Sets every gradient to zero.
    ///
    /// # Panics
    ///
    /// Panics if a segment is away.
    pub fn zero_grads(&mut self) {
        for segment in 0..self.grads.len() {
            home_mut(&mut self.grads, segment).fill(0.0);
        }
    }

    fn flat(&self, bufs: &Buffers) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.len());
        for slot in self.slots.iter().flatten() {
            out.extend_from_slice(&home(bufs, slot.segment)[slot.range()]);
        }
        out
    }

    /// All parameters as one vector, tensors in forward order.
    ///
    /// # Panics
    ///
    /// Panics if a segment is away.
    #[must_use]
    pub fn flat_params(&self) -> Vec<f32> {
        self.flat(&self.params)
    }

    /// All gradients as one vector, laid out like
    /// [`ParamStore::flat_params`].
    ///
    /// # Panics
    ///
    /// Panics if a segment is away.
    #[must_use]
    pub fn flat_grads(&self) -> Vec<f32> {
        self.flat(&self.grads)
    }

    /// Overwrites all parameters from a flat vector (inverse of
    /// [`ParamStore::flat_params`]). This is also the rollback after a
    /// failed step: buffers that were lost with it are re-created first
    /// (gradients zeroed), so the store is whole again afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` does not equal [`ParamStore::len`].
    pub fn set_flat_params(&mut self, flat: &[f32]) {
        for segment in 0..self.segmentation.len() {
            let len = self.segment_len(segment);
            self.params[segment].get_or_insert_with(|| vec![0.0; len]);
            self.grads[segment].get_or_insert_with(|| vec![0.0; len]);
        }
        Self::scatter(&self.slots, &mut self.params, flat);
    }

    /// Overwrites all gradients from a flat vector (inverse of
    /// [`ParamStore::flat_grads`]) — for gradients aggregated outside the
    /// store, e.g. through a compressor.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` does not equal [`ParamStore::len`] or a
    /// segment is away.
    pub fn set_flat_grads(&mut self, flat: &[f32]) {
        Self::scatter(&self.slots, &mut self.grads, flat);
    }

    fn scatter(slots: &[Vec<Slot>], bufs: &mut Buffers, flat: &[f32]) {
        let total: usize = slots.iter().flatten().map(|s| s.len).sum();
        assert_eq!(flat.len(), total, "flat vector length mismatch");
        let mut offset = 0;
        for slot in slots.iter().flatten() {
            home_mut(bufs, slot.segment)[slot.range()]
                .copy_from_slice(&flat[offset..offset + slot.len]);
            offset += slot.len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two layers: tensors of 3 and 2 elements, then one of 4.
    fn store() -> ParamStore {
        let mut s = ParamStore::default();
        s.push_layer(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0]]);
        s.push_layer(Vec::new());
        s.push_layer(vec![vec![6.0, 7.0, 8.0, 9.0]]);
        s
    }

    #[test]
    fn default_segmentation_is_one_segment_per_tensor() {
        let s = store();
        assert_eq!(
            s.segmentation(),
            &[vec![(0, 0)], vec![(0, 1)], vec![(2, 0)]]
        );
        assert_eq!(s.len(), 9);
        assert_eq!(s.param(0, 1), &[4.0, 5.0]);
        assert_eq!(s.grad(2, 0), &[0.0; 4]);
    }

    #[test]
    fn repack_carries_values_over_and_remaps_tensors() {
        let mut s = store();
        s.set_flat_grads(&[0.0, 0.0, 0.0, 0.5, 0.25, 0.0, 0.0, 0.0, 0.0]);
        let flat = s.flat_params();
        // Backward ready order, last layer first, fused into two segments.
        let packed = vec![vec![(2, 0), (0, 0)], vec![(0, 1)]];
        s.repack(&packed);
        assert_eq!(s.segmentation(), &packed[..]);
        assert_eq!(s.segment_len(0), 7);
        assert_eq!(s.flat_params(), flat);
        assert_eq!(s.param(0, 0), &[1.0, 2.0, 3.0]);
        assert_eq!(s.grad(0, 1), &[0.5, 0.25]);
        let whole = s.take_params(0);
        assert_eq!(whole, [6.0, 7.0, 8.0, 9.0, 1.0, 2.0, 3.0]);
        s.put_params(0, whole);
        // And back to a finer one.
        s.repack(&[vec![(0, 0)], vec![(0, 1), (2, 0)]]);
        assert_eq!(s.flat_params(), flat);
        assert_eq!(s.flat_grads()[3..5], [0.5, 0.25]);
    }

    #[test]
    fn layer_views_are_disjoint_within_and_across_segments() {
        let mut s = store();
        for packed in [
            vec![vec![(0, 0), (0, 1), (2, 0)]],
            vec![vec![(2, 0), (0, 0)], vec![(0, 1)]],
        ] {
            s.repack(&packed);
            let (params, mut grads) = s.layer_views(0);
            assert_eq!(params, [&[1.0, 2.0, 3.0][..], &[4.0, 5.0][..]]);
            grads[0].fill(-1.0);
            grads[1].fill(-2.0);
            assert_eq!(s.grad(0, 0), &[-1.0; 3]);
            assert_eq!(s.grad(0, 1), &[-2.0; 2]);
            assert_eq!(s.grad(2, 0), &[0.0; 4]);
            s.zero_grads();
        }
    }

    #[test]
    fn put_accepts_another_allocation_and_recreates_an_empty_gradient_buffer() {
        let mut s = store();
        let _ = s.take_params(2);
        let _ = s.take_grads(2);
        assert!(!s.has_params(2));
        s.put_params(2, vec![9.0; 4]);
        s.put_grads(2, Vec::new());
        assert_eq!(s.param(2, 0), &[9.0; 4]);
        assert_eq!(s.grad(2, 0).len(), 4);
    }

    #[test]
    #[should_panic(expected = "synchronize")]
    fn reading_an_absent_segment_panics() {
        let mut s = store();
        let _ = s.take_params(1);
        let _ = s.flat_params();
    }

    #[test]
    fn set_flat_params_recreates_lost_segments() {
        let mut s = store();
        let flat = s.flat_params();
        drop(s.take_params(0));
        drop(s.take_grads(2));
        s.set_flat_params(&flat);
        assert_eq!(s.flat_params(), flat);
        assert_eq!(s.flat_grads(), vec![0.0; 9]);
    }

    #[test]
    #[should_panic(expected = "named twice")]
    fn repack_rejects_a_repeated_tensor() {
        store().repack(&[vec![(0, 0), (0, 0)], vec![(0, 1), (2, 0)]]);
    }

    #[test]
    #[should_panic(expected = "names every tensor")]
    fn repack_rejects_a_missing_tensor() {
        store().repack(&[vec![(0, 0), (2, 0)]]);
    }
}
