//! Group layout: how a network's parameter tensors map onto fused
//! communication groups.
//!
//! Tensors are numbered two ways: **global ids** in forward layer-major
//! order (stable across fusion changes — optimizer state is keyed by the
//! global flat offset), and **items** in the backward gradient-ready order
//! that fusion plans partition (tensor of the last layer first).

use dear_collectives::DType;
use dear_fusion::FusionPlan;
use dear_minidnn::Sequential;

/// One tensor's position in a fused group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItemSpec {
    /// Owning layer (forward index).
    pub layer: usize,
    /// Index of the tensor within the layer's parameter list.
    pub param: usize,
    /// Element count.
    pub len: usize,
    /// Group this item belongs to.
    pub group: usize,
    /// Element offset of this item inside the group's flat buffer.
    pub offset_in_group: usize,
    /// Element offset of this tensor in the global forward-major flat
    /// parameter vector (optimizer-state key).
    pub global_offset: usize,
}

/// The complete fusion geometry of one network.
#[derive(Debug, Clone)]
pub struct GroupLayout {
    plan: FusionPlan,
    /// Items in ready order.
    items: Vec<ItemSpec>,
    /// Item indices per group, in ready order.
    group_items: Vec<Vec<usize>>,
    /// Flat element count per group.
    group_len: Vec<usize>,
    /// Groups gating each layer's feed-forward (contain one of its tensors).
    gating: Vec<Vec<usize>>,
    /// `item_of[layer][param]` = item index.
    item_of: Vec<Vec<usize>>,
    /// The `(layer, param)` pairs of each group, in ready order: the
    /// segmentation the network's `ParamStore` is packed to, so that a
    /// group's buffers are a segment's.
    segmentation: Vec<Vec<(usize, usize)>>,
    /// Total elements across the network.
    total_elements: usize,
    /// The wire dtype the groups were sized for, and the data path's.
    wire: DType,
}

impl GroupLayout {
    /// Builds the layout for `net` under `plan` (over the backward ready
    /// order of its parameter tensors).
    ///
    /// # Panics
    ///
    /// Panics if `plan` does not cover exactly the network's tensor count.
    #[must_use]
    pub fn new(net: &Sequential, plan: FusionPlan) -> Self {
        // Global forward-major offsets.
        let num_layers = net.len();
        let mut global_offsets: Vec<Vec<usize>> = Vec::with_capacity(num_layers);
        let mut cursor = 0usize;
        for layer in net.layers() {
            let mut per_param = Vec::new();
            for p in layer.params() {
                per_param.push(cursor);
                cursor += p.len();
            }
            global_offsets.push(per_param);
        }
        let total_elements = cursor;

        // Ready order: last layer first, tensors within a layer in order.
        let mut ready: Vec<(usize, usize)> = Vec::new(); // (layer, param)
        for li in (0..num_layers).rev() {
            for pi in 0..net.layers()[li].params().len() {
                ready.push((li, pi));
            }
        }
        assert_eq!(
            plan.len_items(),
            ready.len(),
            "plan covers {} items but the network has {} tensors",
            plan.len_items(),
            ready.len()
        );

        let mut items = Vec::with_capacity(ready.len());
        let mut group_items = vec![Vec::new(); plan.num_groups()];
        let mut group_len = vec![0usize; plan.num_groups()];
        let mut gating = vec![Vec::new(); num_layers];
        let mut item_of = (0..num_layers)
            .map(|li| vec![usize::MAX; net.layers()[li].params().len()])
            .collect::<Vec<_>>();
        for (idx, &(layer, param)) in ready.iter().enumerate() {
            let group = plan.group_of(idx);
            let len = net.layers()[layer].params()[param].len();
            let offset_in_group = group_len[group];
            group_len[group] += len;
            group_items[group].push(idx);
            if !gating[layer].contains(&group) {
                gating[layer].push(group);
            }
            item_of[layer][param] = idx;
            items.push(ItemSpec {
                layer,
                param,
                len,
                group,
                offset_in_group,
                global_offset: global_offsets[layer][param],
            });
        }
        let segmentation = group_items
            .iter()
            .map(|group: &Vec<usize>| {
                group
                    .iter()
                    .map(|&i| (items[i].layer, items[i].param))
                    .collect()
            })
            .collect();
        GroupLayout {
            plan,
            items,
            group_items,
            group_len,
            gating,
            item_of,
            segmentation,
            total_elements,
            wire: DType::F32,
        }
    }

    /// The layout of no tensors: what an engine holds until the first
    /// layout is installed.
    pub(crate) fn empty() -> Self {
        GroupLayout::new(&Sequential::new(), FusionPlan::singletons(0))
    }

    /// Convenience: layout from a greedy buffer-threshold plan (`None`
    /// means no fusion), sized for an f32 wire.
    #[must_use]
    pub fn from_buffer(net: &Sequential, buffer_bytes: Option<u64>) -> Self {
        GroupLayout::from_buffer_wire(net, buffer_bytes, DType::F32)
    }

    /// [`GroupLayout::from_buffer`] with an explicit wire dtype: the fusion
    /// budget is a *byte* budget, and a tensor's wire footprint is
    /// `len · wire.size_bytes()` — so a bf16 run packs twice as many
    /// elements per group under the same buffer size, which is exactly what
    /// the BO tuner's byte-denominated search space expects.
    ///
    /// # Panics
    ///
    /// Panics if `wire` is not a numeric dtype.
    #[must_use]
    pub fn from_buffer_wire(net: &Sequential, buffer_bytes: Option<u64>, wire: DType) -> Self {
        assert!(
            wire.is_numeric(),
            "fusion layout needs a numeric wire dtype, not {wire}"
        );
        let elem_bytes = wire.size_bytes() as u64;
        let sizes: Vec<u64> = {
            let mut v = Vec::new();
            for li in (0..net.len()).rev() {
                for p in net.layers()[li].params() {
                    v.push(p.len() as u64 * elem_bytes);
                }
            }
            v
        };
        let plan = match buffer_bytes {
            Some(b) => FusionPlan::by_buffer_bytes(&sizes, b),
            None => FusionPlan::singletons(sizes.len()),
        };
        let mut layout = GroupLayout::new(net, plan);
        layout.wire = wire;
        layout
    }

    /// The underlying plan.
    #[must_use]
    pub fn plan(&self) -> &FusionPlan {
        &self.plan
    }

    /// The wire dtype the groups were sized for — the data path's.
    pub(crate) fn wire(&self) -> DType {
        self.wire
    }

    /// Number of groups.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.group_len.len()
    }

    /// Number of items (tensors).
    #[must_use]
    pub fn num_items(&self) -> usize {
        self.items.len()
    }

    /// Total elements across the network.
    #[must_use]
    pub fn total_elements(&self) -> usize {
        self.total_elements
    }

    /// Flat element count of group `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    #[must_use]
    pub fn group_elements(&self, g: usize) -> usize {
        self.group_len[g]
    }

    /// Item indices of group `g`, in ready order.
    #[must_use]
    pub fn items_of_group(&self, g: usize) -> &[usize] {
        &self.group_items[g]
    }

    /// Item metadata.
    #[must_use]
    pub fn item(&self, idx: usize) -> &ItemSpec {
        &self.items[idx]
    }

    /// Number of parameter tensors of `layer`.
    #[must_use]
    pub fn num_params(&self, layer: usize) -> usize {
        self.item_of[layer].len()
    }

    /// The item index of `(layer, param)`.
    #[must_use]
    pub fn item_of(&self, layer: usize, param: usize) -> usize {
        self.item_of[layer][param]
    }

    /// The `(layer, param)` pairs of every group, in ready order — what
    /// [`dear_minidnn::ParamStore::repack`] takes.
    #[must_use]
    pub fn segmentation(&self) -> &[Vec<(usize, usize)>] {
        &self.segmentation
    }

    /// Groups whose all-gather gates `layer`'s feed-forward.
    #[must_use]
    pub fn gating_groups(&self, layer: usize) -> &[usize] {
        &self.gating[layer]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dear_minidnn::{Linear, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net() -> Sequential {
        let mut rng = StdRng::seed_from_u64(0);
        Sequential::new()
            .push(Linear::new(4, 8, &mut rng)) // tensors: 32 + 8
            .push(Relu::new())
            .push(Linear::new(8, 2, &mut rng)) // tensors: 16 + 2
    }

    #[test]
    fn ready_order_is_backward_layer_major() {
        let net = net();
        let layout = GroupLayout::from_buffer(&net, None);
        assert_eq!(layout.num_items(), 4);
        // Item 0 = layer 2 weight, item 1 = layer 2 bias, then layer 0.
        assert_eq!(layout.item(0).layer, 2);
        assert_eq!(layout.item(0).len, 16);
        assert_eq!(layout.item(1).layer, 2);
        assert_eq!(layout.item(1).len, 2);
        assert_eq!(layout.item(2).layer, 0);
        assert_eq!(layout.item(2).len, 32);
        assert_eq!(layout.item(3).len, 8);
    }

    #[test]
    fn global_offsets_are_forward_major() {
        let net = net();
        let layout = GroupLayout::from_buffer(&net, None);
        // Forward-major: L0.w at 0, L0.b at 32, L2.w at 40, L2.b at 56.
        assert_eq!(layout.item(2).global_offset, 0);
        assert_eq!(layout.item(3).global_offset, 32);
        assert_eq!(layout.item(0).global_offset, 40);
        assert_eq!(layout.item(1).global_offset, 56);
        assert_eq!(layout.total_elements(), 58);
    }

    #[test]
    fn single_group_gates_every_layer() {
        let net = net();
        let layout = GroupLayout::from_buffer(&net, Some(u64::MAX));
        assert_eq!(layout.num_groups(), 1);
        assert_eq!(layout.gating_groups(0), &[0]);
        assert_eq!(layout.gating_groups(2), &[0]);
        assert!(layout.gating_groups(1).is_empty()); // ReLU owns nothing
        assert_eq!(layout.group_elements(0), 58);
    }

    #[test]
    fn singletons_gate_their_own_layer_only() {
        let net = net();
        let layout = GroupLayout::from_buffer(&net, None);
        assert_eq!(layout.num_groups(), 4);
        assert_eq!(layout.gating_groups(2), &[0, 1]);
        assert_eq!(layout.gating_groups(0), &[2, 3]);
        assert_eq!(layout.item_of(2, 0), 0);
        assert_eq!(layout.item_of(0, 1), 3);
    }

    #[test]
    fn narrow_wire_packs_more_tensors_per_byte_budget() {
        let net = net();
        // Ready-order f32 byte sizes: 64, 8, 128, 32 — budget 80 splits
        // into three groups (see `group_offsets_are_dense`). On a bf16
        // wire the same tensors cost 32, 4, 64, 16 bytes, so the same
        // 80-byte budget fuses [32+4], [64+16] into two groups.
        let f32_layout = GroupLayout::from_buffer_wire(&net, Some(80), DType::F32);
        let bf16_layout = GroupLayout::from_buffer_wire(&net, Some(80), DType::Bf16);
        assert_eq!(f32_layout.num_groups(), 3);
        assert_eq!(bf16_layout.num_groups(), 2);
        assert_eq!(bf16_layout.group_elements(0), 18);
        assert_eq!(bf16_layout.group_elements(1), 40);
        // Total coverage is unchanged either way.
        assert_eq!(bf16_layout.total_elements(), f32_layout.total_elements());
    }

    #[test]
    #[should_panic(expected = "numeric wire dtype")]
    fn opaque_wire_dtype_is_rejected_for_layouts() {
        let net = net();
        let _ = GroupLayout::from_buffer_wire(&net, Some(80), DType::U8);
    }

    #[test]
    fn group_offsets_are_dense() {
        let net = net();
        // Ready-order byte sizes: 64, 8, 128, 32. Budget 80 groups them as
        // [64+8], [128] (oversized alone), [32].
        let layout = GroupLayout::from_buffer(&net, Some(80));
        assert_eq!(layout.num_groups(), 3);
        assert_eq!(layout.group_elements(0), 18);
        assert_eq!(layout.group_elements(1), 32);
        assert_eq!(layout.group_elements(2), 8);
        let items = layout.items_of_group(0);
        assert_eq!(layout.item(items[0]).offset_in_group, 0);
        assert_eq!(layout.item(items[1]).offset_in_group, 16);
    }

    #[test]
    fn a_store_packed_to_the_layout_has_the_groups_as_segments() {
        let mut net = net();
        let flat = net.flat_params();
        let layout = GroupLayout::from_buffer(&net, Some(80));
        assert_eq!(
            layout.segmentation(),
            &[vec![(2, 0), (2, 1)], vec![(0, 0)], vec![(0, 1)]]
        );
        net.store_mut().repack(layout.segmentation());
        for g in 0..layout.num_groups() {
            let buf = net.store_mut().take_params(g);
            assert_eq!(buf.len(), layout.group_elements(g));
            for &i in layout.items_of_group(g) {
                let it = layout.item(i);
                assert_eq!(
                    buf[it.offset_in_group..it.offset_in_group + it.len],
                    flat[it.global_offset..it.global_offset + it.len]
                );
            }
            net.store_mut().put_params(g, buf);
        }
    }
}
