//! A sequential network that owns the model as one flat vector.

use crate::arena::ActivationArena;
use crate::layers::Layer;
use fedadmm_tensor::{Tensor, TensorError, TensorResult};
use rand::Rng;

/// A feed-forward network: an ordered sequence of [`Layer`]s over one flat
/// parameter store.
///
/// The model is a single `params` vector of length `d = num_params()` and
/// its gradient a single `grads` vector, both in a stable order: layer by
/// layer, each layer's weight then its bias. The layers hold no parameters;
/// every pass hands each its range of the two. All of the FedADMM / FedAvg
/// / FedProx / SCAFFOLD vector arithmetic, and the SGD step itself, happens
/// on those vectors where they lie ([`Network::params_grads_mut`]): there
/// is no per-layer representation to copy to or from.
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
    params: Vec<f32>,
    grads: Vec<f32>,
}

impl Network {
    /// Creates a network from an ordered list of layers, initialising each
    /// layer's parameters from `rng` in layer order.
    pub fn new(layers: Vec<Box<dyn Layer>>, rng: &mut impl Rng) -> Self {
        let mut net = Network::zeroed(layers);
        let mut rest = net.params.as_mut_slice();
        for layer in &net.layers {
            let (own, tail) = rest.split_at_mut(layer.num_params());
            layer.init_params(own, rng);
            rest = tail;
        }
        net
    }

    /// Creates a network from an ordered list of layers with every
    /// parameter zero and no random draw: for callers that load all `d`
    /// parameters before the first pass.
    pub fn zeroed(layers: Vec<Box<dyn Layer>>) -> Self {
        let d = layers.iter().map(|l| l.num_params()).sum();
        Network {
            layers,
            params: vec![0.0; d],
            grads: vec![0.0; d],
        }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total number of trainable parameters `d`.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Human-readable summary: one `name(params)` entry per layer.
    pub fn summary(&self) -> String {
        self.layers
            .iter()
            .map(|l| format!("{}({})", l.name(), l.num_params()))
            .collect::<Vec<_>>()
            .join(" -> ")
    }

    /// Layer-by-layer forward pass through fresh tensors: the reference the
    /// arena-routing tests compare [`Network::forward_arena`] against.
    #[cfg(test)]
    pub(crate) fn forward(&mut self, input: &Tensor) -> TensorResult<Tensor> {
        let mut x = input.clone();
        let mut rest = self.params.as_slice();
        for layer in &mut self.layers {
            let (own, tail) = rest.split_at(layer.num_params());
            x = layer.forward(own, &x)?;
            rest = tail;
        }
        Ok(x)
    }

    /// Layer-by-layer backward pass (in reverse) through fresh tensors,
    /// after a forward pass over `input` that keeps every layer's input and
    /// output, writing parameter gradients; returns the gradient with
    /// respect to `input`. Test reference for [`Network::backward_arena`].
    #[cfg(test)]
    pub(crate) fn backward(
        &mut self,
        input: &Tensor,
        grad_output: &Tensor,
    ) -> TensorResult<Tensor> {
        let mut acts = vec![input.clone()];
        let mut rest = self.params.as_slice();
        for layer in &mut self.layers {
            let (own, tail) = rest.split_at(layer.num_params());
            acts.push(layer.forward(own, &acts[acts.len() - 1])?);
            rest = tail;
        }
        let mut g = grad_output.clone();
        let mut end = self.params.len();
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            let own = end - layer.num_params()..end;
            g = layer.backward(
                &self.params[own.clone()],
                &mut self.grads[own.clone()],
                &acts[i],
                &acts[i + 1],
                &g,
            )?;
            end = own.start;
        }
        Ok(g)
    }

    /// Forward pass through all layers, routing every layer's output
    /// through `arena` slots. Layer 0 reads `input` where it lies; the arena
    /// keeps a copy of it only when layer 0 has parameters, because only
    /// then does the backward pass hand it to layer 0 again.
    ///
    /// The output lands in [`ActivationArena::output`]. After the first
    /// call at a given batch shape, repeated calls allocate nothing.
    pub fn forward_arena(
        &mut self,
        input: &Tensor,
        arena: &mut ActivationArena,
    ) -> TensorResult<()> {
        if self.layers.is_empty() {
            return Err(TensorError::InvalidArgument(
                "forward_arena on an empty network".into(),
            ));
        }
        arena.ensure_layers(self.layers.len());
        if self.layers[0].num_params() > 0 {
            arena.input.resize_in_place(input.dims());
            arena.input.data_mut().copy_from_slice(input.data());
        }
        let mut rest = self.params.as_slice();
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let (own, tail) = rest.split_at(layer.num_params());
            rest = tail;
            let (prev, out) = arena.acts.split_at_mut(i);
            let src = if i == 0 { input } else { &prev[i - 1] };
            layer.forward_into(own, src, &mut out[0])?;
        }
        Ok(())
    }

    /// Backward pass through all layers (in reverse), seeded from
    /// [`ActivationArena`]'s loss-gradient slot (fill it via
    /// `loss::softmax_cross_entropy_into` after the forward pass). Every
    /// layer is handed the input and output of its forward pass from the
    /// arena and overwrites its range of the gradient vector, so afterwards
    /// [`Network::grads`] is this batch's gradient whatever it held before.
    ///
    /// The sweep ends at the first layer that has parameters, which is
    /// given no `grad_input`: training never reads the gradient with
    /// respect to the data, so that product and every parameter-free layer
    /// below it are skipped.
    pub fn backward_arena(&mut self, arena: &mut ActivationArena) -> TensorResult<()> {
        let n = self.layers.len();
        if arena.acts.len() < n || n == 0 {
            return Err(TensorError::InvalidArgument(
                "backward_arena called before forward_arena".into(),
            ));
        }
        arena.ensure_layers(n);
        let first = self
            .layers
            .iter()
            .position(|layer| layer.num_params() > 0)
            .unwrap_or(n);
        let mut end = self.params.len();
        for i in (first..n).rev() {
            let (head, tail) = arena.grads.split_at_mut(i + 1);
            let g_src: &Tensor = if i == n - 1 {
                &arena.loss_grad
            } else {
                &tail[0]
            };
            let grad_input = (i > first).then_some(&mut head[i]);
            let input = if i == 0 {
                &arena.input
            } else {
                &arena.acts[i - 1]
            };
            let own = end - self.layers[i].num_params()..end;
            end = own.start;
            self.layers[i].backward_into(
                &self.params[own.clone()],
                &mut self.grads[own],
                input,
                &arena.acts[i],
                g_src,
                grad_input,
            )?;
        }
        Ok(())
    }

    /// The parameter vector, in place.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// The gradient the last backward pass wrote, in the order of
    /// [`Network::params`].
    pub fn grads(&self) -> &[f32] {
        &self.grads
    }

    /// The parameters and the last backward pass's gradient, both mutable:
    /// what a training step works on (amend the gradient, apply the
    /// optimizer to the parameters) with no copy out of or into the network.
    pub fn params_grads_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        (&mut self.params, &mut self.grads)
    }

    /// Returns a copy of all parameters as a single flat vector of length
    /// [`Network::num_params`].
    pub fn params_flat(&self) -> Vec<f32> {
        self.params.clone()
    }

    /// Overwrites all parameters from a flat vector (one copy).
    ///
    /// Returns an error if `src.len() != num_params()`.
    pub fn set_params_flat(&mut self, src: &[f32]) -> TensorResult<()> {
        if src.len() != self.params.len() {
            return Err(TensorError::InvalidArgument(format!(
                "set_params_flat: expected {} values, got {}",
                self.params.len(),
                src.len()
            )));
        }
        self.params.copy_from_slice(src);
        Ok(())
    }

    /// Copies [`Network::grads`] into `out`, reusing its allocation.
    pub fn grads_flat_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.extend_from_slice(&self.grads);
    }

    /// Fills the gradient vector with zeros. No pass requires it: a
    /// backward pass overwrites every gradient.
    pub fn zero_grads(&mut self) {
        self.grads.fill(0.0);
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Network[{}]", self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{gradcheck, Conv2d, Linear, MaxPool2d, Reshape};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn small_net(seed: u64) -> Network {
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Linear::new_fused_relu(4, 8)),
            Box::new(Linear::new(8, 3)),
        ];
        Network::new(layers, &mut SmallRng::seed_from_u64(seed))
    }

    #[test]
    fn num_params_sums_layers() {
        let net = small_net(0);
        assert_eq!(net.num_params(), 4 * 8 + 8 + 8 * 3 + 3);
        assert_eq!(net.num_layers(), 2);
    }

    #[test]
    fn summary_mentions_layers() {
        let s = small_net(0).summary();
        assert!(s.contains("Linear"));
        assert!(s.contains("ReLU"));
    }

    #[test]
    fn params_roundtrip() {
        let net = small_net(1);
        let p = net.params_flat();
        assert_eq!(p.len(), net.num_params());
        let mut net2 = small_net(2);
        assert_ne!(net2.params_flat(), p);
        net2.set_params_flat(&p).unwrap();
        assert_eq!(net2.params_flat(), p);
    }

    #[test]
    fn set_params_rejects_wrong_length() {
        let mut net = small_net(0);
        assert!(net.set_params_flat(&[0.0; 3]).is_err());
    }

    #[test]
    fn forward_backward_shapes() {
        let mut net = small_net(3);
        let x = Tensor::ones(&[5, 4]);
        let y = net.forward(&x).unwrap();
        assert_eq!(y.dims(), &[5, 3]);
        let gx = net.backward(&x, &Tensor::ones(&[5, 3])).unwrap();
        assert_eq!(gx.dims(), &[5, 4]);
        assert_eq!(net.grads().len(), net.num_params());
    }

    #[test]
    fn grads_flat_into_matches_grads_flat() {
        let mut net = small_net(6);
        let x = Tensor::ones(&[2, 4]);
        let y = net.forward(&x).unwrap();
        net.backward(&x, &Tensor::ones(y.dims())).unwrap();
        let mut buf = vec![9.9f32; 3]; // stale contents must be discarded
        net.grads_flat_into(&mut buf);
        assert_eq!(buf, net.grads());
        let cap = buf.capacity();
        net.grads_flat_into(&mut buf);
        assert_eq!(buf.capacity(), cap, "grads_flat_into must reuse the buffer");
    }

    #[test]
    fn zero_grads_clears_accumulators() {
        let mut net = small_net(4);
        let x = Tensor::ones(&[2, 4]);
        let y = net.forward(&x).unwrap();
        net.backward(&x, &Tensor::ones(y.dims())).unwrap();
        assert!(net.grads().iter().any(|&g| g != 0.0));
        net.zero_grads();
        assert!(net.grads().iter().all(|&g| g == 0.0));
    }

    /// Asserts the arena-routed forward/backward of `net` bit-identical to
    /// running the layers of `reference` (the same network, built from the
    /// same seed) one by one through fresh tensors — where every layer, the
    /// first included, is asked for its input gradient — and that repeat
    /// passes reuse the arena slots.
    fn assert_arena_matches_reference(
        mut net: Network,
        mut reference: Network,
        x: &Tensor,
        rng: &mut SmallRng,
    ) {
        let y_ref = reference.forward(x).unwrap();
        let loss_grad = gradcheck::gaussian(y_ref.dims(), 1.0, rng);
        let gx_ref = reference.backward(x, &loss_grad).unwrap();
        assert_eq!(gx_ref.dims(), x.dims());

        let mut arena = ActivationArena::new();
        net.forward_arena(x, &mut arena).unwrap();
        for (a, b) in arena.output().data().iter().zip(y_ref.data().iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        {
            let (_, lg) = arena.output_and_loss_grad();
            lg.resize_in_place(loss_grad.dims());
            lg.data_mut().copy_from_slice(loss_grad.data());
        }
        // Whatever the gradient vector holds, the sweep overwrites all of
        // it; and the first parametrised layer is asked for no input
        // gradient, which the parameter gradients must not notice.
        net.params_grads_mut().1.fill(f32::NAN);
        net.backward_arena(&mut arena).unwrap();
        assert_eq!(net.grads().len(), reference.grads().len());
        for (a, b) in net.grads().iter().zip(reference.grads().iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        // A second pass through the same arena must agree as well.
        net.forward_arena(x, &mut arena).unwrap();
        for (a, b) in arena.output().data().iter().zip(y_ref.data().iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn arena_path_matches_layer_by_layer_reference() {
        let mut rng = SmallRng::seed_from_u64(17);
        let x = gradcheck::gaussian(&[3, 4], 1.0, &mut rng);
        assert_arena_matches_reference(small_net(17), small_net(17), &x, &mut rng);

        // CNN 1's seven-layer shape in miniature, behind an input
        // `Reshape`: the sweep stops at the first convolution and never
        // runs the reshape's backward, and the dense layers read the pooled
        // images as rows.
        let conv_net = || {
            let layers: Vec<Box<dyn Layer>> = vec![
                Box::new(Reshape::new(&[1, 6, 6])),
                Box::new(Conv2d::new_fused_relu(1, 2, 3, 1, 1)),
                Box::new(MaxPool2d::new(2, 2)),
                Box::new(Conv2d::new_fused_relu(2, 3, 3, 1, 1)),
                Box::new(MaxPool2d::new(3, 3)),
                Box::new(Linear::new_fused_relu(3, 5)),
                Box::new(Linear::new(5, 4)),
            ];
            Network::new(layers, &mut SmallRng::seed_from_u64(18))
        };
        let x = gradcheck::gaussian(&[2, 36], 1.0, &mut rng);
        assert_arena_matches_reference(conv_net(), conv_net(), &x, &mut rng);
    }

    #[test]
    fn backward_arena_before_forward_errors() {
        let mut net = small_net(0);
        let mut arena = ActivationArena::new();
        assert!(net.backward_arena(&mut arena).is_err());
    }

    #[test]
    fn same_seed_builds_an_identical_independent_network() {
        let mut net = small_net(5);
        let twin = small_net(5);
        let p = net.params_flat();
        assert_eq!(twin.params_flat(), p);
        let zeros = vec![0.0; net.num_params()];
        net.set_params_flat(&zeros).unwrap();
        assert_eq!(twin.params_flat(), p);
        assert_ne!(net.params_flat(), p);
    }

    /// Whole-network finite-difference gradient check against the scalar
    /// objective sum(forward(x)).
    #[test]
    fn network_gradients_match_finite_difference() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut net = small_net(11);
        let x = gradcheck::gaussian(&[3, 4], 1.0, &mut rng);
        let y = net.forward(&x).unwrap();
        net.backward(&x, &Tensor::ones(y.dims())).unwrap();
        let (params, grads) = (net.params_flat(), net.grads().to_vec());
        for idx in [0usize, 10, 20, 40, 50] {
            let loss = |p: &[f32]| {
                net.set_params_flat(p).unwrap();
                net.forward(&x).unwrap().sum()
            };
            gradcheck::assert_central_difference(loss, &params, idx, grads[idx], 5e-2);
        }
    }
}
