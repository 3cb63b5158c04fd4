//! Reusable activation/gradient storage for allocation-free training steps.
//!
//! A [`ActivationArena`] owns one output tensor and one input-gradient
//! tensor per layer, the loss-gradient seed for the backward pass and,
//! when the first layer has parameters, a copy of the network input. It is
//! the only place a forward pass's activations live:
//! [`crate::Network::forward_arena`] threads every layer's `forward_into`
//! through these slots, and [`crate::Network::backward_arena`] hands every
//! layer's `backward_into` the input and output it read and wrote, `input`
//! or `acts[i - 1]` and `acts[i]`. No layer keeps a copy of either. Only a
//! first layer with parameters is handed the network input on the way
//! back, so only then is the input copied; CNN 1 and CNN 2 open with a
//! `Reshape`, which leaves that slot empty. After the first step at a given
//! batch shape the whole forward/backward sweep touches only pre-grown
//! buffers — the SGD hot loop performs zero allocations in steady state.
//!
//! ```text
//!        input ──▶ [layer 0] ──▶ acts[0] ──▶ [layer 1] ──▶ acts[1] ... acts[n-1]
//!                                                                        │ loss
//!                [layer 0] ◀── grads[1] ◀── [layer 1] ◀── ...  ◀── loss_grad
//! ```
//!
//! The backward sweep stops at the first layer that has parameters: the
//! gradient with respect to the network input is never read by training,
//! so it is not computed and `grads[0]` stays empty.

use fedadmm_tensor::Tensor;

/// A slab of per-layer activation and gradient buffers, keyed implicitly by
/// whatever batch shape last flowed through it (each slot is resized in
/// place on every pass, which is free once capacity has grown).
#[derive(Debug, Clone)]
pub struct ActivationArena {
    /// A copy of the last forward pass's network input, made only when
    /// layer 0 has parameters: its input on the way back.
    pub(crate) input: Tensor,
    /// `acts[i]` holds the output of layer `i` from the last forward pass.
    pub(crate) acts: Vec<Tensor>,
    /// `grads[i]` holds `dL/d(input of layer i)` from the last backward
    /// pass, for every layer above the first one that has parameters.
    pub(crate) grads: Vec<Tensor>,
    /// Gradient of the loss with respect to the network output; the caller
    /// fills this (e.g. via `softmax_cross_entropy_into`) between the
    /// forward and backward sweeps.
    pub(crate) loss_grad: Tensor,
}

impl Default for ActivationArena {
    fn default() -> Self {
        ActivationArena {
            input: Tensor::zeros(&[0]),
            acts: Vec::new(),
            grads: Vec::new(),
            loss_grad: Tensor::zeros(&[0]),
        }
    }
}

impl ActivationArena {
    /// Creates an empty arena. Buffers grow lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures the arena has one activation and one gradient slot per layer.
    pub(crate) fn ensure_layers(&mut self, num_layers: usize) {
        while self.acts.len() < num_layers {
            self.acts.push(Tensor::zeros(&[0]));
        }
        while self.grads.len() < num_layers {
            self.grads.push(Tensor::zeros(&[0]));
        }
    }

    /// The network output of the last `forward_arena` pass.
    ///
    /// # Panics
    /// Panics if no forward pass has populated the arena yet.
    pub fn output(&self) -> &Tensor {
        self.acts
            .last()
            .expect("ActivationArena::output before forward_arena")
    }

    /// The loss-gradient slot on its own: scratch for a loss computed over
    /// logits that are not this arena's last output (evaluation scores
    /// logits gathered from several forward passes, possibly other
    /// workers'). Usable before any forward pass.
    pub fn loss_grad_mut(&mut self) -> &mut Tensor {
        &mut self.loss_grad
    }

    /// The last forward output together with mutable access to the
    /// loss-gradient slot, for computing a loss and seeding the backward
    /// sweep without an intermediate copy.
    ///
    /// # Panics
    /// Panics if no forward pass has populated the arena yet.
    pub fn output_and_loss_grad(&mut self) -> (&Tensor, &mut Tensor) {
        (
            self.acts
                .last()
                .expect("ActivationArena::output_and_loss_grad before forward_arena"),
            &mut self.loss_grad,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_grow_to_layer_count_and_persist() {
        let mut arena = ActivationArena::new();
        arena.ensure_layers(3);
        assert_eq!(arena.acts.len(), 3);
        assert_eq!(arena.grads.len(), 3);
        arena.ensure_layers(2);
        assert_eq!(arena.acts.len(), 3, "slots never shrink");
    }

    #[test]
    #[should_panic(expected = "before forward_arena")]
    fn output_before_forward_panics() {
        ActivationArena::new().output();
    }
}
