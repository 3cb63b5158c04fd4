//! Mini-batch iteration over a client's local samples.
//!
//! The paper's local solver is mini-batch SGD with batch size `B`
//! (`B = 200` for MNIST with 100 clients, `B = 10` for the 1,000-client
//! non-IID runs, `B = ∞` i.e. full batch for the 1,000-client IID runs,
//! `B = 50` for Figures 5 and 10). [`BatchIterator`] reproduces exactly
//! that: it shuffles the client's indices once per epoch and yields
//! consecutive chunks of `B` indices (the final chunk may be smaller).

use rand::seq::SliceRandom;
use rand::Rng;

/// Local batch size. `Full` reproduces the paper's `B = ∞` setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Mini-batches of the given size.
    Size(usize),
    /// One batch containing every local sample (`B = ∞`).
    Full,
}

impl BatchSize {
    /// Resolves to a concrete batch size for a client holding `n` samples.
    pub fn resolve(&self, n: usize) -> usize {
        match *self {
            BatchSize::Size(b) => b.max(1).min(n.max(1)),
            BatchSize::Full => n.max(1),
        }
    }
}

/// Iterates over shuffled mini-batches of a client's sample indices for one
/// epoch.
#[derive(Debug, Clone)]
pub struct BatchIterator {
    shuffled: Vec<usize>,
    batch_size: usize,
    cursor: usize,
}

impl BatchIterator {
    /// Creates a one-epoch batch iterator over `indices`.
    ///
    /// The indices are shuffled with `rng` (a fresh shuffle per epoch, as in
    /// standard SGD practice and the paper's PyTorch loaders).
    pub fn new(indices: &[usize], batch_size: BatchSize, rng: &mut impl Rng) -> Self {
        let mut shuffled = indices.to_vec();
        shuffled.shuffle(rng);
        let bs = batch_size.resolve(indices.len());
        BatchIterator {
            shuffled,
            batch_size: bs,
            cursor: 0,
        }
    }
}

/// Shuffles `indices` into `buf`, reusing its allocation — one epoch's worth
/// of batch order for allocation-free training loops.
///
/// Consumes the RNG identically to [`BatchIterator::new`] (one shuffle of a
/// same-length slice), so `buf.chunks(batch_size.resolve(indices.len()))`
/// yields bit-identical batches to the iterator without the per-batch `Vec`s.
pub fn shuffle_epoch_into(indices: &[usize], rng: &mut impl Rng, buf: &mut Vec<usize>) {
    buf.clear();
    buf.extend_from_slice(indices);
    buf.shuffle(rng);
}

impl Iterator for BatchIterator {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor >= self.shuffled.len() {
            return None;
        }
        let end = (self.cursor + self.batch_size).min(self.shuffled.len());
        let batch = self.shuffled[self.cursor..end].to_vec();
        self.cursor = end;
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn batch_size_resolution() {
        assert_eq!(BatchSize::Size(10).resolve(100), 10);
        assert_eq!(BatchSize::Size(10).resolve(4), 4);
        assert_eq!(BatchSize::Size(0).resolve(4), 1);
        assert_eq!(BatchSize::Full.resolve(37), 37);
        assert_eq!(BatchSize::Full.resolve(0), 1);
    }

    #[test]
    fn iterator_covers_every_index_once() {
        let indices: Vec<usize> = (100..137).collect();
        let mut rng = SmallRng::seed_from_u64(0);
        let batches: Vec<Vec<usize>> =
            BatchIterator::new(&indices, BatchSize::Size(10), &mut rng).collect();
        assert_eq!(batches.len(), 4);
        assert_eq!(batches.last().unwrap().len(), 7);
        let mut all: Vec<usize> = batches.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, indices);
    }

    #[test]
    fn full_batch_yields_single_batch() {
        let indices: Vec<usize> = (0..25).collect();
        let mut rng = SmallRng::seed_from_u64(0);
        let batches: Vec<Vec<usize>> =
            BatchIterator::new(&indices, BatchSize::Full, &mut rng).collect();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), 25);
    }

    #[test]
    fn empty_client_yields_no_batches() {
        let mut rng = SmallRng::seed_from_u64(0);
        let batches: Vec<Vec<usize>> =
            BatchIterator::new(&[], BatchSize::Size(8), &mut rng).collect();
        assert!(batches.is_empty());
    }

    #[test]
    fn shuffling_changes_order_but_not_contents() {
        let indices: Vec<usize> = (0..50).collect();
        let mut rng1 = SmallRng::seed_from_u64(1);
        let mut rng2 = SmallRng::seed_from_u64(2);
        let a: Vec<usize> = BatchIterator::new(&indices, BatchSize::Full, &mut rng1)
            .flatten()
            .collect();
        let b: Vec<usize> = BatchIterator::new(&indices, BatchSize::Full, &mut rng2)
            .flatten()
            .collect();
        assert_ne!(a, b);
        let mut a_sorted = a.clone();
        let mut b_sorted = b.clone();
        a_sorted.sort_unstable();
        b_sorted.sort_unstable();
        assert_eq!(a_sorted, b_sorted);
    }

    #[test]
    fn shuffle_epoch_into_matches_batch_iterator() {
        let indices: Vec<usize> = (5..47).collect();
        let mut rng_iter = SmallRng::seed_from_u64(9);
        let mut rng_into = SmallRng::seed_from_u64(9);
        let mut buf = Vec::new();
        // Two consecutive epochs must consume the RNG identically.
        for _ in 0..2 {
            let via_iter: Vec<Vec<usize>> =
                BatchIterator::new(&indices, BatchSize::Size(8), &mut rng_iter).collect();
            shuffle_epoch_into(&indices, &mut rng_into, &mut buf);
            let via_into: Vec<Vec<usize>> = buf
                .chunks(BatchSize::Size(8).resolve(indices.len()))
                .map(|c| c.to_vec())
                .collect();
            assert_eq!(via_iter, via_into);
        }
        let cap = buf.capacity();
        shuffle_epoch_into(&indices, &mut rng_into, &mut buf);
        assert_eq!(buf.capacity(), cap, "epoch shuffle must reuse the buffer");
    }

    proptest! {
        /// Every epoch covers each index exactly once, for any batch size.
        #[test]
        fn prop_epoch_is_a_permutation(n in 1usize..200, b in 1usize..64, seed in 0u64..100) {
            let indices: Vec<usize> = (0..n).collect();
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut all: Vec<usize> =
                BatchIterator::new(&indices, BatchSize::Size(b), &mut rng).flatten().collect();
            all.sort_unstable();
            prop_assert_eq!(all, indices);
        }

        /// All batches except possibly the last have exactly the requested size.
        #[test]
        fn prop_batch_sizes(n in 1usize..200, b in 1usize..64) {
            let indices: Vec<usize> = (0..n).collect();
            let mut rng = SmallRng::seed_from_u64(0);
            let batches: Vec<Vec<usize>> =
                BatchIterator::new(&indices, BatchSize::Size(b), &mut rng).collect();
            let expect = b.min(n);
            for batch in &batches[..batches.len() - 1] {
                prop_assert_eq!(batch.len(), expect);
            }
            prop_assert!(batches.last().unwrap().len() <= expect);
        }
    }
}
