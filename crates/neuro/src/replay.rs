//! Uniform-sampling replay buffer.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::HashMap;

/// One transition of the OSDS MDP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    /// State observed before acting.
    pub state: Vec<f64>,
    /// Raw (pre-mapping) action emitted by the actor, as stored for training
    /// (Algorithm 2 line 18 stores the original output action vector).
    pub action: Vec<f64>,
    /// Reward received.
    pub reward: f64,
    /// Next state.
    pub next_state: Vec<f64>,
    /// Whether the episode terminated after this transition.
    pub done: bool,
}

/// A mini-batch of transitions: a slice or `Vec` of them (or of borrows of
/// them), or a [`Sample`] drawn from a [`ReplayBuffer`].
pub trait Batch {
    /// Number of transitions.
    fn len(&self) -> usize;

    /// Transition `i`; panics unless `i < len()`.
    fn get(&self, i: usize) -> &Transition;

    /// Whether the batch holds no transition.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Borrow<Transition>> Batch for [T] {
    fn len(&self) -> usize {
        <[T]>::len(self)
    }

    fn get(&self, i: usize) -> &Transition {
        self[i].borrow()
    }
}

impl<T: Borrow<Transition>> Batch for Vec<T> {
    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn get(&self, i: usize) -> &Transition {
        self[i].borrow()
    }
}

/// Transitions drawn by [`ReplayBuffer::sample`], borrowed from the buffer.
#[derive(Debug, Clone, Copy)]
pub struct Sample<'a> {
    data: &'a [Transition],
    picks: &'a [usize],
}

impl Batch for Sample<'_> {
    fn len(&self) -> usize {
        self.picks.len()
    }

    fn get(&self, i: usize) -> &Transition {
        &self.data[self.picks[i]]
    }
}

/// A fixed-capacity ring-buffer replay memory with uniform sampling.
///
/// Sampling reuses the buffer's own index storage, so a steady-state
/// [`ReplayBuffer::sample`] allocates nothing.
#[derive(Debug, Clone)]
pub struct ReplayBuffer {
    capacity: usize,
    data: Vec<Transition>,
    next: usize,
    /// The indices of the last sample.
    picks: Vec<usize>,
    /// The displaced entries of the partial Fisher–Yates index table.
    displaced: HashMap<usize, usize>,
}

impl ReplayBuffer {
    /// Creates a buffer holding at most `capacity` transitions.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay capacity must be positive");
        Self {
            capacity,
            data: Vec::with_capacity(capacity.min(4096)),
            next: 0,
            picks: Vec::new(),
            displaced: HashMap::new(),
        }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Adds a transition, evicting the oldest once full.
    pub fn push(&mut self, t: Transition) {
        if self.data.len() < self.capacity {
            self.data.push(t);
        } else {
            self.data[self.next] = t;
            self.next = (self.next + 1) % self.capacity;
        }
    }

    /// Samples `n` transitions uniformly at random (with replacement if the
    /// buffer holds fewer than `n`), borrowed from the buffer.
    ///
    /// Without replacement it is a partial Fisher–Yates shuffle of the
    /// index table `0..len`, of which only the displaced entries are
    /// stored: step `i` reads slots `i` and `j ≥ i` and never looks at slot
    /// `i` again, so the map holds at most `n` entries however long the
    /// buffer.  One draw per pick — the draws and picks of the `rand`
    /// shim's `choose_multiple`, in the same order.
    pub fn sample<R: Rng>(&mut self, n: usize, rng: &mut R) -> Sample<'_> {
        let len = self.data.len();
        self.picks.clear();
        if len >= n {
            self.displaced.clear();
            self.displaced.reserve(n);
            for i in 0..n {
                let j = i + (rng.next_u64() as usize) % (len - i);
                let at_i = self.displaced.remove(&i).unwrap_or(i);
                let at_j = if j == i {
                    at_i
                } else {
                    self.displaced.insert(j, at_i).unwrap_or(j)
                };
                self.picks.push(at_j);
            }
        } else if len > 0 {
            self.picks.extend((0..n).map(|_| rng.gen_range(0..len)));
        }
        Sample {
            data: &self.data,
            picks: &self.picks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn t(v: f64) -> Transition {
        Transition {
            state: vec![v],
            action: vec![v],
            reward: v,
            next_state: vec![v],
            done: false,
        }
    }

    #[test]
    fn push_and_len() {
        let mut b = ReplayBuffer::new(3);
        assert!(b.is_empty());
        b.push(t(1.0));
        b.push(t(2.0));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn eviction_wraps_around() {
        let mut b = ReplayBuffer::new(3);
        for i in 0..5 {
            b.push(t(i as f64));
        }
        assert_eq!(b.len(), 3);
        // Oldest two (0, 1) were overwritten by 3 and 4.
        let rewards: Vec<f64> = b.data.iter().map(|x| x.reward).collect();
        assert!(rewards.contains(&2.0) && rewards.contains(&3.0) && rewards.contains(&4.0));
    }

    #[test]
    fn sample_sizes() {
        let mut b = ReplayBuffer::new(100);
        for i in 0..10 {
            b.push(t(i as f64));
        }
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(b.sample(4, &mut rng).len(), 4);
        // More than stored: sampling with replacement still returns n.
        assert_eq!(b.sample(64, &mut rng).len(), 64);
    }

    /// The same picks, in the same order, from the same draws as
    /// `choose_multiple` (and `gen_range` when the buffer is short), sample
    /// after sample, with the buffer filling up and wrapping in between.
    #[test]
    fn sample_draws_as_choose_multiple_does() {
        let mut b = ReplayBuffer::new(50);
        let mut rng = StdRng::seed_from_u64(3);
        let mut reference = rng.clone();
        for round in 0..120 {
            b.push(t(round as f64));
            for n in [0usize, 1, 7, 32] {
                let got: Vec<f64> = {
                    let sample = b.sample(n, &mut rng);
                    (0..sample.len()).map(|i| sample.get(i).reward).collect()
                };
                let want: Vec<f64> = if b.data.len() >= n {
                    b.data
                        .choose_multiple(&mut reference, n)
                        .map(|t| t.reward)
                        .collect()
                } else {
                    (0..n)
                        .map(|_| b.data[reference.gen_range(0..b.data.len())].reward)
                        .collect()
                };
                assert_eq!(got, want, "round {round}, n {n}");
            }
        }
        assert_eq!(rng.gen::<u64>(), reference.gen::<u64>(), "draw count");
    }

    #[test]
    fn sample_from_empty_is_empty() {
        let mut b = ReplayBuffer::new(10);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(b.sample(5, &mut rng).is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = ReplayBuffer::new(0);
    }
}
