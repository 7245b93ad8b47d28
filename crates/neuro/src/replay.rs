//! Uniform-sampling replay buffer.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

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

/// A fixed-capacity ring-buffer replay memory with uniform sampling.
#[derive(Debug, Clone)]
pub struct ReplayBuffer {
    capacity: usize,
    data: Vec<Transition>,
    next: usize,
}

impl ReplayBuffer {
    /// Creates a buffer holding at most `capacity` transitions.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay capacity must be positive");
        Self {
            capacity,
            data: Vec::with_capacity(capacity.min(4096)),
            next: 0,
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
    pub fn sample<R: Rng>(&self, n: usize, rng: &mut R) -> Vec<&Transition> {
        if self.data.is_empty() {
            return Vec::new();
        }
        if self.data.len() >= n {
            self.data.choose_multiple(rng, n).collect()
        } else {
            (0..n)
                .map(|_| &self.data[rng.gen_range(0..self.data.len())])
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
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

    #[test]
    fn sample_from_empty_is_empty() {
        let b = ReplayBuffer::new(10);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(b.sample(5, &mut rng).is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = ReplayBuffer::new(0);
    }
}
