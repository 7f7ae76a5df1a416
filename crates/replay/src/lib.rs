//! # deco-replay
//!
//! Replay buffers of *real* samples and the five selection-strategy
//! baselines the DECO paper compares against: Random (reservoir sampling),
//! FIFO, Selective-BP, K-Center and GSS-Greedy.
//!
//! All strategies implement [`SelectionStrategy`] and are driven by the
//! same on-device learning loop as DECO itself (see the `deco` crate), so
//! the comparison differs only in buffer policy — exactly as in the paper.
//! The loop offers a segment's kept items in one
//! [`SelectionStrategy::offer_segment`] call, inside which the model is
//! fixed; K-Center and Herding use that to compute each stored item's
//! feature once per segment instead of once per candidate.
//!
//! ```
//! use deco_replay::{BaselineKind, BufferItem, ReplayBuffer, SelectionContext};
//! use deco_nn::{ConvNet, ConvNetConfig};
//! use deco_tensor::{Rng, Tensor};
//!
//! let mut rng = Rng::new(0);
//! let model = ConvNet::new(ConvNetConfig::small(10), &mut rng);
//! let mut strategy = BaselineKind::Fifo.build();
//! let mut buffer = ReplayBuffer::new(10);
//! let sample = BufferItem { image: Tensor::zeros([3, 16, 16]), label: 2, confidence: 0.8 };
//! let mut ctx = SelectionContext { model: &model, rng: &mut rng };
//! strategy.offer(&mut buffer, sample, &mut ctx);
//! assert_eq!(buffer.len(), 1);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod buffer;
mod strategies;

pub use buffer::{BufferItem, ReplayBuffer};
pub use strategies::{
    BaselineKind, Fifo, GssGreedy, KCenter, RandomReservoir, SelectionContext, SelectionStrategy,
    SelectiveBp,
};
