//! Branch prediction substrates for the `btb-orgs` simulator.
//!
//! Implements the prediction structures of the paper's Table 1:
//!
//! * [`HashedPerceptron`] — 64 KB hashed perceptron (16 tables × 4K × 8-bit
//!   weights, 0–232 bit geometric histories), scalable for the Fig. 11b
//!   predictor-size sweep;
//! * [`IndirectPredictor`] — 4K-entry gshare-like indirect target predictor;
//! * [`ReturnAddressStack`] — 64-entry RAS;
//! * [`Bimodal`] — a 2-bit-counter baseline used in ablations.
//!
//! # Example
//! ```
//! use btb_bpred::{HashedPerceptron, PerceptronConfig};
//!
//! let mut predictor = HashedPerceptron::new(PerceptronConfig::paper());
//! let mut history = predictor.history();
//! let out = predictor.predict(0x4000, &history);
//! predictor.update(0x4000, &history, out, true);
//! history.push(true);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod bimodal;
mod history;
mod indirect;
mod perceptron;
mod ras;

pub use bimodal::Bimodal;
pub use history::{GlobalHistory, PathHistory, MAX_HISTORY_BITS};
pub use indirect::IndirectPredictor;
pub use perceptron::{
    history_lengths, HashedPerceptron, PerceptronConfig, PerceptronHistory, PerceptronOutput,
    MAX_HISTORY, NUM_TABLES,
};
pub use ras::ReturnAddressStack;
