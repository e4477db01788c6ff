//! # neurofi-snn
//!
//! A from-scratch behavioural spiking-neural-network library reproducing
//! the BindsNET stack the paper evaluates on: Poisson rate encoding,
//! leaky-integrate-and-fire neurons with the Diehl&Cook adaptive
//! threshold, dense/one-to-one/lateral-inhibition topologies, post-pre
//! STDP with synaptic traces, per-neuron weight normalisation and
//! all-activity classification.
//!
//! The flagship network is [`diehl_cook::DiehlCook2015`] — the unsupervised
//! digit classifier from Diehl & Cook (2015) with the paper's
//! configuration (784 inputs → 100 excitatory → 100 inhibitory, one pass
//! over 1000 images). [`DiehlCookConfig::default`] learns at BindsNET's
//! shipped rates, [`learning::PostPreStdp::bindsnet`] (1·10⁻⁴ pre /
//! 1·10⁻² post), which reproduce the paper's baseline; the paper's prose
//! rates, 4·10⁻⁴/2·10⁻⁴, are [`learning::PostPreStdp::paper`].
//!
//! A presentation is two steps: [`PoissonEncoder::raster`] draws the
//! image's input spikes for `(network seed, sample counter)`, and
//! [`DiehlCook2015::present`] replays them. Faults act downstream of the
//! encoder, so a dataset's rasters can be drawn once
//! ([`trainer::EncodedImages`]) and replayed by every run of that seed.
//!
//! ## Fault hooks (the attack surface)
//!
//! The paper's power attacks corrupt two behavioural quantities, exposed
//! here as first-class state so `neurofi-core` can inject faults:
//!
//! * [`neurons::LifLayer::threshold_scale`] — per-neuron multiplicative
//!   threshold change (Attacks 2–5). Matching the paper's methodology,
//!   the scale applies to the *signed biological threshold* (−52 mV
//!   excitatory, −40 mV inhibitory).
//! * [`topology::DenseConnection::gain`] — scales the input → excitatory
//!   drive (Attack 1's `theta`, and the drive component of Attack 5).
//!
//! ## Quickstart
//!
//! ```
//! use neurofi_snn::diehl_cook::{DiehlCook2015, DiehlCookConfig};
//! use neurofi_data::SynthDigits;
//!
//! let data = SynthDigits::default().generate(20, 7);
//! let mut config = DiehlCookConfig::default();
//! config.sample_time_ms = 50.0; // abbreviated for the doctest
//! let mut net = DiehlCook2015::new(config, 42);
//! let counts = net.run_sample(data.image(0), true);
//! assert_eq!(counts.len(), 100);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod classify;
pub mod diehl_cook;
pub mod encoding;
pub mod learning;
pub mod neurons;
pub mod tensor;
pub mod topology;
pub mod trainer;

pub use classify::{assign_labels, predict_all_activity};
pub use diehl_cook::{DiehlCook2015, DiehlCookConfig};
pub use encoding::{PoissonEncoder, SpikeRaster};
pub use tensor::Matrix;
pub use trainer::{
    evaluate, train, train_with_hook, EncodedImages, Presentations, TrainOptions, TrainReport,
};
