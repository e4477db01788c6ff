//! # neurofi-spice
//!
//! A compact, self-contained analog circuit simulator in the spirit of
//! SPICE, purpose-built for the neuromorphic fault-injection studies in the
//! `neurofi` workspace (reproduction of *"Analysis of Power-Oriented Fault
//! Injection Attacks on Spiking Neural Networks"*, DATE 2022).
//!
//! The paper characterises its analog neuron circuits with HSPICE on PTM
//! 65 nm model cards. Neither is redistributable, so this crate provides the
//! closest open equivalent:
//!
//! * **Modified nodal analysis** (MNA) over pluggable linear engines
//!   ([`circuit::Engine`]): a dense partial-pivot LU — the regression-locked
//!   default, optimal below ~25 unknowns — and the sparse Markowitz LU from
//!   `neurofi-solver` for whole-layer netlists with hundreds of unknowns.
//! * **Newton–Raphson** nonlinear iteration with voltage-step limiting,
//!   `gmin` stepping and source stepping fall-backs.
//! * **Transient analysis** ([`TranSpec`]) on one fixed-step path:
//!   backward-Euler companion models, the base step clipped to land on
//!   source breakpoints, and automatic step halving when Newton fails to
//!   converge. A request that plans more than
//!   [`circuit::MAX_TRAN_POINTS`] steps and breakpoints is refused
//!   before it runs.
//! * An **EKV-style MOSFET compact model** ([`device::MosModel`]): a single
//!   smooth equation covering subthreshold, triode and saturation, with
//!   analytic derivatives (crucial for the slow membrane-voltage ramps of
//!   integrate-and-fire neurons, which sweep straight through the inverter
//!   transition region).
//! * **Programmatic netlists** ([`Netlist`]), through which every
//!   circuit in the workspace is built, and waveform sources
//!   ([`Waveform`]: DC and PULSE).
//! * **Measurement helpers** ([`measure`]): spike detection, threshold
//!   crossings, period extraction, averages — the quantities the paper
//!   reports.
//!
//! ## Quickstart: an RC low-pass step response
//!
//! ```
//! use neurofi_spice::{Netlist, Waveform, TranSpec};
//!
//! # fn main() -> Result<(), neurofi_spice::Error> {
//! let mut net = Netlist::new();
//! let vin = net.node("in");
//! let vout = net.node("out");
//! net.vsource("V1", vin, Netlist::GROUND, Waveform::Dc(1.0));
//! net.resistor("R1", vin, vout, 1.0e3);
//! net.capacitor("C1", vout, Netlist::GROUND, 1.0e-9);
//!
//! let result = net.compile()?.tran(&TranSpec::new(10.0e-6, 2.0e-9).with_uic())?;
//! let v_end = *result.voltage(vout).last().unwrap();
//! assert!((v_end - 1.0).abs() < 1e-3); // fully charged after 10 tau
//! # Ok(())
//! # }
//! ```
//!
//! ## Module map
//!
//! | module | contents |
//! |---|---|
//! | [`netlist`] | circuit description & builder API |
//! | [`device`] | MOSFET compact model and model cards |
//! | [`waveform`] | time-dependent source values |
//! | [`circuit`] | compiled circuit, DC and transient engines |
//! | [`mna`] | dense matrix + LU solver |
//! | [`measure`] | waveform measurement utilities |
//! | [`units`] | engineering-notation helpers |

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod circuit;
pub mod device;
pub mod error;
pub mod measure;
pub mod mna;
pub mod netlist;
pub mod units;
pub mod waveform;

pub use circuit::{Circuit, Engine, OpPoint, SolveOptions, TranResult, TranSpec, TranStats};
pub use device::{MosModel, MosType};
pub use error::Error;
pub use netlist::{Element, Netlist, NodeId};
pub use waveform::Waveform;
