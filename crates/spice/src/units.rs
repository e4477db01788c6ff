//! SI prefixes and physical constants.
//!
//! All quantities in this crate are plain SI `f64`s (volts, amperes, ohms,
//! farads, seconds). These prefixes keep netlist-building code legible:
//!
//! ```
//! use neurofi_spice::units::{NANO, PICO, MEGA};
//! let c_mem = 1.0 * PICO;      // 1 pF
//! let i_spike = 200.0 * NANO;  // 200 nA
//! let r1 = 2.66 * MEGA;        // 2.66 MΩ
//! ```

/// 10⁻¹⁵ (femto).
pub const FEMTO: f64 = 1.0e-15;
/// 10⁻¹² (pico).
pub const PICO: f64 = 1.0e-12;
/// 10⁻⁹ (nano).
pub const NANO: f64 = 1.0e-9;
/// 10⁻⁶ (micro).
pub const MICRO: f64 = 1.0e-6;
/// 10⁶ (mega).
pub const MEGA: f64 = 1.0e6;

/// Thermal voltage kT/q at room temperature (300 K), in volts.
pub const VT_ROOM: f64 = 0.025852;
