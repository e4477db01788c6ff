//! Engineering-notation helpers and physical constants.
//!
//! All quantities in this crate are plain SI `f64`s (volts, amperes, ohms,
//! farads, seconds). These helpers keep netlist-building code legible:
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
/// 10⁻³ (milli).
pub const MILLI: f64 = 1.0e-3;
/// 10³ (kilo).
pub const KILO: f64 = 1.0e3;
/// 10⁶ (mega).
pub const MEGA: f64 = 1.0e6;
/// 10⁹ (giga).
pub const GIGA: f64 = 1.0e9;
/// 10¹² (tera).
pub const TERA: f64 = 1.0e12;

/// Thermal voltage kT/q at room temperature (300 K), in volts.
pub const VT_ROOM: f64 = 0.025852;

/// Formats a value with an engineering suffix for human-readable reports.
///
/// ```
/// use neurofi_spice::units::format_si;
/// assert_eq!(format_si(2.0e-7, "A"), "200.00nA");
/// assert_eq!(format_si(1.0, "V"), "1.00V");
/// ```
pub fn format_si(value: f64, unit: &str) -> String {
    let a = value.abs();
    let (scale, prefix) = if a == 0.0 {
        (1.0, "")
    } else if a >= TERA {
        (TERA, "T")
    } else if a >= GIGA {
        (GIGA, "G")
    } else if a >= MEGA {
        (MEGA, "M")
    } else if a >= KILO {
        (KILO, "k")
    } else if a >= 1.0 {
        (1.0, "")
    } else if a >= MILLI {
        (MILLI, "m")
    } else if a >= MICRO {
        (MICRO, "u")
    } else if a >= NANO {
        (NANO, "n")
    } else if a >= PICO {
        (PICO, "p")
    } else {
        (FEMTO, "f")
    };
    format!("{:.2}{}{}", value / scale, prefix, unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_si_covers_ranges() {
        assert_eq!(format_si(0.0, "V"), "0.00V");
        assert_eq!(format_si(1.5e3, "Hz"), "1.50kHz");
        assert_eq!(format_si(2.2e-12, "F"), "2.20pF");
        assert_eq!(format_si(-4.0e-9, "A"), "-4.00nA");
    }
}
