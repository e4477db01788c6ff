//! MOSFET compact model (EKV-style) and technology model cards.
//!
//! The paper simulates its neuron circuits on PTM 65 nm HSPICE cards. Those
//! cards are BSIM4 decks we cannot redistribute; what the experiments
//! actually exercise is (a) square-law strong-inversion behaviour of
//! current mirrors and inverters, (b) subthreshold leakage (the VAIF
//! neuron's leak transistor operates at VGS = 0.2 V, well below
//! threshold), and (c) channel-length modulation (the robust current driver
//! explicitly uses long channels to suppress it).
//!
//! The EKV first-order model captures all three in one smooth, infinitely
//! differentiable equation — ideal for Newton iteration on circuits whose
//! membrane nodes ramp slowly through the transition region:
//!
//! ```text
//! id = 2·n·β·VT² · (1 + λ·|vds|smooth) · [ F(xf) − F(xr) ]
//! F(x) = ln²(1 + exp(x/2))
//! xf = (vp − vsb)/VT,   xr = (vp − vdb)/VT,   vp = (vgb − vt0)/n
//! ```
//!
//! `F` limits to `x²/4` in strong inversion (square law) and to `exp(x)` in
//! weak inversion (subthreshold exponential).

use crate::units::VT_ROOM;

/// MOSFET polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosType {
    /// N-channel device.
    Nmos,
    /// P-channel device.
    Pmos,
}

impl std::fmt::Display for MosType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MosType::Nmos => write!(f, "nmos"),
            MosType::Pmos => write!(f, "pmos"),
        }
    }
}

/// A MOSFET model card.
///
/// Construct via [`MosModel::ptm65_nmos`] / [`MosModel::ptm65_pmos`] for the
/// calibrated defaults used throughout the workspace, or derive custom
/// cards from them with struct-update syntax:
///
/// ```
/// use neurofi_spice::device::MosModel;
/// let slow = MosModel {
///     vt0: 0.5,
///     lambda: 0.0,
///     ..MosModel::ptm65_nmos()
/// };
/// assert_eq!(slow.vt0, 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MosModel {
    /// Polarity.
    pub mos_type: MosType,
    /// Zero-bias threshold voltage magnitude in volts (positive for both
    /// polarities; the evaluation applies the sign).
    pub vt0: f64,
    /// Transconductance parameter µ·Cox in A/V².
    pub kp: f64,
    /// Subthreshold slope factor (dimensionless, typically 1.2–1.5).
    pub n: f64,
    /// Channel-length modulation in 1/V (at the reference length; scaled by
    /// `l_ref / l` for longer devices, which is how long channels suppress
    /// it).
    pub lambda: f64,
    /// Reference channel length for the `lambda` scaling, in meters.
    pub l_ref: f64,
    /// Thermal voltage kT/q in volts.
    pub vt_thermal: f64,
}

impl MosModel {
    /// PTM-65nm-like NMOS card: |Vt0| = 0.423 V, kp = 200 µA/V².
    ///
    /// The threshold voltages match the published PTM 65 nm bulk CMOS
    /// values; kp and λ are calibrated so that the paper's circuit-level
    /// observations hold (200 nA driver current at VDD = 1 V, inverter
    /// switching threshold 0.5 V, ±32% driver amplitude swing over
    /// VDD ∈ [0.8, 1.2]).
    pub fn ptm65_nmos() -> MosModel {
        MosModel {
            mos_type: MosType::Nmos,
            vt0: 0.423,
            kp: 200.0e-6,
            n: 1.25,
            lambda: 0.15,
            l_ref: 65.0e-9,
            vt_thermal: VT_ROOM,
        }
    }

    /// PTM-65nm-like PMOS card: |Vt0| = 0.365 V, kp = 80 µA/V².
    pub fn ptm65_pmos() -> MosModel {
        MosModel {
            mos_type: MosType::Pmos,
            vt0: 0.365,
            kp: 80.0e-6,
            n: 1.25,
            lambda: 0.18,
            l_ref: 65.0e-9,
            vt_thermal: VT_ROOM,
        }
    }

    /// Evaluates drain current and its partial derivatives with respect to
    /// the *terminal node voltages* (gate, drain, source, bulk), all
    /// referenced to ground.
    ///
    /// Returns [`MosEval`] with `id` = current flowing **into the drain
    /// terminal** (out of the source), which is negative for PMOS devices in
    /// normal operation. Handing back ∂id/∂v_terminal directly makes the MNA
    /// stamp polarity-agnostic and lets unit tests check the derivatives by
    /// finite differences.
    pub fn eval(&self, w: f64, l: f64, vg: f64, vd: f64, vs: f64, vb: f64) -> MosEval {
        // For PMOS evaluate the mirrored NMOS and flip current + derivative
        // signs via the chain rule: id_p(v) = -id_n(-v), so
        // d id_p / d v = + d id_n / d v' evaluated at v' = -v ... with an
        // extra -1 from the outer negation and -1 from the inner mirror,
        // i.e. derivatives keep the same magnitude and overall sign flips
        // once for the current and cancel for the Jacobian entries.
        match self.mos_type {
            MosType::Nmos => self.eval_nmos(w, l, vg, vd, vs, vb),
            MosType::Pmos => {
                let m = self.eval_nmos(w, l, -vg, -vd, -vs, -vb);
                MosEval {
                    id: -m.id,
                    did_dvg: m.did_dvg,
                    did_dvd: m.did_dvd,
                    did_dvs: m.did_dvs,
                    did_dvb: m.did_dvb,
                }
            }
        }
    }

    fn eval_nmos(&self, w: f64, l: f64, vg: f64, vd: f64, vs: f64, vb: f64) -> MosEval {
        let vt = self.vt_thermal;
        let n = self.n;
        let beta = self.kp * w / l;
        let i_s = 2.0 * n * beta * vt * vt; // specific current scale

        let vgb = vg - vb;
        let vsb = vs - vb;
        let vdb = vd - vb;
        let vp = (vgb - self.vt0) / n;

        let xf = (vp - vsb) / vt;
        let xr = (vp - vdb) / vt;
        let (ff, dff) = ekv_f(xf);
        let (fr, dfr) = ekv_f(xr);

        // Channel-length modulation, smooth and symmetric in vds.
        let lambda = self.lambda * (self.l_ref / l).min(1.0);
        let vds = vd - vs;
        let u = vds / (2.0 * vt);
        let tanh_u = u.tanh();
        let s = vds * tanh_u; // smooth |vds|
        let ds_dvds = tanh_u + vds * (1.0 - tanh_u * tanh_u) / (2.0 * vt);
        let m = 1.0 + lambda * s;
        let dm_dvds = lambda * ds_dvds;

        let core = i_s * (ff - fr);
        let id = core * m;

        // Partials of core w.r.t. terminal voltages.
        //   xf depends on vg (+1/(n·vt)), vs (−1/vt), vb ((1/vt)(1 − 1/n))
        //   xr depends on vg (+1/(n·vt)), vd (−1/vt), vb ((1/vt)(1 − 1/n))
        // (vp falls with vb by 1/n while vsb/vdb fall by 1, so the combined
        // bulk sensitivity is dxf/dvb = dxr/dvb = (1 − 1/n)/vt ≥ 0.)
        let dx_dvb = (1.0 - 1.0 / n) / vt;
        let dcore_dvg = i_s * (dff - dfr) / (n * vt);
        let dcore_dvs = i_s * (-dff) / vt;
        let dcore_dvd = i_s * dfr / vt;
        let dcore_dvb = i_s * (dff - dfr) * dx_dvb;

        // vds-dependence of the CLM multiplier: vds = vd - vs.
        let did_dvg = dcore_dvg * m;
        let did_dvd = dcore_dvd * m + core * dm_dvds;
        let did_dvs = dcore_dvs * m - core * dm_dvds;
        let did_dvb = dcore_dvb * m;

        MosEval {
            id,
            did_dvg,
            did_dvd,
            did_dvs,
            did_dvb,
        }
    }
}

/// Drain current and Jacobian entries returned by [`MosModel::eval`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosEval {
    /// Current into the drain terminal, in amperes.
    pub id: f64,
    /// ∂id/∂vg.
    pub did_dvg: f64,
    /// ∂id/∂vd.
    pub did_dvd: f64,
    /// ∂id/∂vs.
    pub did_dvs: f64,
    /// ∂id/∂vb.
    pub did_dvb: f64,
}

/// The EKV interpolation function `F(x) = ln²(1+e^{x/2})` and its
/// derivative, computed overflow-safely for large |x|.
fn ekv_f(x: f64) -> (f64, f64) {
    // ln(1+e^{x/2}): for large x this is ~x/2; for very negative x, ~e^{x/2}.
    let half = 0.5 * x;
    let lse = if half > 30.0 {
        half
    } else if half < -30.0 {
        half.exp()
    } else {
        half.exp().ln_1p()
    };
    let f = lse * lse;
    // dF/dx = 2·lse·σ(x/2)·(1/2) = lse·σ(x/2)
    let sigma = if half > 30.0 {
        1.0
    } else if half < -30.0 {
        half.exp()
    } else {
        1.0 / (1.0 + (-half).exp())
    };
    (f, lse * sigma)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fd_check(model: &MosModel, vg: f64, vd: f64, vs: f64, vb: f64) {
        let w = 1.0e-6;
        let l = 65.0e-9;
        let e = model.eval(w, l, vg, vd, vs, vb);
        let h = 1.0e-7;
        let fd = |f: &dyn Fn(f64) -> f64| (f(h) - f(-h)) / (2.0 * h);
        let dg = fd(&|dv| model.eval(w, l, vg + dv, vd, vs, vb).id);
        let dd = fd(&|dv| model.eval(w, l, vg, vd + dv, vs, vb).id);
        let ds = fd(&|dv| model.eval(w, l, vg, vd, vs + dv, vb).id);
        let db = fd(&|dv| model.eval(w, l, vg, vd, vs, vb + dv).id);
        let tol = |a: f64| 1.0e-9 + 1.0e-4 * a.abs();
        assert!(
            (e.did_dvg - dg).abs() < tol(dg),
            "gate: {} vs {}",
            e.did_dvg,
            dg
        );
        assert!(
            (e.did_dvd - dd).abs() < tol(dd),
            "drain: {} vs {}",
            e.did_dvd,
            dd
        );
        assert!(
            (e.did_dvs - ds).abs() < tol(ds),
            "source: {} vs {}",
            e.did_dvs,
            ds
        );
        assert!(
            (e.did_dvb - db).abs() < tol(db),
            "bulk: {} vs {}",
            e.did_dvb,
            db
        );
    }

    #[test]
    fn nmos_derivatives_match_finite_differences() {
        let m = MosModel::ptm65_nmos();
        for (vg, vd, vs) in [
            (0.6, 1.0, 0.0),   // saturation
            (0.9, 0.1, 0.0),   // triode
            (0.2, 1.0, 0.0),   // subthreshold
            (0.6, 0.0, 0.0),   // vds = 0
            (0.6, -0.3, 0.0),  // reverse
            (0.423, 0.5, 0.0), // right at threshold
        ] {
            fd_check(&m, vg, vd, vs, 0.0);
        }
    }

    #[test]
    fn pmos_derivatives_match_finite_differences() {
        let m = MosModel::ptm65_pmos();
        for (vg, vd, vs) in [
            (0.3, 0.0, 1.0), // saturation (vsg = 0.7)
            (0.0, 0.9, 1.0), // triode
            (0.8, 0.0, 1.0), // subthreshold
        ] {
            fd_check(&m, vg, vd, vs, 1.0);
        }
    }

    #[test]
    fn nmos_current_is_zeroish_below_threshold() {
        let m = MosModel::ptm65_nmos();
        let e = m.eval(1.0e-6, 65.0e-9, 0.0, 1.0, 0.0, 0.0);
        assert!(e.id > 0.0);
        assert!(e.id < 1.0e-9, "leakage too large: {}", e.id);
    }

    #[test]
    fn nmos_square_law_in_saturation() {
        // In strong inversion + saturation, id should grow roughly
        // quadratically with overdrive.
        let m = MosModel {
            lambda: 0.0,
            ..MosModel::ptm65_nmos()
        };
        let i1 = m.eval(1.0e-6, 65.0e-9, 0.423 + 0.2, 1.2, 0.0, 0.0).id;
        let i2 = m.eval(1.0e-6, 65.0e-9, 0.423 + 0.4, 1.2, 0.0, 0.0).id;
        let ratio = i2 / i1;
        assert!(ratio > 3.0 && ratio < 4.6, "ratio={ratio}");
    }

    #[test]
    fn current_is_source_drain_antisymmetric() {
        let m = MosModel {
            lambda: 0.0,
            ..MosModel::ptm65_nmos()
        };
        let fwd = m.eval(1.0e-6, 65.0e-9, 0.8, 0.3, 0.1, 0.0).id;
        let rev = m.eval(1.0e-6, 65.0e-9, 0.8, 0.1, 0.3, 0.0).id;
        assert!((fwd + rev).abs() < 1.0e-12 * fwd.abs().max(1.0));
    }

    #[test]
    fn pmos_conducts_with_negative_vgs() {
        let m = MosModel::ptm65_pmos();
        // Source at VDD=1, gate at 0: strongly on, current flows source->drain,
        // i.e. *out of* the drain terminal => negative id by our convention.
        let e = m.eval(1.0e-6, 65.0e-9, 0.0, 0.0, 1.0, 1.0);
        assert!(e.id < -1.0e-6, "id={}", e.id);
    }

    #[test]
    fn vds_zero_gives_zero_current() {
        let m = MosModel::ptm65_nmos();
        let e = m.eval(1.0e-6, 65.0e-9, 1.0, 0.4, 0.4, 0.0);
        assert!(e.id.abs() < 1.0e-15);
    }

    #[test]
    fn longer_channel_reduces_output_conductance() {
        let m = MosModel::ptm65_nmos();
        let short = m.eval(1.0e-6, 65.0e-9, 0.8, 1.0, 0.0, 0.0);
        let long = m.eval(8.0e-6, 520.0e-9, 0.8, 1.0, 0.0, 0.0); // same W/L
                                                                 // Same W/L => similar current, but gds (did_dvd) must shrink.
        assert!((short.id - long.id).abs() / short.id < 0.15);
        assert!(long.did_dvd < short.did_dvd * 0.4);
    }

    #[test]
    fn subthreshold_slope_is_exponential() {
        let m = MosModel::ptm65_nmos();
        let i1 = m.eval(1.0e-6, 65.0e-9, 0.20, 1.0, 0.0, 0.0).id;
        let i2 = m.eval(1.0e-6, 65.0e-9, 0.26, 1.0, 0.0, 0.0).id;
        // Subthreshold slope is n·VT·ln(10) ≈ 74 mV/decade for n = 1.25,
        // so a 60 mV gate step is ≈ 0.81 decades.
        let decades = (i2 / i1).log10();
        assert!(decades > 0.6 && decades < 1.1, "decades={decades}");
    }

    #[test]
    fn ekv_f_limits() {
        // Strong inversion: F(x) -> (x/2)^2.
        let (f, _) = super::ekv_f(40.0);
        assert!((f - 400.0).abs() / 400.0 < 0.01);
        // Weak inversion: F(x) -> e^x (since ln(1+e^{x/2}) ~ e^{x/2}).
        let (f, _) = super::ekv_f(-20.0);
        assert!((f - (-20.0f64).exp()).abs() / (-20.0f64).exp() < 0.01);
        // No overflow at extreme arguments.
        let (f, df) = super::ekv_f(1.0e4);
        assert!(f.is_finite() && df.is_finite());
        let (f, df) = super::ekv_f(-1.0e4);
        assert!(f >= 0.0 && df >= 0.0);
    }
}
