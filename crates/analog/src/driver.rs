//! SNN input current drivers.
//!
//! [`CurrentDriver`] is the paper's Fig. 5a circuit: a resistor-programmed
//! NMOS current mirror gated by a switch transistor. Its output amplitude is
//! set by `(VDD − VGS)/R1`, which is exactly why VDD manipulation corrupts
//! the input spike amplitude (Fig. 5b: 136 nA at 0.8 V → 264 nA at 1.2 V).
//!
//! [`RobustCurrentDriver`] is the Fig. 9b defense: an op-amp forces a
//! bandgap reference voltage across R1, so the output current is
//! `VRef/R1` — independent of VDD up to the bandgap's ±0.56% residual and
//! the (long-channel-suppressed) mirror mismatch.

use neurofi_spice::device::MosModel;
use neurofi_spice::error::Result;
use neurofi_spice::units::{MEGA, MICRO, NANO};
use neurofi_spice::waveform::Waveform;
use neurofi_spice::{Netlist, NodeId};

use crate::bandgap::BandgapReference;

/// The unsecured current-mirror driver (paper Fig. 5a).
///
/// All dimensions in SI units. [`Default`] reproduces the paper's operating
/// point: ≈200 nA output at VDD = 1 V.
#[derive(Debug, Clone, PartialEq)]
pub struct CurrentDriver {
    /// Reference resistor from VDD to the diode-connected mirror input.
    pub r1: f64,
    /// Mirror transistor channel width (MN2 = MN3), meters.
    pub w_mirror: f64,
    /// Mirror transistor channel length, meters. Long (1 µm) so the mirror
    /// operates in moderate inversion with VGS ≈ 0.43 V, matching the
    /// paper's amplitude sensitivity.
    pub l_mirror: f64,
    /// Switch transistor (MN1) width, meters.
    pub w_switch: f64,
    /// Switch transistor length, meters.
    pub l_switch: f64,
    /// Voltage at which the output terminal is held while measuring the
    /// output amplitude (a surrogate for the neuron membrane), volts.
    pub out_bias: f64,
    /// NMOS model card.
    pub nmos: MosModel,
}

impl Default for CurrentDriver {
    fn default() -> CurrentDriver {
        CurrentDriver {
            r1: 2.835 * MEGA,
            w_mirror: 1.0 * MICRO,
            l_mirror: 1.0 * MICRO,
            w_switch: 2.0 * MICRO,
            l_switch: 65.0 * NANO,
            out_bias: 0.5,
            nmos: MosModel::ptm65_nmos(),
        }
    }
}

/// Node handles returned by [`CurrentDriver::build`].
#[derive(Debug, Clone, Copy)]
pub struct DriverNodes {
    /// Supply node.
    pub vdd: NodeId,
    /// Switch control input (spike voltage from the previous layer).
    pub ctrl: NodeId,
    /// Output terminal (connects to the neuron membrane).
    pub out: NodeId,
}

impl CurrentDriver {
    /// Adds the driver to `net`. `prefix` namespaces element names so
    /// several drivers can coexist in one netlist.
    ///
    /// # Errors
    /// Propagates netlist construction errors (duplicate names).
    pub fn build(&self, net: &mut Netlist, prefix: &str) -> Result<DriverNodes> {
        let vdd = net.node(&format!("{prefix}_vdd"));
        let ctrl = net.node(&format!("{prefix}_ctrl"));
        let out = net.node(&format!("{prefix}_out"));
        let nref = net.node(&format!("{prefix}_nref"));
        let mid = net.node(&format!("{prefix}_mid"));
        let gnd = Netlist::GROUND;

        net.resistor(&format!("{prefix}_R1"), vdd, nref, self.r1)?;
        // MN2: diode-connected reference device.
        net.mosfet(
            &format!("{prefix}_MN2"),
            nref,
            nref,
            gnd,
            gnd,
            self.nmos.clone(),
            self.w_mirror,
            self.l_mirror,
        )?;
        // MN3: mirror output device; MN1: series switch gated by ctrl.
        net.mosfet(
            &format!("{prefix}_MN1"),
            out,
            ctrl,
            mid,
            gnd,
            self.nmos.clone(),
            self.w_switch,
            self.l_switch,
        )?;
        net.mosfet(
            &format!("{prefix}_MN3"),
            mid,
            nref,
            gnd,
            gnd,
            self.nmos.clone(),
            self.w_mirror,
            self.l_mirror,
        )?;
        Ok(DriverNodes { vdd, ctrl, out })
    }

    /// DC output-current amplitude at the given supply voltage, amperes
    /// (switch fully on, output held at [`CurrentDriver::out_bias`]).
    ///
    /// This regenerates one point of the paper's Fig. 5b.
    ///
    /// # Errors
    /// Propagates solver failures.
    pub fn output_amplitude(&self, vdd: f64) -> Result<f64> {
        let mut net = Netlist::new();
        let nodes = self.build(&mut net, "drv")?;
        net.vsource("VDD", nodes.vdd, Netlist::GROUND, Waveform::Dc(vdd))?;
        net.vsource("VCTL", nodes.ctrl, Netlist::GROUND, Waveform::Dc(vdd))?;
        net.vsource(
            "VOUT",
            nodes.out,
            Netlist::GROUND,
            Waveform::Dc(self.out_bias),
        )?;
        let op = net.compile()?.op()?;
        // The mirror sinks current out of the output node; that current is
        // supplied by VOUT, flowing n→p inside the source, i.e. a negative
        // branch current. Report the magnitude.
        Ok(op.source_current("VOUT").unwrap_or(0.0).abs())
    }

    /// Static power drawn from VDD with the switch on, watts.
    ///
    /// # Errors
    /// Propagates solver failures.
    pub fn supply_power(&self, vdd: f64) -> Result<f64> {
        let mut net = Netlist::new();
        let nodes = self.build(&mut net, "drv")?;
        net.vsource("VDD", nodes.vdd, Netlist::GROUND, Waveform::Dc(vdd))?;
        net.vsource("VCTL", nodes.ctrl, Netlist::GROUND, Waveform::Dc(vdd))?;
        net.vsource(
            "VOUT",
            nodes.out,
            Netlist::GROUND,
            Waveform::Dc(self.out_bias),
        )?;
        let op = net.compile()?.op()?;
        // VDD sources current into the circuit: branch current is negative
        // (flows n→p internally); consumption is its magnitude times VDD.
        // The output branch is powered by VOUT (standing in for the
        // neuron), so only the VDD branch counts as driver power.
        Ok(op.source_current("VDD").unwrap_or(0.0).abs() * vdd)
    }
}

/// The robust op-amp current driver (paper Fig. 9b defense).
#[derive(Debug, Clone, PartialEq)]
pub struct RobustCurrentDriver {
    /// Current-setting resistor; output amplitude = `vref/r1`.
    pub r1: f64,
    /// Bandgap reference providing VRef.
    pub reference: BandgapReference,
    /// Mirror PMOS width, meters.
    pub w_mirror: f64,
    /// Mirror PMOS length, meters — deliberately long (10× minimum) to
    /// suppress channel-length modulation, as the paper prescribes.
    pub l_mirror: f64,
    /// Op-amp transconductance, siemens.
    pub opamp_gm: f64,
    /// Op-amp output resistance, ohms (gain = gm·rout).
    pub opamp_rout: f64,
    /// Op-amp bias current charged to the driver's power budget, amperes.
    /// (The op-amp itself is behavioural, so its supply draw is accounted
    /// explicitly.)
    pub opamp_bias_current: f64,
    /// Output measurement bias, volts.
    pub out_bias: f64,
    /// PMOS model card.
    pub pmos: MosModel,
}

impl Default for RobustCurrentDriver {
    fn default() -> RobustCurrentDriver {
        RobustCurrentDriver {
            r1: 2.5 * MEGA,
            reference: BandgapReference::new(0.5),
            w_mirror: 10.0 * MICRO,
            l_mirror: 650.0 * NANO,
            opamp_gm: 1.0e-3,
            opamp_rout: 5.0e5,
            opamp_bias_current: 10.0 * NANO,
            out_bias: 0.5,
            pmos: MosModel::ptm65_pmos(),
        }
    }
}

impl RobustCurrentDriver {
    /// Adds the driver to `net` with namespaced element names.
    ///
    /// Returns `(vdd, out)` node handles. The op-amp is modelled as a
    /// transconductance into an output resistance (gain ≈ 500), which is
    /// plenty: a 2.5 mV input-referred error changes the 200 nA output by
    /// only ≈1 nA.
    ///
    /// # Errors
    /// Propagates netlist construction errors.
    pub fn build(
        &self,
        net: &mut Netlist,
        prefix: &str,
        vdd_value: f64,
    ) -> Result<(NodeId, NodeId)> {
        let gnd = Netlist::GROUND;
        let vdd = net.node(&format!("{prefix}_vdd"));
        let out = net.node(&format!("{prefix}_out"));
        let x = net.node(&format!("{prefix}_x"));
        let gate = net.node(&format!("{prefix}_gate"));
        let vref = net.node(&format!("{prefix}_vref"));

        net.vsource(
            &format!("{prefix}_VREF"),
            vref,
            gnd,
            Waveform::Dc(self.reference.output(vdd_value)),
        )?;
        net.resistor(&format!("{prefix}_R1"), x, gnd, self.r1)?;
        // Op-amp: in+ = x, in− = vref, output node = gate.
        // v(gate) = gm·rout·(v(x) − vref): rising x raises the PMOS gate,
        // reducing its current — negative feedback.
        net.vccs(&format!("{prefix}_GOP"), gnd, gate, x, vref, self.opamp_gm)?;
        net.resistor(&format!("{prefix}_ROP"), gate, gnd, self.opamp_rout)?;
        net.capacitor(&format!("{prefix}_CC"), gate, gnd, 1.0e-12)?;
        net.mosfet(
            &format!("{prefix}_MP1"),
            x,
            gate,
            vdd,
            vdd,
            self.pmos.clone(),
            self.w_mirror,
            self.l_mirror,
        )?;
        net.mosfet(
            &format!("{prefix}_MP2"),
            out,
            gate,
            vdd,
            vdd,
            self.pmos.clone(),
            self.w_mirror,
            self.l_mirror,
        )?;
        Ok((vdd, out))
    }

    /// DC output-current amplitude at the given supply voltage, amperes.
    ///
    /// # Errors
    /// Propagates solver failures.
    pub fn output_amplitude(&self, vdd: f64) -> Result<f64> {
        let mut net = Netlist::new();
        let (vdd_node, out) = self.build(&mut net, "rdrv", vdd)?;
        net.vsource("VDD", vdd_node, Netlist::GROUND, Waveform::Dc(vdd))?;
        net.vsource("VOUT", out, Netlist::GROUND, Waveform::Dc(self.out_bias))?;
        let op = net.compile()?.op()?;
        Ok(op.source_current("VOUT").unwrap_or(0.0).abs())
    }

    /// Static *overhead* power of the driver (reference-generation branch
    /// plus the accounted op-amp bias), watts.
    ///
    /// The output branch carries the useful 200 nA delivered to the neuron
    /// — identical in the unsecured and robust designs — so it is excluded
    /// from the overhead comparison: here the VDD branch feeds both the
    /// MP1 reference leg and the MP2 output leg, and the output leg's
    /// current (measured at the VOUT bias source) is subtracted back out.
    ///
    /// # Errors
    /// Propagates solver failures.
    pub fn supply_power(&self, vdd: f64) -> Result<f64> {
        let mut net = Netlist::new();
        let (vdd_node, out) = self.build(&mut net, "rdrv", vdd)?;
        net.vsource("VDD", vdd_node, Netlist::GROUND, Waveform::Dc(vdd))?;
        net.vsource("VOUT", out, Netlist::GROUND, Waveform::Dc(self.out_bias))?;
        let op = net.compile()?.op()?;
        let total = op.source_current("VDD").unwrap_or(0.0).abs();
        let delivered = op.source_current("VOUT").unwrap_or(0.0).abs();
        Ok((total - delivered + self.opamp_bias_current) * vdd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurofi_spice::TranSpec;

    #[test]
    fn nominal_amplitude_near_200na() {
        let amp = CurrentDriver::default().output_amplitude(1.0).unwrap();
        assert!(
            (amp - 200.0e-9).abs() < 20.0e-9,
            "amplitude {amp:.3e} should be within 10% of 200 nA"
        );
    }

    #[test]
    fn amplitude_tracks_vdd_like_paper_fig5b() {
        let drv = CurrentDriver::default();
        let nominal = drv.output_amplitude(1.0).unwrap();
        let low = drv.output_amplitude(0.8).unwrap();
        let high = drv.output_amplitude(1.2).unwrap();
        let low_pct = (low - nominal) / nominal * 100.0;
        let high_pct = (high - nominal) / nominal * 100.0;
        // Paper: −32% at 0.8 V, +32% at 1.2 V. Allow a generous band; the
        // shape (symmetric, ~±30%) is what matters.
        assert!(low_pct < -24.0 && low_pct > -42.0, "low {low_pct:.1}%");
        assert!(high_pct > 24.0 && high_pct < 42.0, "high {high_pct:.1}%");
    }

    #[test]
    fn amplitude_is_monotone_in_vdd() {
        let drv = CurrentDriver::default();
        let mut prev = 0.0;
        for vdd in [0.8, 0.9, 1.0, 1.1, 1.2] {
            let amp = drv.output_amplitude(vdd).unwrap();
            assert!(amp > prev, "amplitude must rise with VDD");
            prev = amp;
        }
    }

    #[test]
    fn switch_gates_the_output() {
        // With ctrl low the driver must deliver (almost) no current.
        let drv = CurrentDriver::default();
        let mut net = Netlist::new();
        let nodes = drv.build(&mut net, "drv").unwrap();
        net.vsource("VDD", nodes.vdd, Netlist::GROUND, Waveform::Dc(1.0))
            .unwrap();
        net.vsource("VCTL", nodes.ctrl, Netlist::GROUND, Waveform::Dc(0.0))
            .unwrap();
        net.vsource("VOUT", nodes.out, Netlist::GROUND, Waveform::Dc(0.5))
            .unwrap();
        let op = net.compile().unwrap().op().unwrap();
        let off = op.source_current("VOUT").unwrap().abs();
        assert!(off < 2.0e-9, "off-state leakage {off:.2e} too large");
    }

    #[test]
    fn transient_pulses_are_gated() {
        let drv = CurrentDriver::default();
        let mut net = Netlist::new();
        let nodes = drv.build(&mut net, "drv").unwrap();
        let ctrl = Waveform::spike_train(1.0, 25.0e-9, 50.0e-9, 10.0e-9);
        net.vsource("VDD", nodes.vdd, Netlist::GROUND, Waveform::Dc(1.0))
            .unwrap();
        net.vsource("VCTL", nodes.ctrl, Netlist::GROUND, ctrl)
            .unwrap();
        net.vsource("VOUT", nodes.out, Netlist::GROUND, Waveform::Dc(0.5))
            .unwrap();
        let res = net
            .compile()
            .unwrap()
            .tran(&TranSpec::new(200.0e-9, 1.0e-9))
            .unwrap();
        let t = res.times();
        let i: Vec<f64> = res
            .source_current("VOUT")
            .unwrap()
            .into_iter()
            .map(f64::abs)
            .collect();
        let peak = neurofi_spice::measure::maximum(&i);
        assert!(peak > 150.0e-9, "peak {peak:.2e}");
        // Before the first pulse the output is quiet.
        let early = neurofi_spice::measure::average_in(t, &i, 0.0, 8.0e-9).unwrap();
        assert!(early < 10.0e-9);
    }

    #[test]
    fn robust_driver_nominal_amplitude() {
        let drv = RobustCurrentDriver::default();
        let amp = drv.output_amplitude(1.0).unwrap();
        // vref/r1 = 0.5 / 2.5 MΩ = 200 nA.
        assert!((amp - 200.0e-9).abs() < 10.0e-9, "amp {amp:.3e}");
    }

    #[test]
    fn robust_driver_is_flat_across_vdd() {
        let drv = RobustCurrentDriver::default();
        let nominal = drv.output_amplitude(1.0).unwrap();
        for vdd in [0.8, 0.9, 1.1, 1.2] {
            let amp = drv.output_amplitude(vdd).unwrap();
            let pct = (amp - nominal) / nominal * 100.0;
            assert!(
                pct.abs() < 2.0,
                "robust driver moved {pct:.2}% at vdd={vdd}"
            );
        }
    }

    #[test]
    fn robust_driver_beats_unsecured_by_an_order_of_magnitude() {
        let unsec = CurrentDriver::default();
        let robust = RobustCurrentDriver::default();
        let spread = |amps: &[f64]| {
            let max = amps.iter().cloned().fold(f64::MIN, f64::max);
            let min = amps.iter().cloned().fold(f64::MAX, f64::min);
            (max - min) / amps[1]
        };
        let vdds = [0.8, 1.0, 1.2];
        let unsec_amps: Vec<f64> = vdds
            .iter()
            .map(|&v| unsec.output_amplitude(v).unwrap())
            .collect();
        let robust_amps: Vec<f64> = vdds
            .iter()
            .map(|&v| robust.output_amplitude(v).unwrap())
            .collect();
        assert!(spread(&robust_amps) < spread(&unsec_amps) / 10.0);
    }

    #[test]
    fn power_overhead_is_small() {
        // Both numbers are reference-branch powers: the unsecured driver's
        // VDD branch feeds only R1/MN2, and the robust driver's accounting
        // excludes the delivered output current (see `supply_power`).
        let unsec = CurrentDriver::default().supply_power(1.0).unwrap();
        let robust = RobustCurrentDriver::default().supply_power(1.0).unwrap();
        let overhead = (robust - unsec) / unsec;
        // Paper reports 3%; accept anything modest.
        assert!(
            overhead > -0.10 && overhead < 0.25,
            "overhead {:.1}% out of band",
            overhead * 100.0
        );
    }
}
