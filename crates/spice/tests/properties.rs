//! Property-based tests of the circuit-simulation substrate.

#![allow(clippy::needless_range_loop)] // index pairs build random matrices

use proptest::prelude::*;

use neurofi_spice::device::MosModel;
use neurofi_spice::mna::DenseMatrix;
use neurofi_spice::{Engine, Netlist, TranSpec, Waveform};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// LU solves random diagonally-dominant systems to tight residuals.
    #[test]
    fn lu_solver_residual_is_small(
        n in 2usize..20,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut a = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            let mut sum = 0.0;
            for j in 0..n {
                if i != j {
                    a[i][j] = next();
                    sum += a[i][j].abs();
                }
            }
            a[i][i] = sum + 1.0 + next().abs();
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let mut m = DenseMatrix::new(n);
        for i in 0..n {
            for j in 0..n {
                m.set(i, j, a[i][j]);
            }
        }
        let mut x = b.clone();
        m.solve_in_place(&mut x).unwrap();
        for i in 0..n {
            let row: f64 = (0..n).map(|j| a[i][j] * x[j]).sum();
            prop_assert!((row - b[i]).abs() < 1e-8, "residual {} at row {i}", row - b[i]);
        }
    }

    /// The MOSFET model is continuous: nearby inputs give nearby currents
    /// across all operating regions, including the region boundaries.
    #[test]
    fn mosfet_model_is_continuous(
        vg in 0.0f64..1.2,
        vd in 0.0f64..1.2,
        vs in 0.0f64..0.6,
    ) {
        let m = MosModel::ptm65_nmos();
        let e0 = m.eval(1.0e-6, 65.0e-9, vg, vd, vs, 0.0);
        let h = 1.0e-6;
        let e1 = m.eval(1.0e-6, 65.0e-9, vg + h, vd + h, vs + h, 0.0);
        // Lipschitz-ish bound: currents are at most mA-scale, slopes at
        // most tens of mS, so a 1 µV triple-step moves id < 1 µA.
        prop_assert!((e1.id - e0.id).abs() < 1.0e-6);
        prop_assert!(e0.id.is_finite() && e0.did_dvg.is_finite());
    }

    /// Drain current never flows against vds for a gate-side device
    /// (passivity of the channel).
    #[test]
    fn mosfet_channel_is_passive(
        vg in 0.0f64..1.2,
        vds in -1.2f64..1.2,
    ) {
        let m = MosModel::ptm65_nmos();
        let e = m.eval(1.0e-6, 65.0e-9, vg, vds.max(0.0) + vds.min(0.0), 0.0, 0.0);
        // id and vds share sign (or id == 0).
        prop_assert!(e.id * vds >= -1e-18, "id {} vs vds {}", e.id, vds);
    }

    /// RC step responses match the analytic exponential for random R and
    /// C over two decades each.
    #[test]
    fn rc_transient_matches_analytic(
        r_exp in 0.0f64..2.0,
        c_exp in 0.0f64..2.0,
    ) {
        let r = 1.0e3 * 10f64.powf(r_exp);
        let c = 1.0e-10 * 10f64.powf(c_exp);
        let tau = r * c;
        let mut net = Netlist::new();
        let vin = net.node("in");
        let out = net.node("out");
        net.vsource("V1", vin, Netlist::GROUND, Waveform::Dc(1.0)).unwrap();
        net.resistor("R1", vin, out, r).unwrap();
        net.capacitor("C1", out, Netlist::GROUND, c).unwrap();
        let spec = TranSpec::new(2.0 * tau, tau / 100.0).with_uic();
        let res = net.compile().unwrap().tran(&spec).unwrap();
        let v = res.voltage(out);
        for (idx, &t) in res.times().iter().enumerate().step_by(17) {
            let expect = 1.0 - (-t / tau).exp();
            prop_assert!(
                (v[idx] - expect).abs() < 8.0e-3,
                "t={t:.3e}: {} vs {expect}",
                v[idx]
            );
        }
    }

    /// Pulse waveforms never exceed their endpoint values and honour the
    /// delay.
    #[test]
    fn pulse_bounds_and_delay(
        delay in 0.0f64..1.0e-6,
        width in 1.0e-9f64..1.0e-6,
        t in 0.0f64..5.0e-6,
    ) {
        let w = Waveform::Pulse {
            v1: 0.2,
            v2: 0.9,
            delay,
            rise: 1.0e-9,
            fall: 1.0e-9,
            width,
            period: 2.0 * width + 10.0e-9,
        };
        let v = w.value(t);
        prop_assert!((0.2..=0.9).contains(&v));
        if t < delay {
            prop_assert_eq!(v, 0.2);
        }
    }

    /// A resistive divider's operating point is exact for arbitrary
    /// resistor pairs (the solver introduces no bias on linear circuits).
    #[test]
    fn divider_op_is_exact(
        r1_exp in 1.0f64..6.0,
        r2_exp in 1.0f64..6.0,
        vsrc in 0.1f64..5.0,
    ) {
        let r1 = 10f64.powf(r1_exp);
        let r2 = 10f64.powf(r2_exp);
        let mut net = Netlist::new();
        let a = net.node("a");
        let mid = net.node("mid");
        net.vsource("V1", a, Netlist::GROUND, Waveform::Dc(vsrc)).unwrap();
        net.resistor("R1", a, mid, r1).unwrap();
        net.resistor("R2", mid, Netlist::GROUND, r2).unwrap();
        let op = net.compile().unwrap().op().unwrap();
        let expect = vsrc * r2 / (r1 + r2);
        prop_assert!(
            (op.voltage(mid) - expect).abs() < 1e-6 * vsrc + 1e-9,
            "{} vs {expect}",
            op.voltage(mid)
        );
    }

    /// The sparse engine agrees with the dense engine within 1e-9
    /// relative on random resistive-ladder operating points.
    #[test]
    fn sparse_op_matches_dense_on_random_ladders(
        n in 2usize..16,
        seed in any::<u64>(),
        vsrc in 0.2f64..3.0,
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64 + 0.05
        };
        let mut net = Netlist::new();
        let nodes: Vec<_> = (0..n).map(|i| net.node(&format!("n{i}"))).collect();
        net.vsource("V1", nodes[0], Netlist::GROUND, Waveform::Dc(vsrc)).unwrap();
        for i in 1..n {
            // Series rung plus a shunt to ground: always well-posed.
            net.resistor(&format!("Rs{i}"), nodes[i - 1], nodes[i], 1.0e3 * next())
                .unwrap();
            net.resistor(&format!("Rg{i}"), nodes[i], Netlist::GROUND, 1.0e4 * next())
                .unwrap();
        }
        let circuit = net.compile().unwrap();
        let dense = circuit.op_with_engine(Engine::Dense).unwrap();
        let sparse = circuit.op_with_engine(Engine::Sparse).unwrap();
        for &node in &nodes {
            let d = dense.voltage(node);
            let s = sparse.voltage(node);
            prop_assert!(
                (d - s).abs() <= 1e-9 * d.abs().max(s.abs()).max(1.0),
                "node {node:?}: dense {d} vs sparse {s}"
            );
        }
    }

    /// Sparse and dense transients agree within 1e-9 relative on RC
    /// networks (same fixed-step schedule, different LU).
    #[test]
    fn sparse_tran_matches_dense_on_rc(
        r_exp in 0.0f64..2.0,
        c_exp in 0.0f64..2.0,
    ) {
        let r = 1.0e3 * 10f64.powf(r_exp);
        let c = 1.0e-10 * 10f64.powf(c_exp);
        let tau = r * c;
        let mut net = Netlist::new();
        let vin = net.node("in");
        let out = net.node("out");
        net.vsource("V1", vin, Netlist::GROUND, Waveform::Dc(1.0)).unwrap();
        net.resistor("R1", vin, out, r).unwrap();
        net.capacitor("C1", out, Netlist::GROUND, c).unwrap();
        let circuit = net.compile().unwrap();
        let spec = TranSpec::new(2.0 * tau, tau / 50.0).with_uic();
        let dense = circuit.tran_with_engine(Engine::Dense, &spec).unwrap();
        let sparse = circuit.tran_with_engine(Engine::Sparse, &spec).unwrap();
        prop_assert_eq!(dense.len(), sparse.len());
        let vd = dense.voltage(out);
        let vs = sparse.voltage(out);
        for (i, (d, s)) in vd.iter().zip(&vs).enumerate() {
            prop_assert!(
                (d - s).abs() <= 1e-9 * d.abs().max(s.abs()).max(1.0),
                "point {i}: dense {d} vs sparse {s}"
            );
        }
        // The sparse engine reused its pattern across the analysis.
        let st = sparse.stats().solver;
        prop_assert!(st.refactorizations > 0, "{st:?}");
        prop_assert!(st.nnz < st.dim * st.dim || st.dim <= 2);
    }
}
