//! Property-based tests of the behavioural SNN substrate.

use proptest::prelude::*;

use neurofi_snn::neurons::{LifLayer, LifParameters};
use neurofi_snn::tensor::Matrix;
use neurofi_snn::topology::{DenseConnection, LateralInhibition, OneToOneConnection};
use neurofi_snn::PoissonEncoder;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Column normalisation always hits its target for strictly positive
    /// matrices of any shape.
    #[test]
    fn normalization_reaches_target(
        rows in 1usize..40,
        cols in 1usize..20,
        target in 0.1f32..100.0,
        seed in any::<u32>(),
    ) {
        let mut state = seed as u64 | 1;
        let mut m = Matrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 40) as f32 / (1u64 << 24) as f32) + 0.01
        });
        m.normalize_columns(target);
        for s in m.column_sums() {
            prop_assert!((s - target).abs() < 1e-3 * target, "{s} vs {target}");
        }
    }

    /// Membrane potential can never exceed the effective threshold after
    /// a step (it either stays below or the neuron fired and reset).
    ///
    /// The threshold-scale range is restricted to keep the effective
    /// threshold above the reset potential: beyond ≈1.15 the neuron
    /// enters the self-oscillation regime (reset ≥ threshold) that the
    /// paper's "+20%" attacks exploit, where this invariant genuinely
    /// does not hold.
    #[test]
    fn membrane_respects_threshold(
        drive in 0.0f32..30.0,
        steps in 1usize..200,
        scale in 0.5f32..1.1,
    ) {
        let mut layer = LifLayer::new(1, LifParameters::diehl_cook_excitatory(), 1.0);
        layer.threshold_scale[0] = scale;
        for _ in 0..steps {
            layer.step(&[drive]);
            if layer.spikes[0] == 0.0 {
                prop_assert!(layer.v[0] < layer.effective_threshold(0));
            } else {
                prop_assert_eq!(layer.v[0], layer.params().v_reset);
            }
        }
    }

    /// Poisson rates concentrate around pixel/255 · max_rate for any
    /// pixel value.
    #[test]
    fn poisson_rate_concentrates(pixel in 1u8..=255) {
        let mut enc = PoissonEncoder::new(128.0, 1.0, 7);
        let image = vec![pixel; 64];
        let steps = 3000;
        let mut count = 0u64;
        let mut buf = vec![0.0f32; 64];
        for _ in 0..steps {
            enc.encode_step_into(&image, &mut buf);
            count += buf.iter().filter(|&&s| s > 0.0).count() as u64;
        }
        let p_hat = count as f64 / (steps as f64 * 64.0);
        let p = pixel as f64 / 255.0 * 0.128;
        // Binomial concentration: 5 sigma over 192k draws.
        let sigma = (p * (1.0 - p) / (steps as f64 * 64.0)).sqrt();
        prop_assert!(
            (p_hat - p).abs() < 5.0 * sigma + 1e-4,
            "p_hat {p_hat} vs p {p}"
        );
    }

    /// Dense forward propagation is linear in the gain hook.
    #[test]
    fn dense_gain_is_linear(gain in 0.1f32..3.0, seed in any::<u64>()) {
        let conn = DenseConnection::random(30, 10, 0.3, 0.0, 1.0, seed);
        let spiking: Vec<usize> = (0..30).step_by(3).collect();
        let mut base = vec![0.0f32; 10];
        conn.forward_spiking(&spiking, &mut base);
        let mut scaled_conn = conn.clone();
        scaled_conn.gain = gain;
        let mut scaled = vec![0.0f32; 10];
        scaled_conn.forward_spiking(&spiking, &mut scaled);
        for (b, s) in base.iter().zip(&scaled) {
            prop_assert!((s - b * gain).abs() < 1e-4, "{s} vs {}", b * gain);
        }
    }

    /// Lateral inhibition conserves the all-but-self sum: total delivered
    /// inhibition equals weight · spikes · (n − 1).
    #[test]
    fn lateral_inhibition_mass_balance(
        n in 2usize..50,
        firing in 0usize..10,
    ) {
        let conn = LateralInhibition::new(n, -7.0);
        let firing = firing.min(n);
        let spikes: Vec<f32> = (0..n).map(|i| if i < firing { 1.0 } else { 0.0 }).collect();
        let mut out = vec![0.0f32; n];
        conn.forward_into(&spikes, &mut out);
        let total: f32 = out.iter().sum();
        let expect = -7.0 * (firing as f32) * (n as f32 - 1.0);
        prop_assert!((total - expect).abs() < 1e-3 * expect.abs().max(1.0));
    }

    /// One-to-one connections never mix channels.
    #[test]
    fn one_to_one_is_diagonal(n in 1usize..60, hot in 0usize..60) {
        let hot = hot.min(n - 1);
        let conn = OneToOneConnection::new(n, 22.5);
        let mut spikes = vec![0.0f32; n];
        spikes[hot] = 1.0;
        let mut out = vec![0.0f32; n];
        conn.forward_into(&spikes, &mut out);
        for (i, &o) in out.iter().enumerate() {
            if i == hot {
                prop_assert_eq!(o, 22.5);
            } else {
                prop_assert_eq!(o, 0.0);
            }
        }
    }

    /// Refractory periods are honoured exactly: after any spike the
    /// neuron is silent for ceil(refractory/dt) steps no matter the drive.
    #[test]
    fn refractory_is_absolute(drive in 5.0f32..100.0) {
        let params = LifParameters::diehl_cook_excitatory();
        let refrac_steps = params.refractory_ms as usize;
        let mut layer = LifLayer::new(1, params, 1.0);
        let mut last_spike: Option<usize> = None;
        for step in 0..100 {
            layer.step(&[drive]);
            if layer.spikes[0] > 0.0 {
                if let Some(prev) = last_spike {
                    prop_assert!(step - prev > refrac_steps, "spikes {prev} and {step}");
                }
                last_spike = Some(step);
            }
        }
    }
}
