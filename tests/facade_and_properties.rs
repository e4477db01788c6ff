//! Facade coverage and cross-crate property-based tests.

use proptest::prelude::*;

#[test]
fn facade_reexports_every_layer() {
    // One representative item per re-exported crate.
    let _ = neurofi::spice::device::MosModel::ptm65_nmos();
    let _ = neurofi::analog::BandgapReference::new(0.5);
    let _ = neurofi::snn::diehl_cook::DiehlCookConfig::default();
    let _ = neurofi::data::SynthDigits::default();
    let _ = neurofi::core::PowerTransferTable::paper_nominal();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The transfer table interpolates within the convex hull of its
    /// points for any VDD.
    #[test]
    fn transfer_table_sampling_is_bounded(vdd in 0.5f64..1.5) {
        let table = neurofi::core::PowerTransferTable::paper_nominal();
        let p = table.sample(vdd);
        prop_assert!(p.drive_scale >= 0.68 - 1e-12 && p.drive_scale <= 1.32 + 1e-12);
        prop_assert!(p.if_threshold_scale >= 0.8199 - 1e-12);
        prop_assert!(p.if_threshold_scale <= 1.1714 + 1e-12);
    }

    /// Fault plans never select more neurons than requested and indices
    /// stay in range for any fraction and population size.
    #[test]
    fn fault_plan_selection_is_well_formed(
        n in 1usize..500,
        fraction in 0.0f64..=1.0,
    ) {
        use neurofi::core::FaultPlan;
        let chosen = FaultPlan::affected_indices(n, fraction);
        prop_assert!(chosen.len() <= n);
        prop_assert!(chosen.iter().all(|&i| i < n));
        // No duplicates.
        let mut sorted = chosen.clone();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), chosen.len());
        // Rounded sizing.
        let expect = ((n as f64) * fraction).round() as usize;
        prop_assert_eq!(chosen.len(), expect.min(n));
    }

    /// Synthetic digits are valid images for any label and seed.
    #[test]
    fn synth_digits_always_render(seed in any::<u64>(), n in 1usize..30) {
        let data = neurofi::data::SynthDigits::default().generate(n, seed);
        prop_assert_eq!(data.len(), n);
        for (img, label) in data.iter() {
            prop_assert_eq!(img.len(), 784);
            prop_assert!(label < 10);
        }
    }

    /// Table CSV output always has a consistent column count.
    #[test]
    fn table_csv_is_rectangular(cells in proptest::collection::vec("[a-z,\"\n]{0,8}", 9)) {
        let mut t = neurofi::core::Table::new("p", &["a", "b", "c"]);
        for chunk in cells.chunks(3) {
            t.push_row(&[chunk[0].clone(), chunk[1].clone(), chunk[2].clone()]);
        }
        let csv = t.to_csv();
        let mut reader = csv.lines();
        // Naive column check only for rows without quoted cells.
        let header_cols = reader.next().unwrap().split(',').count();
        prop_assert_eq!(header_cols, 3);
    }

    /// Waveform evaluation is finite for arbitrary (sane) pulse settings.
    #[test]
    fn pulse_waveform_is_finite(
        v1 in -2.0f64..2.0,
        v2 in -2.0f64..2.0,
        t in 0.0f64..1.0e-3,
        width in 1.0e-9f64..1.0e-5,
        period_mult in 2.0f64..10.0,
    ) {
        let w = neurofi::spice::Waveform::Pulse {
            v1,
            v2,
            delay: 1.0e-9,
            rise: 1.0e-9,
            fall: 1.0e-9,
            width,
            period: width * period_mult,
        };
        let v = w.value(t);
        prop_assert!(v.is_finite());
        prop_assert!(v >= v1.min(v2) - 1e-12 && v <= v1.max(v2) + 1e-12);
    }
}
