//! Golden §V regression vectors: the four defenses' residual
//! sensitivities (hardened transfer points, bit-exact), their paper
//! overhead numbers, and the §V-C dummy-neuron detector's 10% rule are
//! pinned to a committed file. A drift here means the paper-fidelity
//! surface moved under a refactor; an intentional change must
//! regenerate with `UPDATE_GOLDEN=1` and say so in review.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use neurofi_core::detection::{self, DummyNeuronDetector};
use neurofi_core::{DefenseSel, PowerTransferTable};

/// The four §V defenses; each prints under its axis-grammar name.
const DEFENSES: [DefenseSel; 4] = [
    DefenseSel::RobustDriver,
    DefenseSel::BandgapThreshold,
    DefenseSel::SizedNeuron,
    DefenseSel::Comparator,
];

fn render() -> String {
    let table = PowerTransferTable::paper_nominal();
    let mut out = String::from(
        "# Golden §V countermeasure vectors over the paper-nominal transfer table.\n\
         # residual <defense> <vdd> <drive_bits> <ah_bits> <if_bits> — hardened point, IEEE-754 bits\n\
         # overhead <defense> <power%> <area%>\n\
         # detector <vdd> <deviation%_bits> <flagged> — dummy-neuron count deviation vs the 10% rule\n\
         # Regenerate with: UPDATE_GOLDEN=1 cargo test -p neurofi-core --test golden_defense\n",
    );
    for defense in DEFENSES {
        let name = defense.name();
        let hardened = defense.harden_table(&table);
        for point in hardened.points() {
            writeln!(
                out,
                "residual {name} {} {:016x} {:016x} {:016x}",
                point.vdd,
                point.drive_scale.to_bits(),
                point.ah_threshold_scale.to_bits(),
                point.if_threshold_scale.to_bits(),
            )
            .unwrap();
        }
        let overhead = defense.paper_overhead();
        writeln!(
            out,
            "overhead {name} {} {}",
            overhead.power_percent, overhead.area_percent
        )
        .unwrap();
    }
    // The detector watches the *undefended* supply: enroll at the
    // nominal count and replay every table point through the 10% rule.
    const ENROLLED_COUNT: f64 = 1000.0;
    let detector = DummyNeuronDetector::new(ENROLLED_COUNT).unwrap();
    let nominal = detection::dummy_count_scale(detection::VDD_NOMINAL, &table);
    for point in table.points() {
        let observed = ENROLLED_COUNT * detection::dummy_count_scale(point.vdd, &table) / nominal;
        writeln!(
            out,
            "detector {} {:016x} {}",
            point.vdd,
            (detector.deviation(observed) * 100.0).to_bits(),
            detector.is_attack(observed),
        )
        .unwrap();
    }
    out
}

fn vector_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/defense.txt")
}

#[test]
fn section_v_countermeasures_match_committed_vectors() {
    let rendered = render();
    let path = vector_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); bless initial vectors with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        committed, rendered,
        "§V countermeasure numbers drifted from the committed golden \
         vectors. If intentional, regenerate with UPDATE_GOLDEN=1 and \
         call it out."
    );
}

#[test]
fn golden_vectors_encode_the_paper_claims() {
    // Sanity net under the bit-exact pin: the committed numbers must
    // still *mean* what §V claims — every defense shrinks its protected
    // column's 0.8 V excursion to within the bandgap residual (or the
    // sizing ratio), and the detector trips at deep undervolting while
    // staying quiet at nominal.
    let table = PowerTransferTable::paper_nominal();
    for defense in DEFENSES {
        let stock = table.sample(0.8);
        let hardened = defense.harden_table(&table).sample(0.8);
        let (stock_excursion, residual) = match defense {
            DefenseSel::None => unreachable!("the undefended circuit is not a §V defense"),
            DefenseSel::RobustDriver => (stock.drive_scale - 1.0, hardened.drive_scale - 1.0),
            DefenseSel::BandgapThreshold => (
                stock.if_threshold_scale - 1.0,
                hardened.if_threshold_scale - 1.0,
            ),
            DefenseSel::SizedNeuron | DefenseSel::Comparator => (
                stock.ah_threshold_scale - 1.0,
                hardened.ah_threshold_scale - 1.0,
            ),
        };
        assert!(
            residual.abs() < stock_excursion.abs() / 3.0,
            "{defense}: residual {residual} vs stock {stock_excursion}"
        );
    }
    let detector = DummyNeuronDetector::new(1000.0).unwrap();
    let nominal = detection::dummy_count_scale(detection::VDD_NOMINAL, &table);
    let attacked = 1000.0 * detection::dummy_count_scale(0.8, &table) / nominal;
    assert!(detector.is_attack(attacked), "0.8 V must trip the 10% rule");
    assert!(!detector.is_attack(1000.0), "nominal must stay quiet");
}
