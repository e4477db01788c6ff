//! Output checks: every merged cell is compared bit for bit against a
//! reference. For the default seed the reference is the fingerprint file
//! committed beside the benchmark; for any other seed it is an untimed
//! serial run made after the timed phase.

use std::time::Instant;

use neurofi_core::sweep::{assemble_sweep, execute_cell, mean_baseline_accuracy};
use neurofi_core::{BaselineCache, Error, Parallelism, SweepCell};
use neurofi_dist::CampaignSpec;

/// The committed fingerprints of the default seed, one file per
/// workload (regenerate with `--write-reference` after a deliberate
/// change of results).
const COMMITTED: [(&str, &str); 3] = [
    ("snn-sweep", include_str!("../reference/snn-sweep.txt")),
    ("layer-sweep", include_str!("../reference/layer-sweep.txt")),
    ("service-mix", include_str!("../reference/service-mix.txt")),
];

/// FNV-1a over a cell's four IEEE-754 bit patterns: equal fingerprints
/// mean bit-identical cells (up to a 2⁻⁶⁴ collision).
pub fn fingerprint(cell: &SweepCell) -> u64 {
    [
        cell.rel_change,
        cell.fraction,
        cell.accuracy,
        cell.relative_change_percent,
    ]
    .iter()
    .flat_map(|v| v.to_bits().to_le_bytes())
    .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Expected cell fingerprints, one row per campaign, cells in plan
/// order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reference {
    /// One row per campaign.
    pub rows: Vec<Vec<u64>>,
}

impl Reference {
    /// The committed reference of `workload` (default seed only).
    pub fn committed(workload: &str) -> Reference {
        let text = COMMITTED
            .iter()
            .find(|(name, _)| *name == workload)
            .map_or("", |(_, text)| text);
        Reference::parse(text).expect("committed reference files are well formed")
    }

    /// Parses the file form: one line per campaign, a label then one
    /// 16-digit hex fingerprint per cell. `#` lines are comments.
    ///
    /// # Errors
    /// Names the first malformed token.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let rows = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|line| {
                line.split_ascii_whitespace()
                    .skip(1)
                    .map(|t| u64::from_str_radix(t, 16).map_err(|_| format!("bad token `{t}`")))
                    .collect::<Result<Vec<u64>, String>>()
            })
            .collect::<Result<_, _>>()?;
        Ok(Reference { rows })
    }

    /// The file form, labelling rows with `labels`.
    pub fn to_text(&self, header: &str, labels: &[String]) -> String {
        let mut out = format!("# {header}\n");
        for (label, row) in labels.iter().zip(&self.rows) {
            out.push_str(label);
            for fp in row {
                out.push_str(&format!(" {fp:016x}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Cells of `got` whose bits differ from `expected`, plus cells missing
/// on either side.
pub fn mismatches(expected: &[u64], got: &[Option<SweepCell>]) -> usize {
    let differing = expected
        .iter()
        .zip(got)
        .filter(|(want, cell)| cell.map(|c| fingerprint(&c)) != Some(**want))
        .count();
    differing + expected.len().abs_diff(got.len())
}

/// A serial baseline cache for the campaigns' shared setup.
pub fn serial_cache(spec: &CampaignSpec) -> BaselineCache {
    BaselineCache::new(&spec.materialize().with_parallelism(Parallelism::Serial))
}

/// Runs one campaign serially, one `execute_cell` call per cell on the
/// calling thread, and assembles it exactly as the pooled engine does.
/// `cell_seconds` receives each cell's execution time.
///
/// # Errors
/// Propagates validation and execution failures.
pub fn run_serial(
    cache: &BaselineCache,
    spec: &CampaignSpec,
    cell_seconds: &mut Vec<f64>,
) -> Result<Vec<SweepCell>, Error> {
    spec.validate()?;
    let transfer = spec.transfer_table()?;
    let plan = spec.plan();
    let baseline = mean_baseline_accuracy(cache, &plan.seeds);
    let mut results = Vec::with_capacity(plan.jobs.len());
    for job in &plan.jobs {
        let start = Instant::now();
        results.push(execute_cell(
            cache,
            &plan.seeds,
            baseline,
            job,
            transfer.as_ref(),
        )?);
        cell_seconds.push(start.elapsed().as_secs_f64());
    }
    Ok(assemble_sweep(&plan, baseline, results)?.cells)
}

/// The serial reference of `campaigns`, two campaigns at a time (each
/// still computed serially, cell by cell).
///
/// # Errors
/// Propagates the first failing campaign.
pub fn serial_reference(campaigns: &[&CampaignSpec]) -> Result<Reference, Error> {
    let Some(first) = campaigns.first() else {
        return Ok(Reference::default());
    };
    let cache = serial_cache(first);
    cache.prime(first.scenario.baseline_seeds());
    let rows = neurofi_core::sweep::run_indexed(campaigns.len(), Parallelism::Threads(2), |i| {
        run_serial(&cache, campaigns[i], &mut Vec::new())
            .map(|cells| cells.iter().map(fingerprint).collect::<Vec<u64>>())
    });
    Ok(Reference {
        rows: rows.into_iter().collect::<Result<_, _>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> SweepCell {
        SweepCell {
            rel_change: -0.2,
            fraction: 0.75,
            accuracy: 0.6125,
            relative_change_percent: -12.5,
        }
    }

    #[test]
    fn one_flipped_bit_fails_the_check() {
        let expected = vec![fingerprint(&cell()); 3];
        let good = vec![Some(cell()); 3];
        assert_eq!(mismatches(&expected, &good), 0);
        for field in 0..4 {
            let mut bad = cell();
            let target = match field {
                0 => &mut bad.rel_change,
                1 => &mut bad.fraction,
                2 => &mut bad.accuracy,
                _ => &mut bad.relative_change_percent,
            };
            *target = f64::from_bits(target.to_bits() ^ 1);
            let got = vec![Some(cell()), Some(bad), Some(cell())];
            assert_eq!(mismatches(&expected, &got), 1, "field {field}");
        }
        assert_eq!(
            mismatches(&expected, &[Some(cell()), None, Some(cell())]),
            1
        );
        assert_eq!(mismatches(&expected, &good[..1]), 2);
    }

    #[test]
    fn reference_text_round_trips() {
        let reference = Reference {
            rows: vec![vec![1, u64::MAX], vec![0xabc]],
        };
        let text = reference.to_text("test", &["a".into(), "b".into()]);
        assert_eq!(Reference::parse(&text).unwrap(), reference);
        assert!(Reference::parse("a zz").is_err());
    }

    #[test]
    fn committed_references_are_well_formed() {
        for (workload, _) in COMMITTED {
            assert!(
                !Reference::committed(workload).rows.is_empty(),
                "{workload}"
            );
        }
    }
}
