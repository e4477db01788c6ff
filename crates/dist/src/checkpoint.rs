//! On-disk checkpoint journal for interrupted campaigns.
//!
//! The coordinator appends one record per completed cell (plus one for
//! the campaign's baseline accuracy) to a plain-text journal. A
//! restarted coordinator replays the journal, skips every cell already
//! measured, and only schedules the remainder — a killed worker or a
//! crashed coordinator costs at most the cells that were in flight.
//!
//! Robustness properties:
//!
//! * The header binds the journal to one
//!   [`CampaignSpec`](crate::CampaignSpec) digest and cell count;
//!   resuming with a different campaign is refused instead of silently
//!   merging incompatible grids.
//! * Floats are stored as 16-digit hex IEEE-754 bit patterns, so a
//!   resumed merge stays *bit*-identical to an uninterrupted run.
//! * The file is a [`neurofi_store::log`], the crash-safe append-only
//!   log the result store is built on: each record is flushed as it is
//!   appended, and a torn trailing line (from a crash mid-write) is
//!   dropped on load rather than poisoning the journal. That module
//!   states what the syscalls guarantee: an acked cell survives
//!   `kill -9` of the coordinator, not a power loss.

use std::path::Path;

use neurofi_core::sweep::{CellResult, SweepCell};
use neurofi_store::log::{hex_bits, parse_bits, Log, OpenError};

use crate::DistError;

const MAGIC: &str = "neurofi-dist-journal v1";

/// What a journal replay recovered.
#[derive(Debug, Clone, Default)]
pub struct Recovered {
    /// Completed cells, deduplicated, in journal order.
    pub results: Vec<CellResult>,
    /// The campaign's mean baseline accuracy, if it was recorded.
    pub baseline_accuracy: Option<f64>,
}

/// An append-only checkpoint journal bound to one campaign.
#[derive(Debug)]
pub struct Journal {
    log: Log,
}

fn journal_error(path: &Path, message: impl Into<String>) -> DistError {
    DistError::Journal(format!("{}: {}", path.display(), message.into()))
}

impl Journal {
    /// Opens `path` for the campaign identified by `digest` over
    /// `n_cells` cells: creates a fresh journal when absent, otherwise
    /// replays the existing records and reopens in append mode.
    ///
    /// # Errors
    /// Fails on i/o errors, a foreign or mismatched header, or corrupt
    /// non-trailing records.
    pub fn open(
        path: &Path,
        digest: u64,
        n_cells: usize,
    ) -> Result<(Journal, Recovered), DistError> {
        let header = format!("{MAGIC} digest={digest:016x} cells={n_cells}");
        let mut recovered = Recovered::default();
        let mut seen = vec![false; n_cells];
        let log = Log::open(path, &header, |number, line| {
            Some(match parse_record(line)? {
                Record::Baseline(accuracy) => {
                    recovered.baseline_accuracy.get_or_insert(accuracy);
                    Ok(())
                }
                Record::Cell(result) => match seen.get_mut(result.index) {
                    Some(slot) => {
                        if !std::mem::replace(slot, true) {
                            recovered.results.push(result);
                        }
                        Ok(())
                    }
                    None => Err(format!(
                        "record {number} indexes cell {} of a {n_cells}-cell grid",
                        result.index
                    )),
                },
            })
        })
        .map_err(|e| match e {
            OpenError::Io(e) => DistError::from(e),
            OpenError::Empty => journal_error(path, "journal is empty"),
            OpenError::Header(found) => journal_error(
                path,
                format!(
                    "journal belongs to a different campaign \
                     (header `{found}`, expected `{header}`); \
                     remove it or point --journal elsewhere"
                ),
            ),
            OpenError::Corrupt(line) => {
                journal_error(path, format!("corrupt record at line {line}"))
            }
            OpenError::Record(message) => journal_error(path, message),
        })?;
        Ok((Journal { log }, recovered))
    }

    /// The journal's on-disk location.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Records the campaign's mean baseline accuracy (call once, before
    /// the first cell).
    ///
    /// # Errors
    /// Propagates i/o failures.
    pub fn record_baseline(&mut self, accuracy: f64) -> Result<(), DistError> {
        Ok(self
            .log
            .append(format_args!("baseline {}", hex_bits(accuracy)))?)
    }

    /// Appends one completed cell and flushes it to the OS.
    ///
    /// # Errors
    /// Propagates i/o failures.
    pub fn record_cell(&mut self, result: &CellResult) -> Result<(), DistError> {
        let cell = &result.cell;
        Ok(self.log.append(format_args!(
            "cell {} {} {} {} {}",
            result.index,
            hex_bits(cell.rel_change),
            hex_bits(cell.fraction),
            hex_bits(cell.accuracy),
            hex_bits(cell.relative_change_percent),
        ))?)
    }
}

enum Record {
    Baseline(f64),
    Cell(CellResult),
}

fn parse_record(line: &str) -> Option<Record> {
    let mut tokens = line.split_ascii_whitespace();
    match tokens.next()? {
        "baseline" => {
            let accuracy = parse_bits(tokens.next()?)?;
            tokens
                .next()
                .is_none()
                .then_some(Record::Baseline(accuracy))
        }
        "cell" => {
            let index: usize = tokens.next()?.parse().ok()?;
            let rel_change = parse_bits(tokens.next()?)?;
            let fraction = parse_bits(tokens.next()?)?;
            let accuracy = parse_bits(tokens.next()?)?;
            let relative_change_percent = parse_bits(tokens.next()?)?;
            tokens.next().is_none().then_some(Record::Cell(CellResult {
                index,
                cell: SweepCell {
                    rel_change,
                    fraction,
                    accuracy,
                    relative_change_percent,
                },
            }))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "neurofi-dist-journal-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.log")
    }

    fn cell(index: usize, accuracy: f64) -> CellResult {
        CellResult {
            index,
            cell: SweepCell {
                rel_change: -0.2,
                fraction: 0.5,
                accuracy,
                relative_change_percent: accuracy * -10.0,
            },
        }
    }

    #[test]
    fn journal_round_trips_bit_exactly() {
        let path = temp_path("roundtrip");
        let (mut journal, recovered) = Journal::open(&path, 0xabcd, 4).unwrap();
        assert!(recovered.results.is_empty());
        journal.record_baseline(0.5625).unwrap();
        let a = cell(2, 0.1f64.next_up()); // deliberately awkward bits
        let b = cell(0, f64::from_bits(0x3fe0_0000_0000_0001));
        journal.record_cell(&a).unwrap();
        journal.record_cell(&b).unwrap();
        drop(journal);

        let (_journal, recovered) = Journal::open(&path, 0xabcd, 4).unwrap();
        assert_eq!(
            recovered.baseline_accuracy.unwrap().to_bits(),
            0.5625f64.to_bits()
        );
        assert_eq!(recovered.results.len(), 2);
        assert_eq!(recovered.results[0].index, 2);
        assert_eq!(
            recovered.results[0].cell.accuracy.to_bits(),
            a.cell.accuracy.to_bits()
        );
        assert_eq!(
            recovered.results[1].cell.accuracy.to_bits(),
            b.cell.accuracy.to_bits()
        );
    }

    #[test]
    fn foreign_journal_is_refused() {
        let path = temp_path("foreign");
        drop(Journal::open(&path, 1, 4).unwrap());
        assert!(Journal::open(&path, 2, 4).is_err());
        assert!(Journal::open(&path, 1, 5).is_err());
        // Same identity still resumes.
        assert!(Journal::open(&path, 1, 4).is_ok());
    }

    #[test]
    fn torn_trailing_record_is_dropped() {
        let path = temp_path("torn");
        let (mut journal, _) = Journal::open(&path, 7, 4).unwrap();
        journal.record_cell(&cell(1, 0.25)).unwrap();
        drop(journal);
        // Simulate a crash mid-append.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        write!(file, "cell 2 3fd0000000").unwrap();
        drop(file);

        let (mut journal, recovered) = Journal::open(&path, 7, 4).unwrap();
        assert_eq!(recovered.results.len(), 1);
        assert_eq!(recovered.results[0].index, 1);
        // Recovery truncated the torn bytes, so post-recovery appends land
        // on a clean line boundary and survive the next replay.
        journal.record_cell(&cell(3, 0.75)).unwrap();
        drop(journal);
        let (_j, recovered) = Journal::open(&path, 7, 4).unwrap();
        assert_eq!(recovered.results.len(), 2);
        assert_eq!(recovered.results[1].index, 3);
    }

    #[test]
    fn duplicate_cells_are_deduplicated_on_replay() {
        let path = temp_path("dup");
        let (mut journal, _) = Journal::open(&path, 9, 4).unwrap();
        journal.record_cell(&cell(1, 0.25)).unwrap();
        journal.record_cell(&cell(1, 0.25)).unwrap();
        drop(journal);
        let (_j, recovered) = Journal::open(&path, 9, 4).unwrap();
        assert_eq!(recovered.results.len(), 1);
    }

    #[test]
    fn out_of_range_record_is_an_error() {
        let path = temp_path("range");
        let (mut journal, _) = Journal::open(&path, 3, 4).unwrap();
        journal.record_cell(&cell(9, 0.25)).unwrap();
        // Append a valid trailing record so the bad one is not "torn".
        journal.record_cell(&cell(1, 0.25)).unwrap();
        drop(journal);
        assert!(Journal::open(&path, 3, 4).is_err());
    }
}
