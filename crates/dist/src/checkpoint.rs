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
//! * Appends are flushed per record, and a torn trailing line (from a
//!   crash mid-write) is dropped on load rather than poisoning the
//!   journal.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use neurofi_core::sweep::{CellResult, SweepCell};

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
    path: PathBuf,
    writer: BufWriter<File>,
}

fn hex_bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_bits(token: &str) -> Option<f64> {
    if token.len() != 16 {
        return None;
    }
    u64::from_str_radix(token, 16).ok().map(f64::from_bits)
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
        let recovered = if path.exists() {
            Journal::replay(path, digest, n_cells)?
        } else {
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::create_dir_all(parent)?;
            }
            let mut file = File::create(path)?;
            writeln!(file, "{MAGIC} digest={digest:016x} cells={n_cells}")?;
            file.sync_all()?;
            Recovered::default()
        };
        let writer = BufWriter::new(OpenOptions::new().append(true).open(path)?);
        Ok((
            Journal {
                path: path.to_path_buf(),
                writer,
            },
            recovered,
        ))
    }

    fn replay(path: &Path, digest: u64, n_cells: usize) -> Result<Recovered, DistError> {
        let text = std::fs::read_to_string(path)?;
        let mut segments = text.split_inclusive('\n');
        let header = segments
            .next()
            .ok_or_else(|| journal_error(path, "journal is empty"))?;
        let expected = format!("{MAGIC} digest={digest:016x} cells={n_cells}\n");
        if header != expected {
            return Err(journal_error(
                path,
                format!(
                    "journal belongs to a different campaign \
                     (header `{}`, expected `{}`); \
                     remove it or point --journal elsewhere",
                    header.trim_end(),
                    expected.trim_end()
                ),
            ));
        }
        let mut recovered = Recovered::default();
        let mut seen = vec![false; n_cells];
        // Every durable record was flushed whole with its newline; a crash
        // mid-append can only tear the final line. Track the length of the
        // valid prefix and truncate anything after it, so post-recovery
        // appends land on a clean boundary instead of merging with torn
        // bytes.
        let mut valid_len = header.len();
        for (lineno, segment) in segments.enumerate() {
            let complete = segment.ends_with('\n');
            match parse_record(segment.trim_end_matches('\n')) {
                Some(record) if complete => {
                    match record {
                        Record::Baseline(accuracy) => {
                            recovered.baseline_accuracy.get_or_insert(accuracy);
                        }
                        Record::Cell(result) => {
                            if result.index >= n_cells {
                                return Err(journal_error(
                                    path,
                                    format!(
                                        "record {} indexes cell {} of a {n_cells}-cell grid",
                                        lineno + 2,
                                        result.index
                                    ),
                                ));
                            }
                            if !seen[result.index] {
                                seen[result.index] = true;
                                recovered.results.push(result);
                            }
                        }
                    }
                    valid_len += segment.len();
                }
                // An unfinished or unparseable trailing line is a torn
                // append: drop it.
                _ if valid_len + segment.len() == text.len() => break,
                _ => {
                    return Err(journal_error(
                        path,
                        format!("corrupt record at line {}", lineno + 2),
                    ));
                }
            }
        }
        if valid_len < text.len() {
            OpenOptions::new()
                .write(true)
                .open(path)?
                .set_len(valid_len as u64)?;
        }
        Ok(recovered)
    }

    /// The journal's on-disk location.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records the campaign's mean baseline accuracy (call once, before
    /// the first cell).
    ///
    /// # Errors
    /// Propagates i/o failures.
    pub fn record_baseline(&mut self, accuracy: f64) -> Result<(), DistError> {
        writeln!(self.writer, "baseline {}", hex_bits(accuracy))?;
        self.writer.flush()?;
        Ok(())
    }

    /// Appends one completed cell and flushes it to disk.
    ///
    /// # Errors
    /// Propagates i/o failures.
    pub fn record_cell(&mut self, result: &CellResult) -> Result<(), DistError> {
        writeln!(
            self.writer,
            "cell {} {} {} {} {}",
            result.index,
            hex_bits(result.cell.rel_change),
            hex_bits(result.cell.fraction),
            hex_bits(result.cell.accuracy),
            hex_bits(result.cell.relative_change_percent),
        )?;
        self.writer.flush()?;
        Ok(())
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
