//! The crash-safe append-only text log under both the result store and
//! `neurofi-dist`'s checkpoint journal. An owner supplies a header line
//! and a record schema (parse, format, meaning); this module owns the
//! file and the crash policy. Floats travel as 16-digit hex IEEE-754 bit
//! patterns ([`hex_bits`]), so a replayed value is bit-identical to the
//! one appended.
//!
//! * [`Log::open`] creates a missing log, parent directories included,
//!   with its header and `sync_all`s it, or replays an existing one: the
//!   header must match, and the longest prefix of complete records the
//!   owner accepts is kept. An unfinished or unparseable final line is a
//!   torn append and is truncated away, so later appends start on a
//!   clean line; a bad line before it is corruption and fails loudly.
//! * [`Log::append`] writes one whole line and flushes it to the OS.
//! * [`Log::rewrite`] (compaction) writes a temp file, `sync_all`s it
//!   and renames it over the log, so a crash mid-rewrite leaves the old
//!   log intact.
//!
//! **What the syscalls guarantee.** Every append is written and flushed
//! to the OS before it returns, so it survives the death of the process
//! (`kill -9`, a panic). Appends are not `fsync`ed: only creation and
//! compaction call `sync_all`, on the file and never on its directory.
//! A power loss or kernel crash can therefore drop records that were
//! already appended and acknowledged, and even a just-created log or a
//! just-finished compaction; replay then recovers a shorter prefix, and
//! the lost cells are computed again.

use std::fmt::Display;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Why [`Log::open`] refused an existing file. Each owner words these
/// in its own terms.
#[derive(Debug)]
pub enum OpenError<E> {
    /// A file operation failed.
    Io(io::Error),
    /// The file is empty: not even a header line.
    Empty,
    /// The first line is not the expected header; carries that line.
    Header(String),
    /// A record before the final line does not parse (1-based line).
    Corrupt(usize),
    /// The owner refused a record that parsed.
    Record(E),
}

impl<E> From<io::Error> for OpenError<E> {
    fn from(e: io::Error) -> OpenError<E> {
        OpenError::Io(e)
    }
}

/// An open append-only log file.
#[derive(Debug)]
pub struct Log {
    path: PathBuf,
    header: String,
    writer: BufWriter<File>,
}

impl Log {
    /// Opens the log at `path` whose first line is `header`, creating it
    /// when absent. An existing log is replayed first: `record` gets
    /// each complete line after the header with its 1-based line number
    /// and returns `None` when the line does not parse, or else its
    /// verdict on the parsed record.
    ///
    /// # Errors
    /// Fails on i/o errors, a missing or different header, an
    /// unparseable line before the final one, or the first record
    /// `record` refuses.
    pub fn open<E>(
        path: &Path,
        header: &str,
        mut record: impl FnMut(usize, &str) -> Option<Result<(), E>>,
    ) -> Result<Log, OpenError<E>> {
        if path.exists() {
            let text = std::fs::read_to_string(path)?;
            let mut lines = text.split_inclusive('\n');
            let first = lines.next().ok_or(OpenError::Empty)?;
            if first.strip_suffix('\n') != Some(header) {
                return Err(OpenError::Header(first.trim_end().to_string()));
            }
            // Every append wrote a whole line with its newline, so a
            // crash can only tear the final line.
            let mut valid_len = first.len();
            for (i, line) in lines.enumerate() {
                let number = i + 2;
                match line.strip_suffix('\n').and_then(|l| record(number, l)) {
                    Some(verdict) => {
                        verdict.map_err(OpenError::Record)?;
                        valid_len += line.len();
                    }
                    None if valid_len + line.len() == text.len() => break,
                    None => return Err(OpenError::Corrupt(number)),
                }
            }
            if valid_len < text.len() {
                OpenOptions::new()
                    .write(true)
                    .open(path)?
                    .set_len(valid_len as u64)?;
            }
        } else {
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::create_dir_all(parent)?;
            }
            let mut file = File::create(path)?;
            writeln!(file, "{header}")?;
            file.sync_all()?;
        }
        Ok(Log {
            path: path.to_path_buf(),
            header: header.to_string(),
            writer: appender(path)?,
        })
    }

    /// The log's on-disk location.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends `record` as one line and flushes it to the OS.
    ///
    /// # Errors
    /// Propagates i/o failures.
    pub fn append(&mut self, record: impl Display) -> io::Result<()> {
        writeln!(self.writer, "{record}")?;
        self.writer.flush()
    }

    /// Replaces the log with its header and `records`, atomically: a
    /// temp file beside the log is written, `sync_all`ed and renamed
    /// over it. Later appends go to the new file.
    ///
    /// # Errors
    /// Propagates i/o failures; the old log is then still in place.
    pub fn rewrite<R: Display>(&mut self, records: impl IntoIterator<Item = R>) -> io::Result<()> {
        let tmp = self.path.with_extension("compact-tmp");
        let mut file = BufWriter::new(File::create(&tmp)?);
        writeln!(file, "{}", self.header)?;
        for record in records {
            writeln!(file, "{record}")?;
        }
        file.into_inner()?.sync_all()?;
        std::fs::rename(&tmp, &self.path)?;
        self.writer = appender(&self.path)?;
        Ok(())
    }
}

fn appender(path: &Path) -> io::Result<BufWriter<File>> {
    Ok(BufWriter::new(OpenOptions::new().append(true).open(path)?))
}

/// `v` as its 16-digit hex IEEE-754 bit pattern.
pub fn hex_bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// The float a [`hex_bits`] token encodes, bit for bit.
pub fn parse_bits(token: &str) -> Option<f64> {
    parse_key(token).map(f64::from_bits)
}

/// A 64-bit key written as 16 hex digits (`{key:016x}`).
pub fn parse_key(token: &str) -> Option<u64> {
    if token.len() != 16 {
        return None;
    }
    u64::from_str_radix(token, 16).ok()
}
