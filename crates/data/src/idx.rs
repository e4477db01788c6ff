//! IDX (MNIST ubyte) file format parser.
//!
//! The format is four big-endian header fields followed by raw data:
//! magic `0x00000803` for 3-D image tensors, `0x00000801` for 1-D label
//! vectors. If you have the real MNIST files, [`load_mnist_dir`] returns
//! them as train and test [`LabeledImages`], the container the synthetic
//! generator fills, to pass to `neurofi_snn::trainer::{train, evaluate}`.
//! The experiments, sweeps and benchmark use the synthetic generator.

use std::fmt;
use std::fs;
use std::io::Read;
use std::path::Path;

use crate::dataset::LabeledImages;

/// Errors from IDX parsing.
#[derive(Debug)]
pub enum IdxError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not valid IDX data.
    Format(String),
}

impl fmt::Display for IdxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdxError::Io(e) => write!(f, "idx i/o error: {e}"),
            IdxError::Format(msg) => write!(f, "invalid idx data: {msg}"),
        }
    }
}

impl std::error::Error for IdxError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IdxError::Io(e) => Some(e),
            IdxError::Format(_) => None,
        }
    }
}

impl From<std::io::Error> for IdxError {
    fn from(e: std::io::Error) -> IdxError {
        IdxError::Io(e)
    }
}

fn read_u32(bytes: &[u8], offset: usize) -> Result<u32, IdxError> {
    bytes
        .get(offset..offset + 4)
        .map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
        .ok_or_else(|| IdxError::Format("truncated header".into()))
}

/// Parses an IDX3 image tensor from raw bytes.
///
/// Returns `(width, height, pixels)` with images concatenated row-major.
///
/// # Errors
/// [`IdxError::Format`] on bad magic, truncation or size mismatch.
pub fn parse_images(bytes: &[u8]) -> Result<(usize, usize, Vec<u8>), IdxError> {
    let magic = read_u32(bytes, 0)?;
    if magic != 0x0000_0803 {
        return Err(IdxError::Format(format!(
            "bad image magic 0x{magic:08x} (want 0x00000803)"
        )));
    }
    let count = read_u32(bytes, 4)? as usize;
    let height = read_u32(bytes, 8)? as usize;
    let width = read_u32(bytes, 12)? as usize;
    let expected = count
        .checked_mul(width)
        .and_then(|v| v.checked_mul(height))
        .ok_or_else(|| IdxError::Format("image tensor too large".into()))?;
    let data = &bytes[16.min(bytes.len())..];
    if data.len() != expected {
        return Err(IdxError::Format(format!(
            "expected {expected} pixels, found {}",
            data.len()
        )));
    }
    Ok((width, height, data.to_vec()))
}

/// Parses an IDX1 label vector from raw bytes.
///
/// # Errors
/// [`IdxError::Format`] on bad magic, truncation or size mismatch.
pub fn parse_labels(bytes: &[u8]) -> Result<Vec<u8>, IdxError> {
    let magic = read_u32(bytes, 0)?;
    if magic != 0x0000_0801 {
        return Err(IdxError::Format(format!(
            "bad label magic 0x{magic:08x} (want 0x00000801)"
        )));
    }
    let count = read_u32(bytes, 4)? as usize;
    let data = &bytes[8.min(bytes.len())..];
    if data.len() != count {
        return Err(IdxError::Format(format!(
            "expected {count} labels, found {}",
            data.len()
        )));
    }
    if let Some(bad) = data.iter().find(|&&l| l > 9) {
        return Err(IdxError::Format(format!("label {bad} out of range 0-9")));
    }
    Ok(data.to_vec())
}

fn read_file(path: &Path) -> Result<Vec<u8>, IdxError> {
    let mut buffer = Vec::new();
    fs::File::open(path)?.read_to_end(&mut buffer)?;
    Ok(buffer)
}

/// Loads an images/labels file pair into a [`LabeledImages`] container.
///
/// # Errors
/// I/O and format errors from either file, or a count mismatch between
/// the two.
pub fn load_pair(images_path: &Path, labels_path: &Path) -> Result<LabeledImages, IdxError> {
    let (width, height, pixels) = parse_images(&read_file(images_path)?)?;
    let labels = parse_labels(&read_file(labels_path)?)?;
    if pixels.len() != labels.len() * width * height {
        return Err(IdxError::Format(format!(
            "{} images but {} labels",
            pixels.len() / (width * height).max(1),
            labels.len()
        )));
    }
    Ok(LabeledImages::new(width, height, pixels, labels))
}

/// Loads the standard MNIST train/test pairs from a directory containing
/// `train-images-idx3-ubyte`, `train-labels-idx1-ubyte`,
/// `t10k-images-idx3-ubyte`, `t10k-labels-idx1-ubyte`.
///
/// Returns `None` when the directory or any file is missing, so a caller
/// can fall back to [`crate::synth::SynthDigits`].
///
/// # Errors
/// Propagates format errors when the files exist but are corrupt.
pub fn load_mnist_dir(dir: &Path) -> Result<Option<(LabeledImages, LabeledImages)>, IdxError> {
    let files = [
        dir.join("train-images-idx3-ubyte"),
        dir.join("train-labels-idx1-ubyte"),
        dir.join("t10k-images-idx3-ubyte"),
        dir.join("t10k-labels-idx1-ubyte"),
    ];
    if !files.iter().all(|f| f.exists()) {
        return Ok(None);
    }
    let train = load_pair(&files[0], &files[1])?;
    let test = load_pair(&files[2], &files[3])?;
    Ok(Some((train, test)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image_bytes(count: u32, h: u32, w: u32, pixels: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&0x0000_0803u32.to_be_bytes());
        bytes.extend_from_slice(&count.to_be_bytes());
        bytes.extend_from_slice(&h.to_be_bytes());
        bytes.extend_from_slice(&w.to_be_bytes());
        bytes.extend_from_slice(pixels);
        bytes
    }

    fn label_bytes(labels: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&0x0000_0801u32.to_be_bytes());
        bytes.extend_from_slice(&(labels.len() as u32).to_be_bytes());
        bytes.extend_from_slice(labels);
        bytes
    }

    #[test]
    fn parses_round_trip() {
        let pixels: Vec<u8> = (0..2 * 2 * 3).map(|i| i as u8).collect();
        let (w, h, parsed) = parse_images(&image_bytes(3, 2, 2, &pixels)).unwrap();
        assert_eq!((w, h), (2, 2));
        assert_eq!(parsed, pixels);
        let labels = parse_labels(&label_bytes(&[1, 2, 3])).unwrap();
        assert_eq!(labels, vec![1, 2, 3]);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = image_bytes(1, 1, 1, &[0]);
        bytes[3] = 0x99;
        assert!(matches!(parse_images(&bytes), Err(IdxError::Format(_))));
        let mut bytes = label_bytes(&[1]);
        bytes[3] = 0x99;
        assert!(matches!(parse_labels(&bytes), Err(IdxError::Format(_))));
    }

    #[test]
    fn rejects_truncation() {
        let bytes = image_bytes(2, 2, 2, &[0; 7]); // want 8 pixels
        assert!(matches!(parse_images(&bytes), Err(IdxError::Format(_))));
        assert!(matches!(parse_images(&[0, 0]), Err(IdxError::Format(_))));
    }

    #[test]
    fn rejects_out_of_range_labels() {
        assert!(matches!(
            parse_labels(&label_bytes(&[3, 11])),
            Err(IdxError::Format(_))
        ));
    }

    #[test]
    fn load_pair_checks_count_consistency() {
        let dir = std::env::temp_dir().join(format!("neurofi-idx-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let img_path = dir.join("imgs");
        let lbl_path = dir.join("lbls");
        std::fs::write(&img_path, image_bytes(2, 2, 2, &[0; 8])).unwrap();
        std::fs::write(&lbl_path, label_bytes(&[1, 2, 3])).unwrap();
        assert!(load_pair(&img_path, &lbl_path).is_err());
        std::fs::write(&lbl_path, label_bytes(&[1, 2])).unwrap();
        let data = load_pair(&img_path, &lbl_path).unwrap();
        assert_eq!(data.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_mnist_dir_is_none() {
        let missing = Path::new("/definitely/not/a/real/dir");
        assert!(load_mnist_dir(missing).unwrap().is_none());
    }
}
