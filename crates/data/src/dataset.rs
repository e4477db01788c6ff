//! Common labelled-image container shared by synthetic and IDX sources.

/// A set of same-sized grayscale images with class labels.
///
/// Pixels are stored row-major, one byte per pixel (0 = background,
/// 255 = full ink), images concatenated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledImages {
    width: usize,
    height: usize,
    pixels: Vec<u8>,
    labels: Vec<u8>,
}

impl LabeledImages {
    /// Builds a container from raw parts.
    ///
    /// # Panics
    /// Panics if `pixels.len() != labels.len() * width * height`, if a
    /// label is ≥ 10, or if `width`/`height` is zero.
    pub fn new(width: usize, height: usize, pixels: Vec<u8>, labels: Vec<u8>) -> LabeledImages {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        assert_eq!(
            pixels.len(),
            labels.len() * width * height,
            "pixel buffer does not match image count"
        );
        assert!(
            labels.iter().all(|&l| l < 10),
            "labels must be digit classes 0-9"
        );
        LabeledImages {
            width,
            height,
            pixels,
            labels,
        }
    }

    /// Creates an empty container with the given image dimensions.
    pub fn empty(width: usize, height: usize) -> LabeledImages {
        LabeledImages::new(width, height, Vec::new(), Vec::new())
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of images.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the container holds no images.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Pixels of image `index`, row-major.
    ///
    /// # Panics
    /// Panics if `index` is out of bounds.
    pub fn image(&self, index: usize) -> &[u8] {
        let stride = self.width * self.height;
        &self.pixels[index * stride..(index + 1) * stride]
    }

    /// Label of image `index`.
    ///
    /// # Panics
    /// Panics if `index` is out of bounds.
    pub fn label(&self, index: usize) -> u8 {
        self.labels[index]
    }

    /// All labels in order.
    pub fn labels(&self) -> &[u8] {
        &self.labels
    }

    /// Iterator over `(pixels, label)` pairs.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            data: self,
            index: 0,
        }
    }

    /// Appends an image.
    ///
    /// # Panics
    /// Panics if the pixel count does not match the container dimensions
    /// or `label >= 10`.
    pub fn push(&mut self, pixels: &[u8], label: u8) {
        assert_eq!(
            pixels.len(),
            self.width * self.height,
            "pixel count mismatch"
        );
        assert!(label < 10, "labels must be digit classes 0-9");
        self.pixels.extend_from_slice(pixels);
        self.labels.push(label);
    }

    /// Splits into `(first_n, rest)`.
    ///
    /// # Panics
    /// Panics if `n > len()`.
    pub fn split(&self, n: usize) -> (LabeledImages, LabeledImages) {
        assert!(n <= self.len(), "split point beyond dataset");
        let stride = self.width * self.height;
        let first = LabeledImages::new(
            self.width,
            self.height,
            self.pixels[..n * stride].to_vec(),
            self.labels[..n].to_vec(),
        );
        let rest = LabeledImages::new(
            self.width,
            self.height,
            self.pixels[n * stride..].to_vec(),
            self.labels[n..].to_vec(),
        );
        (first, rest)
    }

    /// Returns a new container with only the first `n` images.
    ///
    /// # Panics
    /// Panics if `n > len()`.
    pub fn take(&self, n: usize) -> LabeledImages {
        self.split(n).0
    }

    /// Number of images per class (index = digit).
    pub fn class_counts(&self) -> [usize; 10] {
        let mut counts = [0usize; 10];
        for &l in &self.labels {
            counts[l as usize] += 1;
        }
        counts
    }
}

/// Iterator returned by [`LabeledImages::iter`].
#[derive(Debug)]
pub struct Iter<'a> {
    data: &'a LabeledImages,
    index: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a [u8], u8);

    fn next(&mut self) -> Option<Self::Item> {
        if self.index >= self.data.len() {
            return None;
        }
        let item = (self.data.image(self.index), self.data.label(self.index));
        self.index += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.data.len() - self.index;
        (rest, Some(rest))
    }
}

impl<'a> ExactSizeIterator for Iter<'a> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LabeledImages {
        let mut d = LabeledImages::empty(2, 2);
        d.push(&[0, 1, 2, 3], 7);
        d.push(&[4, 5, 6, 7], 3);
        d.push(&[8, 9, 10, 11], 7);
        d
    }

    #[test]
    fn accessors() {
        let d = tiny();
        assert_eq!(d.len(), 3);
        assert_eq!(d.image(1), &[4, 5, 6, 7]);
        assert_eq!(d.label(1), 3);
        assert_eq!(d.width(), 2);
        assert_eq!(d.height(), 2);
    }

    #[test]
    fn iterator_yields_all() {
        let d = tiny();
        let collected: Vec<u8> = d.iter().map(|(_, l)| l).collect();
        assert_eq!(collected, vec![7, 3, 7]);
        assert_eq!(d.iter().len(), 3);
    }

    #[test]
    fn split_preserves_content() {
        let d = tiny();
        let (a, b) = d.split(2);
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 1);
        assert_eq!(b.image(0), &[8, 9, 10, 11]);
        assert_eq!(b.label(0), 7);
    }

    #[test]
    fn class_counts() {
        let counts = tiny().class_counts();
        assert_eq!(counts[7], 2);
        assert_eq!(counts[3], 1);
        assert_eq!(counts[0], 0);
    }

    #[test]
    #[should_panic(expected = "pixel buffer")]
    fn mismatched_buffer_rejected() {
        LabeledImages::new(2, 2, vec![0; 7], vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "digit classes")]
    fn bad_label_rejected() {
        LabeledImages::new(1, 1, vec![0], vec![10]);
    }
}
