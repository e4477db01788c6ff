//! Spike encoders: pixel intensities → spike trains.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The most input channels a [`SpikeRaster`] can address: its spike
/// indices are `u16`s.
const MAX_RASTER_INPUTS: usize = 1 << 16;

/// The Poisson stream seed of presentation `sample` of the network
/// seeded `seed`.
fn presentation_seed(seed: u64, sample: u64) -> u64 {
    seed ^ sample.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Poisson rate encoder, matching BindsNET's `PoissonEncoder` semantics:
/// a pixel of value 255 fires at `max_rate_hz`; each simulation step emits
/// a Bernoulli spike with probability `rate · dt`.
///
/// ```
/// use neurofi_snn::PoissonEncoder;
/// let mut enc = PoissonEncoder::new(128.0, 1.0, 7);
/// let image = vec![255u8; 100];
/// let mut spikes = vec![0.0f32; image.len()];
/// enc.encode_step_into(&image, &mut spikes);
/// let fired = spikes.iter().filter(|&&s| s > 0.0).count();
/// assert!(fired > 0); // 12.8% per-step probability over 100 pixels
/// ```
#[derive(Debug, Clone)]
pub struct PoissonEncoder {
    /// Firing rate of a fully-bright pixel, hertz.
    pub max_rate_hz: f64,
    /// Simulation step, milliseconds.
    pub dt_ms: f64,
    rng: StdRng,
}

impl PoissonEncoder {
    /// Creates an encoder with the given peak rate and time step.
    ///
    /// # Panics
    /// Panics if `max_rate_hz` is negative, or if the per-step spike
    /// probability `max_rate_hz · dt` exceeds 1.
    pub fn new(max_rate_hz: f64, dt_ms: f64, seed: u64) -> PoissonEncoder {
        assert!(max_rate_hz >= 0.0, "rate must be non-negative");
        assert!(dt_ms > 0.0, "dt must be positive");
        assert!(
            max_rate_hz * dt_ms / 1000.0 <= 1.0,
            "per-step spike probability exceeds 1 (rate {max_rate_hz} Hz at dt {dt_ms} ms)"
        );
        PoissonEncoder {
            max_rate_hz,
            dt_ms,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Re-seeds the encoder (used to make every sample reproducible).
    fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// Writes one time step of spikes (1.0 = spike) for `image` into
    /// `out`.
    ///
    /// # Panics
    /// Panics if `out.len() != image.len()`.
    pub fn encode_step_into(&mut self, image: &[u8], out: &mut [f32]) {
        assert_eq!(out.len(), image.len(), "buffer length mismatch");
        let scale = self.pixel_scale();
        for (o, &pixel) in out.iter_mut().zip(image) {
            let p = pixel as f64 * scale;
            *o = if pixel > 0 && self.rng.gen::<f64>() < p {
                1.0
            } else {
                0.0
            };
        }
    }

    /// Draws the input raster of presentation `sample` of the network
    /// seeded `seed`: `steps` steps of spikes for `image`. The encoder
    /// restarts its stream at the presentation's seed, then makes
    /// exactly the draws of `steps` calls to
    /// [`encode_step_into`](PoissonEncoder::encode_step_into); zero
    /// pixels draw nothing.
    ///
    /// # Panics
    /// Panics if `image` has more than 65,536 pixels (a raster stores
    /// `u16` indices), or if the raster would hold 2³² spikes or more.
    pub fn raster(&mut self, image: &[u8], seed: u64, sample: u64, steps: usize) -> SpikeRaster {
        assert!(
            image.len() <= MAX_RASTER_INPUTS,
            "a raster addresses at most {MAX_RASTER_INPUTS} inputs with u16 indices, \
             not {}",
            image.len()
        );
        self.reseed(presentation_seed(seed, sample));
        let scale = self.pixel_scale();
        let lit: Vec<(u16, f64)> = image
            .iter()
            .enumerate()
            .filter(|&(_, &pixel)| pixel > 0)
            .map(|(i, &pixel)| (i as u16, pixel as f64 * scale))
            .collect();
        let mut indices = Vec::new();
        let mut offsets = Vec::with_capacity(steps + 1);
        offsets.push(0u32);
        for _ in 0..steps {
            for &(i, p) in &lit {
                if self.rng.gen::<f64>() < p {
                    indices.push(i);
                }
            }
            offsets
                .push(u32::try_from(indices.len()).expect("a raster holds fewer than 2^32 spikes"));
        }
        SpikeRaster {
            seed,
            sample,
            n_input: image.len(),
            offsets: offsets.into_boxed_slice(),
            indices: indices.into_boxed_slice(),
        }
    }

    /// An upper bound on the bytes the [`raster`](PoissonEncoder::raster)s
    /// of `images` over `steps` steps occupy together, computed without
    /// drawing them: each raster's tags and step offsets, plus 2 bytes
    /// for each expected spike and for eight standard deviations more.
    /// The spike count is a sum of independent Bernoulli draws (the
    /// pixels' firing probabilities over the steps), so its variance is
    /// below its mean; by Bernstein's inequality it exceeds the bound
    /// with probability below 10⁻¹⁰ once the rasters expect 100 spikes.
    pub fn rasters_bytes_bound<'a>(
        &self,
        images: impl IntoIterator<Item = &'a [u8]>,
        steps: usize,
    ) -> usize {
        let (mut rasters, mut pixel_sum) = (0usize, 0.0f64);
        for image in images {
            rasters += 1;
            pixel_sum += image.iter().map(|&pixel| f64::from(pixel)).sum::<f64>();
        }
        let spikes = steps as f64 * pixel_sum * self.pixel_scale();
        let spikes = (spikes + 8.0 * spikes.sqrt()).ceil() as usize;
        rasters * (std::mem::size_of::<SpikeRaster>() + 4 * (steps + 1)) + 2 * spikes
    }

    /// Per-step spike probability of a pixel of value 1.
    fn pixel_scale(&self) -> f64 {
        self.max_rate_hz * self.dt_ms / 1000.0 / 255.0
    }
}

/// One presentation's input spikes, drawn once and replayable: for each
/// simulation step, the ascending indices of the inputs that fire,
/// stored as `u16`s.
///
/// A raster is tagged with the network seed, the sample counter and
/// the step count it was drawn for (the step count is its length), and
/// [`DiehlCook2015::present`](crate::DiehlCook2015::present) refuses
/// one whose tags do not match the network. Build one with
/// [`PoissonEncoder::raster`].
#[derive(Clone, PartialEq, Eq)]
pub struct SpikeRaster {
    seed: u64,
    sample: u64,
    n_input: usize,
    /// Step `t`'s spikes are `indices[offsets[t]..offsets[t + 1]]`.
    offsets: Box<[u32]>,
    indices: Box<[u16]>,
}

impl SpikeRaster {
    /// The network seed the raster was drawn for.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The sample counter of the presentation it was drawn for.
    pub fn sample(&self) -> u64 {
        self.sample
    }

    /// The number of simulation steps it covers.
    pub fn steps(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The number of input channels (pixels of the encoded image).
    pub fn n_input(&self) -> usize {
        self.n_input
    }

    /// The inputs that fire at step `t`, ascending.
    ///
    /// # Panics
    /// Panics if `t >= steps()`.
    pub fn step(&self, t: usize) -> &[u16] {
        &self.indices[self.offsets[t] as usize..self.offsets[t + 1] as usize]
    }

    /// Bytes the raster occupies: its step offsets and tags plus 2 bytes
    /// per spike.
    pub fn bytes(&self) -> usize {
        std::mem::size_of::<SpikeRaster>()
            + std::mem::size_of_val(&*self.offsets)
            + std::mem::size_of_val(&*self.indices)
    }
}

impl fmt::Debug for SpikeRaster {
    /// Tags and totals only: a raster holds thousands of indices.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpikeRaster")
            .field("seed", &self.seed)
            .field("sample", &self.sample)
            .field("steps", &self.steps())
            .field("n_input", &self.n_input)
            .field("spikes", &self.indices.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empirical_rate_matches_pixel_value() {
        let mut enc = PoissonEncoder::new(128.0, 1.0, 3);
        let image = vec![255u8, 128, 0];
        let steps = 20_000;
        let mut counts = [0usize; 3];
        let mut buffer = vec![0.0f32; 3];
        for _ in 0..steps {
            enc.encode_step_into(&image, &mut buffer);
            for (c, &s) in counts.iter_mut().zip(&buffer) {
                if s > 0.0 {
                    *c += 1;
                }
            }
        }
        let rate = |c: usize| c as f64 / steps as f64 * 1000.0; // Hz at dt=1ms
        assert!((rate(counts[0]) - 128.0).abs() < 8.0, "{}", rate(counts[0]));
        assert!((rate(counts[1]) - 64.0).abs() < 6.0, "{}", rate(counts[1]));
        assert_eq!(counts[2], 0, "zero pixels must never spike");
    }

    /// One step of spikes for `image` in a fresh buffer.
    fn step(enc: &mut PoissonEncoder, image: &[u8]) -> Vec<f32> {
        let mut out = vec![0.0f32; image.len()];
        enc.encode_step_into(image, &mut out);
        out
    }

    #[test]
    fn deterministic_for_seed() {
        let image = vec![200u8; 50];
        let mut a = PoissonEncoder::new(100.0, 1.0, 5);
        let mut b = PoissonEncoder::new(100.0, 1.0, 5);
        for _ in 0..10 {
            assert_eq!(step(&mut a, &image), step(&mut b, &image));
        }
    }

    #[test]
    fn reseed_restarts_stream() {
        let image = vec![200u8; 50];
        let mut enc = PoissonEncoder::new(100.0, 1.0, 5);
        let first = step(&mut enc, &image);
        step(&mut enc, &image);
        enc.reseed(5);
        assert_eq!(step(&mut enc, &image), first);
    }

    #[test]
    #[should_panic(expected = "probability exceeds 1")]
    fn rejects_overdriven_rate() {
        PoissonEncoder::new(2000.0, 1.0, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A raster holds exactly the spikes of `steps` calls of
        /// `encode_step_into` from the presentation's seed, and leaves
        /// the stream where they leave it, on images with zero,
        /// saturated and mid-range pixels.
        #[test]
        fn raster_replays_encode_step_into(
            pixels in proptest::collection::vec(any::<u8>(), 1..80),
            steps in 0usize..40,
            rate in 0.0f64..=1000.0,
            seed in any::<u64>(),
            sample in any::<u64>(),
        ) {
            let image: Vec<u8> = pixels
                .iter()
                .enumerate()
                .map(|(i, &p)| match i % 3 {
                    0 => 0,
                    1 => 255,
                    _ => p,
                })
                .collect();
            let mut encoder = PoissonEncoder::new(rate, 1.0, seed);
            let raster = encoder.raster(&image, seed, sample, steps);
            prop_assert_eq!(
                (raster.seed(), raster.sample(), raster.steps(), raster.n_input()),
                (seed, sample, steps, image.len())
            );
            let mut reference = PoissonEncoder::new(rate, 1.0, presentation_seed(seed, sample));
            let mut frame = vec![0.0f32; image.len()];
            for t in 0..steps {
                reference.encode_step_into(&image, &mut frame);
                let fired: Vec<u16> = (0..image.len())
                    .filter(|&i| frame[i] > 0.0)
                    .map(|i| i as u16)
                    .collect();
                prop_assert_eq!(raster.step(t), &fired[..]);
            }
            prop_assert_eq!(encoder.rng.gen::<u64>(), reference.rng.gen::<u64>());
        }
    }

    #[test]
    fn raster_addresses_the_last_of_65536_inputs() {
        // 1000 Hz at 1 ms: a saturated pixel fires every step.
        let mut image = vec![0u8; 1 << 16];
        image[(1 << 16) - 1] = 255;
        let raster = PoissonEncoder::new(1000.0, 1.0, 0).raster(&image, 3, 4, 2);
        assert_eq!(raster.step(0), &[u16::MAX]);
        assert_eq!(raster.step(1), &[u16::MAX]);
    }

    #[test]
    #[should_panic(expected = "at most 65536 inputs")]
    fn raster_refuses_inputs_past_u16_indices() {
        PoissonEncoder::new(128.0, 1.0, 0).raster(&vec![0u8; (1 << 16) + 1], 0, 0, 1);
    }
}
