//! Time-dependent values for independent voltage and current sources.

/// A source waveform, evaluated lazily at each transient time point.
///
/// The two source shapes the paper's test benches need: constant bias
/// rails (`Dc`) and the spike trains driving the neurons (`Pulse`).
#[derive(Debug, Clone, PartialEq)]
pub enum Waveform {
    /// Constant value (volts or amperes).
    Dc(f64),
    /// Periodic trapezoidal pulse, identical to SPICE
    /// `PULSE(v1 v2 delay rise fall width period)`.
    Pulse {
        /// Initial / off value.
        v1: f64,
        /// Pulsed / on value.
        v2: f64,
        /// Time before the first pulse begins, in seconds.
        delay: f64,
        /// Rise time (0 is allowed and treated as one solver step).
        rise: f64,
        /// Fall time.
        fall: f64,
        /// Time spent at `v2`, excluding edges.
        width: f64,
        /// Repetition period; `f64::INFINITY` for a single pulse.
        period: f64,
    },
}

impl Waveform {
    /// Builds the spike train used throughout the paper: rectangular pulses
    /// of `amplitude` with 1 ns edges, `width` flat-top seconds, repeating
    /// every `period` seconds, starting at `delay`.
    ///
    /// ```
    /// use neurofi_spice::Waveform;
    /// use neurofi_spice::units::NANO;
    /// // 200 nA spikes, 25 ns wide, 40 MHz rate:
    /// let train = Waveform::spike_train(200.0 * NANO, 25.0 * NANO, 25.0 * NANO, 0.0);
    /// assert!(train.value(10.0 * NANO) > 0.0);
    /// ```
    pub fn spike_train(amplitude: f64, width: f64, period: f64, delay: f64) -> Waveform {
        let edge = (width * 0.05).clamp(1.0e-12, 1.0e-9);
        Waveform::Pulse {
            v1: 0.0,
            v2: amplitude,
            delay,
            rise: edge,
            fall: edge,
            width: (width - 2.0 * edge).max(edge),
            period,
        }
    }

    /// Evaluates the waveform at time `t` (seconds).
    pub fn value(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Pulse {
                v1,
                v2,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                if t < *delay {
                    return *v1;
                }
                let mut tau = t - delay;
                if period.is_finite() && *period > 0.0 {
                    tau %= period;
                }
                let rise = rise.max(1.0e-15);
                let fall = fall.max(1.0e-15);
                if tau < rise {
                    v1 + (v2 - v1) * (tau / rise)
                } else if tau < rise + width {
                    *v2
                } else if tau < rise + width + fall {
                    v2 + (v1 - v2) * ((tau - rise - width) / fall)
                } else {
                    *v1
                }
            }
        }
    }

    /// Returns the times (within `[0, tstop]`) at which the waveform has a
    /// slope discontinuity. The transient engine shrinks its step near these
    /// *breakpoints* so that nanosecond spike edges are never skipped over.
    pub fn breakpoints(&self, tstop: f64) -> Vec<f64> {
        let mut out = Vec::new();
        match self {
            Waveform::Dc(_) => {}
            Waveform::Pulse {
                delay,
                rise,
                fall,
                width,
                period,
                ..
            } => {
                let rise = rise.max(1.0e-15);
                let fall = fall.max(1.0e-15);
                let cycle = [0.0, rise, rise + width, rise + width + fall];
                if period.is_finite() && *period > 0.0 {
                    let mut base = *delay;
                    while base < tstop {
                        for off in cycle {
                            let t = base + off;
                            if t <= tstop {
                                out.push(t);
                            }
                        }
                        base += period;
                    }
                } else {
                    for off in cycle {
                        let t = delay + off;
                        if t <= tstop {
                            out.push(t);
                        }
                    }
                }
            }
        }
        out
    }

    /// The bit patterns of every value [`Waveform::breakpoints`] reads:
    /// two waveforms with equal keys generate the same breakpoints, so a
    /// transient generates one list per key. `None` for a waveform whose
    /// list is not shared (a DC level, which has no breakpoints).
    pub(crate) fn breakpoint_timing(&self) -> Option<[u64; 5]> {
        match self {
            Waveform::Dc(_) => None,
            Waveform::Pulse {
                v1: _,
                v2: _,
                delay,
                rise,
                fall,
                width,
                period,
            } => Some([delay, rise, fall, width, period].map(|v| v.to_bits())),
        }
    }

    /// How many breakpoints [`Waveform::breakpoints`]`(tstop)` generates,
    /// estimated without generating them: 4 per PULSE cycle in
    /// `[delay, tstop]`. Infinite when a PULSE period is too small to
    /// advance its edge times at their magnitude, so the generator would
    /// never finish.
    pub(crate) fn breakpoint_estimate(&self, tstop: f64) -> f64 {
        match self {
            Waveform::Dc(_) => 0.0,
            Waveform::Pulse { delay, period, .. } => {
                if !(period.is_finite() && *period > 0.0) {
                    4.0
                } else if *delay >= tstop {
                    0.0
                } else {
                    let far = delay.abs().max(tstop.abs());
                    if far + period > far {
                        4.0 * ((tstop - delay) / period).ceil()
                    } else {
                        f64::INFINITY
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_constant() {
        let w = Waveform::Dc(1.5);
        assert_eq!(w.value(0.0), 1.5);
        assert_eq!(w.value(1.0e9), 1.5);
    }

    #[test]
    fn pulse_shape() {
        let w = Waveform::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 10.0,
            rise: 1.0,
            fall: 1.0,
            width: 5.0,
            period: 20.0,
        };
        assert_eq!(w.value(0.0), 0.0);
        assert_eq!(w.value(9.99), 0.0);
        assert!((w.value(10.5) - 0.5).abs() < 1e-12); // mid-rise
        assert_eq!(w.value(13.0), 1.0); // flat top
        assert!((w.value(16.5) - 0.5).abs() < 1e-12); // mid-fall
        assert_eq!(w.value(19.0), 0.0); // off
        assert_eq!(w.value(33.0), 1.0); // second period flat top
    }

    #[test]
    fn pulse_without_period_fires_once() {
        let w = Waveform::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 0.0,
            rise: 1.0,
            fall: 1.0,
            width: 1.0,
            period: f64::INFINITY,
        };
        assert_eq!(w.value(1.5), 1.0);
        assert_eq!(w.value(100.0), 0.0);
    }

    #[test]
    fn spike_train_has_expected_amplitude_and_rate() {
        let w = Waveform::spike_train(200.0e-9, 25.0e-9, 50.0e-9, 0.0);
        // Sample a full period densely; max should be the amplitude and the
        // duty cycle roughly width/period.
        let mut max = 0.0f64;
        let mut on = 0usize;
        let n = 1000;
        for i in 0..n {
            let v = w.value(i as f64 * 50.0e-9 / n as f64);
            max = max.max(v);
            if v > 100.0e-9 {
                on += 1;
            }
        }
        assert!((max - 200.0e-9).abs() < 1.0e-12);
        let duty = on as f64 / n as f64;
        assert!(duty > 0.40 && duty < 0.60, "duty={duty}");
    }

    #[test]
    fn pulse_breakpoints_cover_edges() {
        let w = Waveform::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 5.0,
            rise: 1.0,
            fall: 1.0,
            width: 2.0,
            period: 10.0,
        };
        let bps = w.breakpoints(20.0);
        assert!(bps.contains(&5.0));
        assert!(bps.contains(&6.0));
        assert!(bps.contains(&8.0));
        assert!(bps.contains(&9.0));
        assert!(bps.contains(&15.0));
        assert_eq!(w.breakpoint_estimate(20.0), bps.len() as f64);
    }
}
