//! Virtual time primitives for the discrete-event simulator.
//!
//! All simulation time is expressed in whole **microseconds** since the start
//! of the simulation. Using integers keeps every run bit-for-bit reproducible
//! (no floating-point drift) and makes ordering of simultaneous events
//! deterministic.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the virtual clock, measured in microseconds since the start
/// of the simulation.
///
/// # Examples
///
/// ```
/// use simnet::time::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(5);
/// assert_eq!(t.as_micros(), 5_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, measured in microseconds.
///
/// # Examples
///
/// ```
/// use simnet::time::SimDuration;
///
/// let d = SimDuration::from_millis(2) + SimDuration::from_micros(500);
/// assert_eq!(d.as_micros(), 2_500);
/// assert_eq!(d.as_millis_f64(), 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the virtual clock.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from a number of microseconds since the origin.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates an instant from a number of milliseconds since the origin.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates an instant from a number of seconds since the origin.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Microseconds since the origin.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since the origin, rounded down.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds since the origin as a floating point value.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds since the origin as a floating point value.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The duration elapsed since `earlier`, saturating at zero if `earlier`
    /// is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`].
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Creates a duration from a floating point number of milliseconds,
    /// rounding to the nearest microsecond and clamping negatives to zero.
    fn from_millis_f64(ms: f64) -> Self {
        if ms <= 0.0 {
            SimDuration(0)
        } else {
            SimDuration((ms * 1_000.0).round() as u64)
        }
    }

    /// The duration in whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration in whole milliseconds, rounded down.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// The duration in milliseconds as a floating point value.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The duration in seconds as a floating point value.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating addition of two durations.
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Scales the duration by a floating point factor (clamped at zero).
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration::from_millis_f64(self.as_millis_f64() * factor.max(0.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

/// Renders a microsecond count in the compact exact form used by fault
/// scripts: the coarsest of `s`/`ms`/`us` that loses nothing (`5s`,
/// `1500ms`, `250us`). [`parse_compact`] inverts it exactly.
pub(crate) fn format_compact(us: u64) -> String {
    if us.is_multiple_of(1_000_000) {
        format!("{}s", us / 1_000_000)
    } else if us.is_multiple_of(1_000) {
        format!("{}ms", us / 1_000)
    } else {
        format!("{us}us")
    }
}

/// Parses the compact form produced by [`format_compact`] back into
/// microseconds: a non-negative integer followed by `s`, `ms` or `us`.
pub(crate) fn parse_compact(text: &str) -> Result<u64, String> {
    let (digits, scale) = if let Some(d) = text.strip_suffix("ms") {
        (d, 1_000)
    } else if let Some(d) = text.strip_suffix("us") {
        (d, 1)
    } else if let Some(d) = text.strip_suffix('s') {
        (d, 1_000_000)
    } else {
        return Err(format!("time '{text}' needs an s/ms/us suffix"));
    };
    let value: u64 = digits
        .parse()
        .map_err(|_| format!("time '{text}' is not an integer count"))?;
    value
        .checked_mul(scale)
        .ok_or_else(|| format!("time '{text}' overflows the microsecond clock"))
}

impl SimTime {
    /// The compact exact rendering used by fault scripts (`5s`, `1500ms`,
    /// `250us`); the `FromStr` impl parses it back losslessly, which is
    /// what lets a minimized fault schedule be pasted into a test verbatim.
    pub fn to_compact_string(self) -> String {
        format_compact(self.0)
    }
}

impl SimDuration {
    /// The compact exact rendering used by fault scripts; see
    /// [`SimTime::to_compact_string`].
    pub fn to_compact_string(self) -> String {
        format_compact(self.0)
    }
}

impl std::str::FromStr for SimTime {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_compact(s).map(SimTime)
    }
}

impl std::str::FromStr for SimDuration {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_compact(s).map(SimDuration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_millis(10) + SimDuration::from_micros(250);
        assert_eq!(t.as_micros(), 10_250);
        assert_eq!(t.as_millis(), 10);
        assert_eq!(t - SimTime::from_millis(10), SimDuration::from_micros(250));
    }

    #[test]
    fn subtraction_saturates() {
        let early = SimTime::from_millis(1);
        let late = SimTime::from_millis(5);
        assert_eq!(early - late, SimDuration::ZERO);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_millis(4));
    }

    #[test]
    fn duration_conversions() {
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimDuration::from_millis_f64(1.5).as_micros(), 1_500);
        assert_eq!(SimDuration::from_millis_f64(-3.0), SimDuration::ZERO);
        assert!((SimDuration::from_micros(1_234_567).as_secs_f64() - 1.234567).abs() < 1e-9);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_millis(5));
        assert_eq!(d.mul_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn compact_form_roundtrips_exactly() {
        for us in [0, 1, 250, 1_000, 1_500, 1_000_000, 90_000_000, 5_250_000] {
            let t = SimTime::from_micros(us);
            assert_eq!(t.to_compact_string().parse::<SimTime>(), Ok(t));
            let d = SimDuration::from_micros(us);
            assert_eq!(d.to_compact_string().parse::<SimDuration>(), Ok(d));
        }
        assert_eq!(SimTime::from_secs(5).to_compact_string(), "5s");
        assert_eq!(SimDuration::from_millis(1_500).to_compact_string(), "1500ms");
        assert_eq!(SimDuration::from_micros(250).to_compact_string(), "250us");
        assert!("5".parse::<SimDuration>().is_err(), "suffix is mandatory");
        assert!("x5s".parse::<SimTime>().is_err());
        assert!("-1s".parse::<SimDuration>().is_err());
    }

    #[test]
    fn display_formats_milliseconds() {
        assert_eq!(SimTime::from_micros(1_500).to_string(), "1.500ms");
        assert_eq!(SimDuration::from_millis(2).to_string(), "2.000ms");
    }

    #[test]
    fn ordering_is_by_instant() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert!(SimTime::MAX > SimTime::from_secs(1_000_000));
    }
}
