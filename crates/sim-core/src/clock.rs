//! Discrete simulation time.
//!
//! All simulation time is kept in integer **microseconds**. The vProbe
//! experiments span sampling periods from 0.1 s to 10 s and scheduler ticks
//! of 10 ms over runs of a few simulated minutes, so `u64` microseconds give
//! both exactness (no drift when stepping 1 ms quanta) and headroom
//! (~584 000 years).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Build from a fractional second count, rounding to the nearest
    /// microsecond. Panics on negative or non-finite input.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        SimDuration((s * 1e6).round() as u64)
    }

    pub const fn as_micros(self) -> u64 {
        self.0
    }

    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
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
        SimDuration(self.0.checked_sub(rhs.0).expect("duration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    /// Integer ratio of two durations (how many `rhs` fit in `self`).
    type Output = u64;
    fn div(self, rhs: SimDuration) -> u64 {
        self.0 / rhs.0
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

/// An absolute instant of simulated time (microseconds since boot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    pub const fn as_micros(self) -> u64 {
        self.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time elapsed since `earlier`. Panics if `earlier` is in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.checked_sub(earlier.0).expect("time went backwards"))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.as_micros())
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_micros();
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

/// The simulation clock: a monotone counter advanced in fixed quanta.
///
/// The hypervisor simulation advances the clock by one quantum at a time and
/// uses [`Clock::ticks_crossed`] to detect when periodic events (credit
/// ticks, accounting, PMU sampling periods) fall inside the step.
#[derive(Debug, Clone)]
pub struct Clock {
    now: SimTime,
    quantum: SimDuration,
}

impl Clock {
    /// Create a clock starting at time zero with the given step quantum.
    /// Panics if the quantum is zero.
    pub fn new(quantum: SimDuration) -> Self {
        assert!(!quantum.is_zero(), "clock quantum must be nonzero");
        Clock {
            now: SimTime::ZERO,
            quantum,
        }
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn quantum(&self) -> SimDuration {
        self.quantum
    }

    /// Advance by one quantum and return the new time.
    pub fn step(&mut self) -> SimTime {
        self.now += self.quantum;
        self.now
    }

    /// Number of multiples of `period` that were crossed by the most recent
    /// step, i.e. lie in the half-open interval `(now - quantum, now]`.
    ///
    /// With quantum ≤ period this is 0 or 1; larger quanta may cross several
    /// boundaries and the caller is expected to fire the event that many
    /// times.
    pub fn ticks_crossed(&self, period: SimDuration) -> u64 {
        assert!(!period.is_zero(), "period must be nonzero");
        let end = self.now.as_micros();
        let start = end.saturating_sub(self.quantum.as_micros());
        end / period.as_micros() - start / period.as_micros()
    }

    /// True if the current time is an exact multiple of `period`.
    pub fn on_boundary(&self, period: SimDuration) -> bool {
        !period.is_zero() && self.now.as_micros().is_multiple_of(period.as_micros())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_conversions_round_trip() {
        assert_eq!(SimDuration::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimDuration::from_millis(10).as_micros(), 10_000);
        assert_eq!(SimDuration::from_micros(7).as_micros(), 7);
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2_000);
        let d = SimDuration::from_secs_f64(0.1);
        assert_eq!(d.as_micros(), 100_000);
        assert!((d.as_secs_f64() - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn from_secs_f64_rejects_negative() {
        SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(30);
        let b = SimDuration::from_millis(10);
        assert_eq!(a + b, SimDuration::from_millis(40));
        assert_eq!(a - b, SimDuration::from_millis(20));
        assert_eq!(a * 3, SimDuration::from_millis(90));
        assert_eq!(a / 3, SimDuration::from_millis(10));
        assert_eq!(a / b, 3);
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
    }

    #[test]
    #[should_panic(expected = "duration underflow")]
    fn duration_sub_underflow_panics() {
        let _ = SimDuration::from_millis(1) - SimDuration::from_millis(2);
    }

    #[test]
    fn time_advances_and_measures() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_millis(5);
        assert_eq!(t1.since(t0), SimDuration::from_millis(5));
        assert_eq!(t1.as_micros(), 5_000);
    }

    #[test]
    fn clock_steps_by_quantum() {
        let mut clock = Clock::new(SimDuration::from_millis(1));
        assert_eq!(clock.now(), SimTime::ZERO);
        clock.step();
        clock.step();
        assert_eq!(clock.now().as_micros(), 2_000);
    }

    #[test]
    fn ticks_crossed_counts_period_boundaries() {
        let mut clock = Clock::new(SimDuration::from_millis(1));
        let tick = SimDuration::from_millis(10);
        let mut fired = 0;
        for _ in 0..100 {
            clock.step();
            fired += clock.ticks_crossed(tick);
        }
        // 100 ms of 1 ms steps crosses the 10 ms boundary exactly 10 times.
        assert_eq!(fired, 10);
    }

    #[test]
    fn ticks_crossed_with_coarse_quantum() {
        // A 25 ms quantum crosses two or three 10 ms boundaries per step.
        let mut clock = Clock::new(SimDuration::from_millis(25));
        let tick = SimDuration::from_millis(10);
        let mut fired = 0;
        for _ in 0..4 {
            clock.step();
            fired += clock.ticks_crossed(tick);
        }
        // 100 ms total => boundaries at 10..=100 => 10 firings.
        assert_eq!(fired, 10);
    }

    #[test]
    fn on_boundary_detects_multiples() {
        let mut clock = Clock::new(SimDuration::from_millis(5));
        clock.step(); // 5 ms
        assert!(clock.on_boundary(SimDuration::from_millis(5)));
        assert!(!clock.on_boundary(SimDuration::from_millis(10)));
        clock.step(); // 10 ms
        assert!(clock.on_boundary(SimDuration::from_millis(10)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimDuration::from_millis(3).to_string(), "3.000ms");
        assert_eq!(SimDuration::from_micros(42).to_string(), "42us");
    }
}
