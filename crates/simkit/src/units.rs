//! Strongly-typed physical quantities.
//!
//! The datacenter model juggles temperatures, powers, airflows and rates. Mixing them up is
//! an easy way to produce a simulator that silently reports nonsense (e.g. comparing a GPU
//! temperature in °C against a row budget in kW). Each quantity is a thin newtype over `f64`
//! following the C-NEWTYPE guideline, with the arithmetic that is physically meaningful for
//! that quantity and explicit conversions elsewhere.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Implements the shared boilerplate for a scalar physical quantity newtype.
macro_rules! scalar_unit {
    ($(#[$meta:meta])* $name:ident, $suffix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
        #[serde(transparent)]
        #[repr(transparent)]
        pub struct $name(f64);

        impl $name {
            /// The zero value of this quantity.
            pub const ZERO: Self = Self(0.0);

            /// Wraps a raw `f64` value.
            #[must_use]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value.
            #[must_use]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the larger of `self` and `other`.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Clamps the value between `lo` and `hi`.
            ///
            /// # Panics
            /// Panics if `lo > hi`.
            #[must_use]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                assert!(lo.0 <= hi.0, "clamp bounds inverted: {} > {}", lo.0, hi.0);
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// Returns `true` if the value is finite (neither NaN nor infinite).
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.2} {}", self.0, $suffix)
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl From<f64> for $name {
            fn from(value: f64) -> Self {
                Self(value)
            }
        }

        impl From<$name> for f64 {
            fn from(value: $name) -> f64 {
                value.0
            }
        }
    };
}

scalar_unit!(
    /// A temperature in degrees Celsius.
    ///
    /// GPU junction temperatures, memory temperatures, server inlet/outlet temperatures and
    /// outside air temperatures are all expressed in °C, matching the paper's figures.
    Celsius,
    "°C"
);

scalar_unit!(
    /// Electrical power in watts.
    Watts,
    "W"
);

scalar_unit!(
    /// Electrical power in kilowatts. Used for server- and row-level aggregates.
    Kilowatts,
    "kW"
);

scalar_unit!(
    /// Volumetric airflow in cubic feet per minute (CFM).
    ///
    /// The DGX A100 moves roughly 840 CFM and the DGX H100 roughly 1105 CFM at 80 % PWM fan
    /// speed (§2.1 of the paper); aisle AHUs must provision more airflow than the servers in
    /// the aisle consume or hot air recirculates.
    CubicFeetPerMinute,
    "CFM"
);

scalar_unit!(
    /// A throughput in tokens per second (LLM serving goodput).
    TokensPerSecond,
    "tok/s"
);

scalar_unit!(
    /// A dimensionless utilization or load fraction, normally within `[0, 1]`.
    LoadFraction,
    "load"
);

impl Watts {
    /// Converts to kilowatts.
    #[must_use]
    pub fn to_kilowatts(self) -> Kilowatts {
        Kilowatts::new(self.0 / 1000.0)
    }
}

impl Kilowatts {
    /// Converts to watts.
    #[must_use]
    pub fn to_watts(self) -> Watts {
        Watts::new(self.0 * 1000.0)
    }
}

impl LoadFraction {
    /// Full load (1.0).
    pub const FULL: Self = Self(1.0);

    /// Creates a load fraction, clamping into `[0, 1]`.
    #[must_use]
    pub fn clamped(value: f64) -> Self {
        Self(value.clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_behaves_like_f64() {
        let a = Celsius::new(20.0);
        let b = Celsius::new(5.0);
        assert_eq!((a + b).value(), 25.0);
        assert_eq!((a - b).value(), 15.0);
        assert_eq!((a * 2.0).value(), 40.0);
        assert_eq!((a / 2.0).value(), 10.0);
        assert_eq!(a / b, 4.0);
        assert_eq!((-b).value(), -5.0);
    }

    #[test]
    fn add_assign_and_sub_assign() {
        let mut p = Watts::new(100.0);
        p += Watts::new(50.0);
        assert_eq!(p.value(), 150.0);
        p -= Watts::new(25.0);
        assert_eq!(p.value(), 125.0);
    }

    #[test]
    fn sum_of_iterator() {
        let total: Kilowatts = (1..=4).map(|i| Kilowatts::new(f64::from(i))).sum();
        assert_eq!(total.value(), 10.0);
    }

    #[test]
    fn min_max_clamp() {
        let a = Celsius::new(30.0);
        let b = Celsius::new(40.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(
            Celsius::new(90.0).clamp(Celsius::new(0.0), Celsius::new(85.0)),
            Celsius::new(85.0)
        );
    }

    #[test]
    #[should_panic(expected = "clamp bounds inverted")]
    fn clamp_panics_on_inverted_bounds() {
        let _ = Celsius::new(1.0).clamp(Celsius::new(10.0), Celsius::new(0.0));
    }

    #[test]
    fn power_conversions_round_trip() {
        let w = Watts::new(6500.0);
        assert!((w.to_kilowatts().value() - 6.5).abs() < 1e-12);
        assert!((w.to_kilowatts().to_watts().value() - 6500.0).abs() < 1e-9);
    }

    #[test]
    fn load_fraction_clamps() {
        assert_eq!(LoadFraction::clamped(1.7), LoadFraction::FULL);
        assert_eq!(LoadFraction::clamped(-0.3), LoadFraction::ZERO);
        assert_eq!(LoadFraction::clamped(0.5).value(), 0.5);
    }

    #[test]
    fn display_includes_unit_suffix() {
        assert_eq!(Celsius::new(21.5).to_string(), "21.50 °C");
        assert_eq!(Kilowatts::new(6.5).to_string(), "6.50 kW");
        assert_eq!(CubicFeetPerMinute::new(840.0).to_string(), "840.00 CFM");
    }

    #[test]
    fn serde_round_trip_is_transparent() {
        let t = Celsius::new(72.25);
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(json, "72.25");
        let back: Celsius = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn from_and_into_f64() {
        let t: Celsius = 12.0.into();
        let raw: f64 = t.into();
        assert_eq!(raw, 12.0);
    }
}
