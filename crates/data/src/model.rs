//! The transportation transaction model (Table 1 of the paper).
//!
//! Each record is one freight movement with eleven attributes: an id,
//! requested pickup/delivery dates, origin/destination coordinates at
//! 0.1-degree precision, road distance, gross weight, transit hours, and
//! transport mode (Truckload / Less-than-Truckload).

use std::fmt;

/// A calendar date stored as days since 2004-01-01 (the dataset spans six
/// months of 2004-era data; only day arithmetic and rendering are needed).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Date(pub u32);

impl Date {
    /// Day offset from the dataset epoch.
    pub fn day(self) -> u32 {
        self.0
    }

    /// Date `n` days later.
    pub fn plus_days(self, n: u32) -> Date {
        Date(self.0 + n)
    }

    /// Signed difference in days (`self - other`).
    pub fn days_since(self, other: Date) -> i64 {
        self.0 as i64 - other.0 as i64
    }

    /// Renders as `YYYY-MM-DD` assuming epoch 2004-01-01 (2004 is a leap
    /// year; the six-month window never leaves it for paper-scale data,
    /// but the conversion handles later years correctly anyway).
    pub fn to_ymd(self) -> (u32, u32, u32) {
        let mut year = 2004u32;
        let mut remaining = self.0;
        loop {
            let leap =
                year.is_multiple_of(4) && (!year.is_multiple_of(100) || year.is_multiple_of(400));
            let len = if leap { 366 } else { 365 };
            if remaining < len {
                break;
            }
            remaining -= len;
            year += 1;
        }
        let leap =
            year.is_multiple_of(4) && (!year.is_multiple_of(100) || year.is_multiple_of(400));
        let months = [
            31,
            if leap { 29 } else { 28 },
            31,
            30,
            31,
            30,
            31,
            31,
            30,
            31,
            30,
            31,
        ];
        let mut month = 1u32;
        for &len in &months {
            if remaining < len {
                break;
            }
            remaining -= len;
            month += 1;
        }
        (year, month, remaining + 1)
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.to_ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

/// A geographic point at the paper's 0.1-degree precision, stored as
/// deci-degrees (`447` = 44.7°N, `-881` = 88.1°W). This makes positions
/// hashable/comparable without float pitfalls and matches the dataset's
/// "to nearest 0.1 degree" coarsening.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct LatLon {
    pub lat_deci: i16,
    pub lon_deci: i16,
}

impl LatLon {
    pub fn new(lat: f64, lon: f64) -> LatLon {
        LatLon {
            lat_deci: (lat * 10.0).round() as i16,
            lon_deci: (lon * 10.0).round() as i16,
        }
    }

    pub fn lat(self) -> f64 {
        self.lat_deci as f64 / 10.0
    }

    pub fn lon(self) -> f64 {
        self.lon_deci as f64 / 10.0
    }

    /// Great-circle distance in statute miles (haversine).
    pub fn haversine_miles(self, other: LatLon) -> f64 {
        const R_MILES: f64 = 3958.8;
        let (lat1, lon1) = (self.lat().to_radians(), self.lon().to_radians());
        let (lat2, lon2) = (other.lat().to_radians(), other.lon().to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * R_MILES * a.sqrt().asin()
    }
}

impl fmt::Display for LatLon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1})", self.lat(), self.lon())
    }
}

/// Transport mode: full Truckload or Less-than-Truckload.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TransMode {
    Truckload,
    LessThanTruckload,
}

impl TransMode {
    pub fn as_str(self) -> &'static str {
        match self {
            TransMode::Truckload => "TL",
            TransMode::LessThanTruckload => "LTL",
        }
    }

    pub fn parse(s: &str) -> Option<TransMode> {
        match s {
            "TL" => Some(TransMode::Truckload),
            "LTL" => Some(TransMode::LessThanTruckload),
            _ => None,
        }
    }
}

impl fmt::Display for TransMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One origin–destination freight transaction (Table 1).
#[derive(Clone, Debug, PartialEq)]
pub struct Transaction {
    /// Unique transaction identifier.
    pub id: u64,
    /// Requested date to pick up the load.
    pub req_pickup: Date,
    /// Requested delivery date.
    pub req_delivery: Date,
    /// Origin coordinates (0.1-degree precision).
    pub origin: LatLon,
    /// Destination coordinates (0.1-degree precision).
    pub dest: LatLon,
    /// Road miles between origin and destination.
    pub total_distance: f64,
    /// Weight of the load in pounds.
    pub gross_weight: f64,
    /// Hours needed to get from origin to destination.
    pub transit_hours: f64,
    /// Truckload or Less-than-Truckload.
    pub mode: TransMode,
}

/// One transaction as it arrives (a CSV row or a wire `ingest` record),
/// before validation and 0.1-degree coarsening.
#[derive(Clone, Debug, PartialEq)]
pub struct RawTransaction {
    pub id: u64,
    pub req_pickup: Date,
    pub req_delivery: Date,
    /// Origin (latitude, longitude) in degrees.
    pub origin: (f64, f64),
    /// Destination (latitude, longitude) in degrees.
    pub dest: (f64, f64),
    pub total_distance: f64,
    pub gross_weight: f64,
    pub transit_hours: f64,
    pub mode: TransMode,
}

impl RawTransaction {
    /// The per-record checks every ingest path shares: delivery no
    /// earlier than pickup, finite coordinates (a NaN would silently
    /// coarsen to 0.0°), and finite, non-negative distance, weight, and
    /// transit hours. Unvalidated, a NaN or infinite weight parses
    /// cleanly and poisons every downstream bin boundary.
    pub fn validate(self) -> Result<Transaction, String> {
        if self.req_delivery < self.req_pickup {
            return Err(format!(
                "requested delivery (day {}) precedes requested pickup (day {})",
                self.req_delivery.day(),
                self.req_pickup.day()
            ));
        }
        let finite = |v: f64, name: &str| {
            if v.is_finite() {
                Ok(v)
            } else {
                Err(format!("non-finite {name}: {v}"))
            }
        };
        let magnitude = |v: f64, name: &str| {
            let v = finite(v, name)?;
            if v < 0.0 {
                return Err(format!("negative {name}: {v}"));
            }
            Ok(v)
        };
        Ok(Transaction {
            id: self.id,
            req_pickup: self.req_pickup,
            req_delivery: self.req_delivery,
            origin: LatLon::new(
                finite(self.origin.0, "origin latitude")?,
                finite(self.origin.1, "origin longitude")?,
            ),
            dest: LatLon::new(
                finite(self.dest.0, "dest latitude")?,
                finite(self.dest.1, "dest longitude")?,
            ),
            total_distance: magnitude(self.total_distance, "distance")?,
            gross_weight: magnitude(self.gross_weight, "weight")?,
            transit_hours: magnitude(self.transit_hours, "transit hours")?,
            mode: self.mode,
        })
    }
}

impl Transaction {
    /// The (origin, destination) key identifying this OD pair.
    pub fn od_pair(&self) -> (LatLon, LatLon) {
        (self.origin, self.dest)
    }

    /// True on days `d` with pickup <= d <= delivery — the edge is
    /// "active" in the §6 temporal-partitioning sense.
    pub fn active_on(&self, d: Date) -> bool {
        self.req_pickup <= d && d <= self.req_delivery
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_arithmetic_and_rendering() {
        let d = Date(0);
        assert_eq!(d.to_string(), "2004-01-01");
        assert_eq!(Date(30).to_string(), "2004-01-31");
        assert_eq!(Date(31).to_string(), "2004-02-01");
        // 2004 is a leap year: Feb has 29 days.
        assert_eq!(Date(31 + 28).to_string(), "2004-02-29");
        assert_eq!(Date(31 + 29).to_string(), "2004-03-01");
        assert_eq!(Date(366).to_string(), "2005-01-01");
        assert_eq!(Date(5).plus_days(10), Date(15));
        assert_eq!(Date(15).days_since(Date(5)), 10);
        assert_eq!(Date(5).days_since(Date(15)), -10);
    }

    #[test]
    fn june_30_is_day_181() {
        // Six months of 2004: Jan(31)+Feb(29)+Mar(31)+Apr(30)+May(31)+Jun(30)=182 days,
        // so the last day of the window is index 181.
        assert_eq!(Date(181).to_string(), "2004-06-30");
    }

    #[test]
    fn latlon_rounding_and_accessors() {
        let p = LatLon::new(44.7312, -88.1499);
        assert_eq!(p.lat_deci, 447);
        assert_eq!(p.lon_deci, -881);
        assert!((p.lat() - 44.7).abs() < 1e-9);
        assert!((p.lon() - (-88.1)).abs() < 1e-9);
        assert_eq!(p.to_string(), "(44.7, -88.1)");
    }

    #[test]
    fn haversine_sanity() {
        // Green Bay, WI to Chicago, IL: ~175-200 statute miles.
        let gb = LatLon::new(44.5, -88.0);
        let chi = LatLon::new(41.9, -87.6);
        let d = gb.haversine_miles(chi);
        assert!((150.0..220.0).contains(&d), "got {d}");
        // Symmetry and identity.
        assert!((d - chi.haversine_miles(gb)).abs() < 1e-9);
        assert_eq!(gb.haversine_miles(gb), 0.0);
    }

    #[test]
    fn pacific_northwest_to_hawaii_is_far() {
        let pnw = LatLon::new(47.6, -122.3);
        let hi = LatLon::new(21.3, -157.8);
        assert!(pnw.haversine_miles(hi) > 2500.0);
    }

    #[test]
    fn mode_roundtrip() {
        assert_eq!(TransMode::parse("TL"), Some(TransMode::Truckload));
        assert_eq!(TransMode::parse("LTL"), Some(TransMode::LessThanTruckload));
        assert_eq!(TransMode::parse("X"), None);
        assert_eq!(TransMode::Truckload.to_string(), "TL");
    }

    #[test]
    fn active_window() {
        let t = Transaction {
            id: 1,
            req_pickup: Date(10),
            req_delivery: Date(12),
            origin: LatLon::new(44.5, -88.0),
            dest: LatLon::new(41.9, -87.6),
            total_distance: 200.0,
            gross_weight: 30_000.0,
            transit_hours: 5.0,
            mode: TransMode::Truckload,
        };
        assert!(!t.active_on(Date(9)));
        assert!(t.active_on(Date(10)));
        assert!(t.active_on(Date(11)));
        assert!(t.active_on(Date(12)));
        assert!(!t.active_on(Date(13)));
        assert_eq!(t.od_pair(), (t.origin, t.dest));
    }
}
