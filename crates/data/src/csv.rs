//! Plain CSV serialization of transaction datasets.
//!
//! The schema mirrors Table 1 column-for-column. Hand-rolled writer and
//! parser: the format is fixed, all fields are numeric or a two-value
//! enum, and no quoting/escaping is ever needed.

use crate::model::{Date, RawTransaction, TransMode, Transaction};
use std::io::{self, BufRead, Write};

/// The CSV header row (Table 1 column names).
pub const HEADER: &str = "ID,REQ_PICKUP_DT,REQ_DELIVERY_DT,ORIGIN_LATITUDE,ORIGIN_LONGITUDE,\
DEST_LATITUDE,DEST_LONGITUDE,TOTAL_DISTANCE,GROSS_WEIGHT,MOVE_TRANSIT_HOURS,TRANS_MODE";

/// Writes transactions as CSV (header + one row each). Dates are emitted
/// as day offsets from the dataset epoch.
pub fn write_csv(txns: &[Transaction], mut w: impl Write) -> io::Result<()> {
    writeln!(w, "{HEADER}")?;
    for t in txns {
        writeln!(
            w,
            "{},{},{},{:.1},{:.1},{:.1},{:.1},{:.2},{:.1},{:.2},{}",
            t.id,
            t.req_pickup.day(),
            t.req_delivery.day(),
            t.origin.lat(),
            t.origin.lon(),
            t.dest.lat(),
            t.dest.lon(),
            t.total_distance,
            t.gross_weight,
            t.transit_hours,
            t.mode
        )?;
    }
    Ok(())
}

/// A parse failure with its 1-based line number.
#[derive(Debug)]
pub struct CsvError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "csv parse error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CsvError {}

/// Reads transactions from CSV produced by [`write_csv`] (header
/// required).
///
/// Every record is validated, not just parsed, by
/// [`RawTransaction::validate`] (the same checks the serve protocol's
/// `ingest` applies); a rejection carries the offending 1-based line
/// number.
pub fn read_csv(r: impl BufRead) -> Result<Vec<Transaction>, CsvError> {
    let mut txns = Vec::new();
    for (i, line) in r.lines().enumerate() {
        let lineno = i + 1;
        if let Err(fault) = tnet_exec::failpoint::hit("csv::ingest") {
            return Err(CsvError {
                line: lineno,
                message: fault.to_string(),
            });
        }
        let line = line.map_err(|e| CsvError {
            line: lineno,
            message: e.to_string(),
        })?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if i == 0 {
            if line != HEADER {
                return Err(CsvError {
                    line: lineno,
                    message: "unexpected header".into(),
                });
            }
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 11 {
            return Err(CsvError {
                line: lineno,
                message: format!("expected 11 fields, got {}", fields.len()),
            });
        }
        let err = |m: &str| CsvError {
            line: lineno,
            message: m.to_string(),
        };
        let num = |i: usize, name: &str| -> Result<f64, CsvError> {
            fields[i]
                .parse::<f64>()
                .map_err(|_| err(&format!("bad {name}: {}", fields[i])))
        };
        let raw = RawTransaction {
            id: fields[0].parse().map_err(|_| err("bad ID"))?,
            req_pickup: Date(fields[1].parse().map_err(|_| err("bad pickup date"))?),
            req_delivery: Date(fields[2].parse().map_err(|_| err("bad delivery date"))?),
            origin: (num(3, "origin latitude")?, num(4, "origin longitude")?),
            dest: (num(5, "dest latitude")?, num(6, "dest longitude")?),
            total_distance: num(7, "distance")?,
            gross_weight: num(8, "weight")?,
            transit_hours: num(9, "transit hours")?,
            mode: TransMode::parse(fields[10]).ok_or_else(|| err("bad mode"))?,
        };
        txns.push(raw.validate().map_err(|m| err(&m))?);
    }
    Ok(txns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LatLon;

    fn sample() -> Vec<Transaction> {
        vec![
            Transaction {
                id: 7,
                req_pickup: Date(10),
                req_delivery: Date(12),
                origin: LatLon::new(44.5, -88.0),
                dest: LatLon::new(41.9, -87.6),
                total_distance: 212.5,
                gross_weight: 32_000.0,
                transit_hours: 6.25,
                mode: TransMode::Truckload,
            },
            Transaction {
                id: 8,
                req_pickup: Date(11),
                req_delivery: Date(15),
                origin: LatLon::new(41.9, -87.6),
                dest: LatLon::new(39.1, -84.5),
                total_distance: 296.0,
                gross_weight: 900.0,
                transit_hours: 30.0,
                mode: TransMode::LessThanTruckload,
            },
        ]
    }

    #[test]
    fn roundtrip() {
        let txns = sample();
        let mut buf = Vec::new();
        write_csv(&txns, &mut buf).unwrap();
        let back = read_csv(buf.as_slice()).unwrap();
        assert_eq!(back, txns);
    }

    #[test]
    fn rejects_bad_header() {
        let e = read_csv("wrong,header\n".as_bytes()).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("header"));
    }

    #[test]
    fn rejects_wrong_field_count() {
        let input = format!("{HEADER}\n1,2,3\n");
        let e = read_csv(input.as_bytes()).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("11 fields"));
    }

    #[test]
    fn rejects_bad_mode() {
        let input = format!("{HEADER}\n1,0,1,44.5,-88.0,41.9,-87.6,200,30000,8,AIR\n");
        let e = read_csv(input.as_bytes()).unwrap_err();
        assert!(e.message.contains("mode"));
    }

    #[test]
    fn rejects_non_finite_fields() {
        for (field, col) in [("NaN", "latitude"), ("inf", "longitude"), ("NaN", "weight")] {
            let row = match col {
                "latitude" => format!("1,0,1,{field},-88.0,41.9,-87.6,200,30000,8,TL"),
                "longitude" => format!("1,0,1,44.5,{field},41.9,-87.6,200,30000,8,TL"),
                _ => format!("1,0,1,44.5,-88.0,41.9,-87.6,200,{field},8,TL"),
            };
            let input = format!("{HEADER}\n{row}\n");
            let e = read_csv(input.as_bytes()).unwrap_err();
            assert_eq!(e.line, 2, "line number for {col}");
            assert!(
                e.message.contains("non-finite") && e.message.contains(col),
                "unexpected message for {col}: {}",
                e.message
            );
        }
    }

    #[test]
    fn rejects_negative_magnitudes() {
        for (row, name) in [
            ("1,0,1,44.5,-88.0,41.9,-87.6,-200,30000,8,TL", "distance"),
            ("1,0,1,44.5,-88.0,41.9,-87.6,200,-1,8,TL", "weight"),
            ("1,0,1,44.5,-88.0,41.9,-87.6,200,30000,-8,TL", "transit"),
        ] {
            let input = format!("{HEADER}\n{row}\n");
            let e = read_csv(input.as_bytes()).unwrap_err();
            assert_eq!(e.line, 2);
            assert!(
                e.message.contains("negative") && e.message.contains(name),
                "unexpected message for {name}: {}",
                e.message
            );
        }
    }

    #[test]
    fn rejects_delivery_before_pickup() {
        let ok = format!("{HEADER}\n1,5,5,44.5,-88.0,41.9,-87.6,200,30000,8,TL\n");
        assert_eq!(read_csv(ok.as_bytes()).unwrap().len(), 1);
        let input = format!(
            "{HEADER}\n1,0,2,44.5,-88.0,41.9,-87.6,200,30000,8,TL\n\
             2,9,3,44.5,-88.0,41.9,-87.6,200,30000,8,TL\n"
        );
        let e = read_csv(input.as_bytes()).unwrap_err();
        assert_eq!(e.line, 3, "second data row is the bad one");
        assert!(e.message.contains("precedes"), "{}", e.message);
    }

    #[test]
    fn negative_coordinates_are_fine() {
        let input = format!("{HEADER}\n1,0,1,-33.9,-151.2,-37.8,144.9,200,30000,8,TL\n");
        let t = &read_csv(input.as_bytes()).unwrap()[0];
        assert_eq!(t.origin.lat(), -33.9);
    }

    #[test]
    fn skips_blank_lines() {
        let mut buf = Vec::new();
        write_csv(&sample(), &mut buf).unwrap();
        buf.extend_from_slice(b"\n\n");
        assert_eq!(read_csv(buf.as_slice()).unwrap().len(), 2);
    }
}
