//! Date and timestamp arithmetic.
//!
//! Dates are days since 1970-01-01 (proleptic Gregorian), timestamps are
//! microseconds since the epoch. Implemented from scratch (no chrono) using
//! the civil-days algorithms from Howard Hinnant's date library write-up.

/// Microseconds per day.
pub const MICROS_PER_DAY: i64 = 86_400_000_000;

/// Convert a civil date to days since 1970-01-01.
///
/// Valid for any year in `[-32767, 32767]`; months/days are clamped into
/// range rather than panicking (parser layers validate first).
pub fn days_from_civil(year: i32, month: u32, day: u32) -> i32 {
    let m = month.clamp(1, 12) as i64;
    let d = day.clamp(1, 31) as i64;
    let y = year as i64 - if m <= 2 { 1 } else { 0 };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    (era * 146097 + doe - 719468) as i32
}

/// Convert days since 1970-01-01 back to (year, month, day).
pub fn civil_from_days(days: i32) -> (i32, u32, u32) {
    let z = days as i64 + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    ((y + if m <= 2 { 1 } else { 0 }) as i32, m, d)
}

/// True if `year` is a leap year.
pub fn is_leap_year(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Number of days in a (year, month).
pub fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(year) {
                29
            } else {
                28
            }
        }
        _ => 30,
    }
}

/// Convert a date (days) to a timestamp (micros) at midnight; a date past
/// the timestamp range (about ±292 000 years) saturates at its end.
pub fn date_to_timestamp_micros(days: i32) -> i64 {
    (days as i64).saturating_mul(MICROS_PER_DAY)
}

/// Convert a timestamp (micros) to a date (days), truncating toward -inf.
pub fn timestamp_micros_to_date(micros: i64) -> i32 {
    micros.div_euclid(MICROS_PER_DAY) as i32
}

/// Format a date as `YYYY-MM-DD`.
pub fn format_date(days: i32) -> String {
    let (y, m, d) = civil_from_days(days);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Format a timestamp as `YYYY-MM-DD HH:MM:SS.ffffff` (fraction omitted when
/// zero, matching the console printer).
pub fn format_timestamp(micros: i64) -> String {
    let days = micros.div_euclid(MICROS_PER_DAY);
    let within = micros.rem_euclid(MICROS_PER_DAY);
    let (y, m, d) = civil_from_days(days as i32);
    let secs = within / 1_000_000;
    let frac = within % 1_000_000;
    let (h, mi, s) = (secs / 3600, (secs / 60) % 60, secs % 60);
    if frac == 0 {
        format!("{y:04}-{m:02}-{d:02} {h:02}:{mi:02}:{s:02}")
    } else {
        format!("{y:04}-{m:02}-{d:02} {h:02}:{mi:02}:{s:02}.{frac:06}")
    }
}

/// Parse `YYYY-MM-DD` into days since epoch. Returns `None` on malformed
/// input or out-of-range month/day.
pub fn parse_date(s: &str) -> Option<i32> {
    let mut parts = s.splitn(3, '-');
    // Handle possible leading '-' for negative years by re-splitting.
    let (ystr, rest): (String, Vec<&str>) = if let Some(stripped) = s.strip_prefix('-') {
        let mut p = stripped.splitn(3, '-');
        let y = format!("-{}", p.next()?);
        (y, p.collect())
    } else {
        let y = parts.next()?.to_string();
        (y, parts.collect())
    };
    if rest.len() != 2 {
        return None;
    }
    let year: i32 = ystr.parse().ok()?;
    let month: u32 = rest[0].parse().ok()?;
    let day: u32 = rest[1].parse().ok()?;
    if !(1..=12).contains(&month) || day < 1 || day > days_in_month(year, month) {
        return None;
    }
    Some(days_from_civil(year, month, day))
}

/// Parse `YYYY-MM-DD[ HH:MM:SS[.ffffff]]` into micros since epoch.
pub fn parse_timestamp(s: &str) -> Option<i64> {
    let s = s.trim();
    let (date_part, time_part) = match s.find([' ', 'T']) {
        Some(idx) => (&s[..idx], Some(&s[idx + 1..])),
        None => (s, None),
    };
    let days = parse_date(date_part)? as i64;
    let mut micros = days * MICROS_PER_DAY;
    if let Some(t) = time_part {
        let (hms, frac) = match t.find('.') {
            Some(idx) => (&t[..idx], Some(&t[idx + 1..])),
            None => (t, None),
        };
        let mut it = hms.split(':');
        let h: i64 = it.next()?.parse().ok()?;
        let m: i64 = it.next().unwrap_or("0").parse().ok()?;
        let sec: i64 = it.next().unwrap_or("0").parse().ok()?;
        if h > 23 || m > 59 || sec > 59 {
            return None;
        }
        micros += (h * 3600 + m * 60 + sec) * 1_000_000;
        if let Some(f) = frac {
            let digits: String = f.chars().take(6).collect();
            if digits.is_empty() || !digits.chars().all(|c| c.is_ascii_digit()) {
                return None;
            }
            let val: i64 = digits.parse().ok()?;
            micros += val * 10i64.pow(6 - digits.len() as u32);
        }
    }
    Some(micros)
}

/// Add `months` to a date, clamping the day to the target month's length
/// (Oracle `ADD_MONTHS` semantics).
pub fn add_months(days: i32, months: i32) -> i32 {
    let (y, m, d) = civil_from_days(days);
    let total = (y as i64) * 12 + (m as i64 - 1) + months as i64;
    let ny = total.div_euclid(12) as i32;
    let nm = (total.rem_euclid(12) + 1) as u32;
    let nd = d.min(days_in_month(ny, nm));
    days_from_civil(ny, nm, nd)
}

/// Extract a named field from a date. Supported: year, month, day, quarter,
/// dow (0=Sunday), doy, week.
pub fn extract_field(days: i32, field: &str) -> Option<i64> {
    let (y, m, d) = civil_from_days(days);
    Some(match field.to_ascii_lowercase().as_str() {
        "year" | "yr" => y as i64,
        "month" | "mon" => m as i64,
        "day" | "d" => d as i64,
        "quarter" | "q" => ((m - 1) / 3 + 1) as i64,
        "dow" => (days as i64 + 4).rem_euclid(7), // 1970-01-01 was a Thursday
        "doy" => (days - days_from_civil(y, 1, 1) + 1) as i64,
        "week" => ((days - days_from_civil(y, 1, 1)) / 7 + 1) as i64,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_zero() {
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(civil_from_days(0), (1970, 1, 1));
    }

    #[test]
    fn roundtrip_many_days() {
        for days in (-800_000..800_000).step_by(997) {
            let (y, m, d) = civil_from_days(days);
            assert_eq!(days_from_civil(y, m, d), days, "at {y}-{m}-{d}");
        }
    }

    #[test]
    fn known_dates() {
        assert_eq!(days_from_civil(2000, 3, 1), 11017);
        assert_eq!(days_from_civil(2017, 4, 20), 17276); // ICDE 2017 week
        assert_eq!(format_date(17276), "2017-04-20");
    }

    #[test]
    fn leap_years() {
        assert!(is_leap_year(2000));
        assert!(!is_leap_year(1900));
        assert!(is_leap_year(2016));
        assert!(!is_leap_year(2017));
        assert_eq!(days_in_month(2016, 2), 29);
        assert_eq!(days_in_month(2017, 2), 28);
    }

    #[test]
    fn parse_and_format() {
        let d = parse_date("2017-04-20").unwrap();
        assert_eq!(format_date(d), "2017-04-20");
        assert!(parse_date("2017-13-01").is_none());
        assert!(parse_date("2017-02-29").is_none());
        assert!(parse_date("garbage").is_none());
    }

    #[test]
    fn timestamps() {
        let t = parse_timestamp("2017-04-20 12:30:45.5").unwrap();
        assert_eq!(format_timestamp(t), "2017-04-20 12:30:45.500000");
        let t2 = parse_timestamp("2017-04-20").unwrap();
        assert_eq!(format_timestamp(t2), "2017-04-20 00:00:00");
        assert!(parse_timestamp("2017-04-20 25:00:00").is_none());
    }

    #[test]
    fn add_months_clamps() {
        let jan31 = days_from_civil(2017, 1, 31);
        let feb = add_months(jan31, 1);
        assert_eq!(civil_from_days(feb), (2017, 2, 28));
        let back = add_months(jan31, -12);
        assert_eq!(civil_from_days(back), (2016, 1, 31));
    }

    #[test]
    fn extract_fields() {
        let d = days_from_civil(2017, 4, 20);
        assert_eq!(extract_field(d, "year"), Some(2017));
        assert_eq!(extract_field(d, "quarter"), Some(2));
        assert_eq!(extract_field(d, "dow"), Some(4)); // Thursday
        assert_eq!(extract_field(d, "nonsense"), None);
    }

    #[test]
    fn negative_timestamp_date_truncation() {
        // 1969-12-31 23:00 is day -1.
        let micros = -3_600_000_000i64;
        assert_eq!(timestamp_micros_to_date(micros), -1);
    }
}
