//! Small helpers shared by the workloads: order statistics, digests,
//! report scrubbing, resident-set readings and JSON number formatting.

use std::path::Path;

/// Median of `xs` by the Harrell–Davis estimator; `None` when empty.
///
/// The estimate is a weighted mean of all order statistics, with
/// weights from a Beta((n+1)/2, (n+1)/2) distribution over their ranks,
/// so it leans on the middle few samples instead of one or two. The
/// timings measured here often fall into two clusters (a request that
/// does or does not wait for a busy core); the sample median then jumps
/// from one cluster to the other with the luck of a few samples, while
/// this estimate moves with the clusters' proportions.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    if s.is_empty() {
        return None;
    }
    let n = s.len() as f64;
    let a = (n + 1.0) / 2.0;
    let mut below = 0.0;
    let mut estimate = 0.0;
    for (i, x) in s.iter().enumerate() {
        let upto = beta_cdf((i + 1) as f64 / n, a, a);
        estimate += (upto - below) * x;
        below = upto;
    }
    Some(estimate)
}

/// The regularized incomplete beta function `I_x(a, b)`: the CDF of a
/// Beta(a, b) distribution at `x`.
fn beta_cdf(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    // The continued fraction converges fast on this side of the mean;
    // the other side follows from I_x(a, b) = 1 - I_{1-x}(b, a).
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(x, a, b) / a
    } else {
        1.0 - front * beta_fraction(1.0 - x, b, a) / b
    }
}

/// The continued fraction of the incomplete beta function, by the
/// modified Lentz method.
fn beta_fraction(x: f64, a: f64, b: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let nonzero = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..10_000 {
        let m = f64::from(m);
        let m2 = 2.0 * m;
        for num in [
            m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0)),
        ] {
            d = 1.0 / nonzero(1.0 + num * d);
            c = nonzero(1.0 + num / c);
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// `ln Γ(x)` for `x > 0` (Lanczos approximation, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x) Γ(1 - x) = π / sin(πx).
        return (std::f64::consts::PI / (std::f64::consts::PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let sum = G[1..]
        .iter()
        .enumerate()
        .fold(G[0], |acc, (i, g)| acc + g / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + sum.ln()
}

/// Nearest-rank percentile `q` in `(0, 1]`: the smallest sample with
/// at least `q` of the samples at or below it. With fewer than
/// `1 / (1 - q)` samples this is the maximum.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    let s = sorted(xs);
    if s.is_empty() {
        return None;
    }
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    Some(s[rank - 1])
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// 64-bit FNV-1a: a stable digest for output comparisons (not for
/// security).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Replaces every rendered duration (`160.62198ms`, `200.695µs`,
/// `1.2s`, `500ns`) with `<dur>` and collapses the column padding
/// around it to one space, so two renders of the same report compare
/// equal although their timings differ.
pub fn scrub_durations(text: &str) -> String {
    const UNITS: [&str; 5] = ["ns", "µs", "us", "ms", "s"];
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(start) = rest.find(|c: char| c.is_ascii_digit()) {
        // A number glued to the end of a word (`E16`, `x2`) is part of
        // an identifier, not a duration.
        let glued = rest[..start]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        out.push_str(&rest[..start]);
        rest = &rest[start..];
        let num_len = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .unwrap_or(rest.len());
        let after = &rest[num_len..];
        let unit = UNITS.iter().find(|u| {
            after.starts_with(*u)
                && !after[u.len()..]
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphanumeric())
        });
        match unit {
            Some(u) if !glued => {
                let padded = out.trim_end_matches(' ').len();
                if padded < out.len() {
                    out.truncate(padded);
                    out.push(' ');
                }
                out.push_str("<dur>");
                rest = &after[u.len()..];
                if rest.starts_with(' ') {
                    rest = rest.trim_start_matches(' ');
                    out.push(' ');
                }
            }
            _ => {
                out.push_str(&rest[..num_len]);
                rest = after;
            }
        }
    }
    out.push_str(rest);
    out
}

/// Starts a peak-RSS measurement of this process: returns free heap to
/// the kernel, so set-up's garbage does not count, then resets the
/// high-water mark. Returns `false` where the mark cannot be reset.
pub fn start_peak_rss() -> bool {
    trim_heap();
    reset_peak_rss(None)
}

/// Returns free heap memory to the kernel.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim takes no pointers, only releases pages
    // the allocator holds as free, and is safe to call from any thread.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

/// Resets this process's resident-set high-water mark to its current
/// resident set (Linux `clear_refs` code 5). Returns `false` where the
/// kernel does not allow it; the next reading then includes earlier
/// peaks.
pub fn reset_peak_rss(pid: Option<u32>) -> bool {
    std::fs::write(proc_path(pid, "clear_refs"), b"5").is_ok()
}

/// The resident-set high-water mark (`VmHWM`) in MiB, of this process
/// or of `pid`.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let status = std::fs::read_to_string(proc_path(pid, "status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(p) => format!("/proc/{p}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// Machine-wide CPU time so far as (stolen, total) clock ticks from
/// `/proc/stat`: time the hypervisor gave this machine's virtual CPUs
/// to other guests. A run whose steal share is high ran on a busy host.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// A JSON number for `v`: Rust's shortest round-trip rendering, so the
/// value keeps all its digits. Non-finite values have no JSON form and
/// become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// JSON string literal for `s` (quotes, backslashes and control
/// characters escaped).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON array of already-rendered JSON values.
pub fn json_list(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

/// Digest of every regular file under `dir` (paths and contents, in
/// sorted order): identifies the measured source when the checkout
/// carries no version-control metadata.
pub fn tree_digest(dir: &Path) -> u64 {
    let mut files = Vec::new();
    collect_files(dir, &mut files);
    files.sort();
    let mut acc = Vec::new();
    for f in files {
        acc.extend_from_slice(f.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(&f) {
            acc.extend_from_slice(&fnv64(&bytes).to_le_bytes());
        }
    }
    fnv64(&acc)
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => collect_files(&p, out),
            Ok(t) if t.is_file() => out.push(p),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.99), Some(99.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.99), Some(3.0));
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * b.abs().max(1.0)
    }

    #[test]
    fn beta_cdf_matches_closed_forms() {
        for x in [0.1, 0.37, 0.5, 0.9] {
            assert!(close(beta_cdf(x, 1.0, 1.0), x));
            // Beta(2, 2): 3x² - 2x³.
            assert!(close(beta_cdf(x, 2.0, 2.0), 3.0 * x * x - 2.0 * x * x * x));
        }
        for a in [1.5, 20.5, 1700.5] {
            assert!(close(beta_cdf(0.5, a, a), 0.5));
        }
        assert!(close(ln_gamma(5.0), 24f64.ln()));
        assert!(close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln()));
    }

    #[test]
    fn median_is_harrell_davis() {
        assert_eq!(median(&[]), None);
        assert!(close(median(&[7.0]).unwrap(), 7.0));
        assert!(close(median(&[2.0; 40]).unwrap(), 2.0));
        // Symmetric samples: the middle, whatever the count.
        assert!(close(median(&[4.0, 1.0, 3.0, 2.0]).unwrap(), 2.5));
        let xs: Vec<f64> = (1..=3001).map(f64::from).collect();
        assert!(close(median(&xs).unwrap(), 1501.0));
        // Three samples weigh 0.259 / 0.481 / 0.259 (Beta(2, 2) over
        // thirds), so an outlier moves the estimate but not far.
        let m = median(&[1.0, 2.0, 30.0]).unwrap();
        assert!(close(m, (7.0 + 13.0 * 2.0 + 7.0 * 30.0) / 27.0), "{m}");
        // Two clusters, 21 low and 19 high: the estimate sits inside the
        // low cluster's edge, not at either cluster's centre.
        let mut xs = vec![2.7; 21];
        xs.extend([3.7; 19]);
        let m = median(&xs).unwrap();
        assert!(m > 2.7 && m < 3.2, "{m}");
    }

    #[test]
    fn scrub_replaces_durations_only() {
        let s = "runtime 160.62198ms and 200.695µs; E16 took 1.5s, 12 vertices, x2";
        assert_eq!(
            scrub_durations(s),
            "runtime <dur> and <dur>; E16 took <dur>, 12 vertices, x2"
        );
        assert_eq!(scrub_durations("5 sessions"), "5 sessions");
        assert_eq!(
            scrub_durations("graph: 40 vertices, 135 edges; runtime 169.907329ms"),
            "graph: 40 vertices, 135 edges; runtime <dur>"
        );
        assert_eq!(
            scrub_durations("  20   1.5ms    2.25ms  16"),
            scrub_durations("  20    15.5ms 2.5ms    16")
        );
    }
}
