//! Output: the human-readable metric table, the run record and the final
//! JSON result line (hand-written JSON, no dependencies).

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use crate::stats;

/// One reported metric: its samples (one per pass, or per set-up repeat)
/// and the value that is reported (the median unless stated otherwise).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
    pub tail: Option<(f64, f64)>,
}

impl Metric {
    /// The median of `samples`, with the highest percentile that leaves ten
    /// samples beyond it.
    pub fn median(name: &'static str, unit: &'static str, samples: &[f64]) -> Self {
        let tail = stats::tail_percentile(samples.len())
            .and_then(|p| stats::percentile(samples, p).map(|v| (p, v)));
        Self {
            name,
            unit,
            value: stats::median(samples).unwrap_or(0.0),
            samples: samples.len(),
            tail,
        }
    }

    /// A single value (a ratio of run totals, a peak, a constant setting).
    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self {
            name,
            unit,
            value,
            samples: 1,
            tail: None,
        }
    }
}

/// Formats a number as JSON, with every digit Rust's shortest round-trip
/// formatting gives; non-finite values become `null`.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One table row per metric: median, tail percentile and sample count.
pub fn table(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let tail = m
            .tail
            .map_or_else(|| "-".to_string(), |(p, v)| format!("p{p}={v:.6}"));
        let _ = writeln!(
            out,
            "  {:<32} {:>16.6} {:<6} {:<22} n={}",
            m.name, m.value, m.unit, tail, m.samples
        );
    }
    out
}

/// The final result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// Peak resident set size of this process in MB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The commit checked out at `root`, read from `.git` without running git;
/// `None` outside a git repository.
pub fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// FNV-1a digest of the workspace sources the benchmark builds
/// (`Cargo.toml`, `Cargo.lock` and every file under `crates/`), so two runs
/// of a checkout without `.git` can still be matched to the same code.
pub fn source_digest(root: &Path) -> Option<String> {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, files)?;
            } else {
                files.push(path);
            }
        }
        Ok(())
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files).ok()?;
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let rel = file.strip_prefix(root).unwrap_or(file);
        let bytes = fs::read(file).ok()?;
        for b in rel.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    Some(format!("{hash:016x}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_required_keys() {
        let metrics = [
            Metric::median("alg2_s", "s", &[0.2, 0.1, 0.3]),
            Metric::single("ok_share", "ratio", 0.75),
        ];
        let line = result_line(true, 4, 1, &metrics);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":4,\"failed\":1,\"metrics\":{\
             \"alg2_s\":{\"value\":0.2,\"unit\":\"s\"},\
             \"ok_share\":{\"value\":0.75,\"unit\":\"ratio\"}}}"
        );
    }

    #[test]
    fn metric_reports_tail_only_with_enough_samples() {
        let few = Metric::median("x", "s", &[1.0; 50]);
        assert_eq!((few.samples, few.tail), (50, None));
        let many: Vec<f64> = (0..200).map(f64::from).collect();
        let m = Metric::median("x", "s", &many);
        assert_eq!(m.tail.map(|t| t.0), Some(90.0));
        assert_eq!(m.value, 99.5);
    }

    #[test]
    fn json_helpers_escape_and_guard() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(1.5e-7), "0.00000015");
    }
}
