//! What a result was measured on, and the memory it took.

use crate::stats::Digest;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The host and code a result was measured on. Results whose
/// fingerprints differ are never compared.
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    /// `git rev-parse HEAD`, or `"none"` outside a git checkout.
    pub git_rev: String,
    /// Digest of the program's sources, which identifies the code where
    /// there is no git history.
    pub source: String,
    pub seed: u64,
}

impl Fingerprint {
    pub fn of_this_host(seed: u64) -> Fingerprint {
        Fingerprint {
            nproc: nproc(),
            cpu_model: cpu_model(),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            git_rev: git_rev().unwrap_or_else(|| "none".into()),
            source: source_digest(Path::new(".")),
            seed,
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"git_rev\":{},\"source\":{},\"seed\":{}}}",
            self.nproc,
            json_str(&self.cpu_model),
            json_str(&self.rustc),
            json_str(&self.git_rev),
            json_str(&self.source),
            self.seed
        )
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// First line of a command's standard output, when it succeeds.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status
        .success()
        .then(|| text.lines().next().unwrap_or("").trim().to_string())
}

/// The commit checked out in the working directory. The search for a
/// repository stops at the working directory, so a checkout nested in
/// another repository does not report that repository's commit.
fn git_rev() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let parent = cwd.parent()?;
    let out = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", parent)
        .output()
        .ok()?;
    let rev = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !rev.is_empty()).then_some(rev)
}

/// Digest of the program's source tree under `root`: the root manifest
/// and lock file, and every file under `src`, `crates` and
/// `third_party`, in path order. Build output directories are skipped.
pub fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "third_party"] {
        collect(&root.join(top), &mut files);
    }
    files.sort();
    let mut d = Digest::new();
    for f in &files {
        d.part(f.as_os_str().as_encoded_bytes());
        d.part(&std::fs::read(f).unwrap_or_default());
    }
    d.hex()
}

fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(rd) = std::fs::read_dir(path) {
        for e in rd.flatten() {
            if e.file_name() != "target" {
                collect(&e.path(), out);
            }
        }
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_escape_quotes_and_controls() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn source_digest_changes_with_any_source_byte() {
        let root = std::env::temp_dir().join(format!("perfbench-src-{}", std::process::id()));
        std::fs::create_dir_all(root.join("crates/a/target")).unwrap();
        std::fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
        std::fs::write(root.join("crates/a/lib.rs"), "fn a() {}\n").unwrap();
        let before = source_digest(&root);
        std::fs::write(root.join("crates/a/target/out"), "build output").unwrap();
        assert_eq!(source_digest(&root), before, "build output is not source");
        std::fs::write(root.join("crates/a/lib.rs"), "fn b() {}\n").unwrap();
        assert_ne!(source_digest(&root), before);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
