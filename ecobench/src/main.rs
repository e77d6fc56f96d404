//! ecobench — the end-to-end and per-layer benchmark of the eco workspace.
//!
//! ```text
//! ecobench --workload <contest20|serve-hot|batch-dup> --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the workload's inputs from the seed, sets up, measures for
//! `S` seconds, checks every output, and prints one JSON result line as
//! the last line of standard output (progress goes to standard error).
//! `--trace 0` reports the end-to-end metrics; `--trace 1` makes a
//! separate traced run that reports the per-layer metrics. See README.md
//! for the workloads and metrics.

mod batch_dup;
mod contest;
mod engine;
mod gen;
mod oracle;
mod report;
mod serve_hot;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::report::Report;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Scratch space for one run, relative to the working directory (so that
/// unix socket paths stay short) and removed when the run ends.
const WORK_ROOT: &str = ".bench_work";

const USAGE: &str =
    "usage: ecobench --workload <contest20|serve-hot|batch-dup> --seed N --seconds S --trace 0|1";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Contest20,
    ServeHot,
    BatchDup,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "contest20" => Some(Workload::Contest20),
            "serve-hot" => Some(Workload::ServeHot),
            "batch-dup" => Some(Workload::BatchDup),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Contest20 => "contest20",
            Workload::ServeHot => "serve-hot",
            Workload::BatchDup => "batch-dup",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.clamp(1, 60)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace: expected 0 or 1, got `{value}`")),
                    })
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(0),
            seconds: seconds.unwrap_or(10),
            trace: trace.unwrap_or(false),
        })
    }
}

/// The run's scratch directory; removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: Workload) -> std::io::Result<WorkDir> {
        let dir = Path::new(WORK_ROOT).join(format!("{}-{}", workload.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the root behind only while another run still uses it.
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ecobench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::create(args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("ecobench: cannot create {WORK_ROOT}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome: Result<Report, String> = match args.workload {
        Workload::Contest20 => Ok(contest::run(&args)),
        Workload::ServeHot => serve_hot::run(&args, &work.0),
        Workload::BatchDup => batch_dup::run(&args, &work.0),
    };
    drop(work);
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ecobench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for e in &report.check_errors {
        eprintln!("ecobench: check failed: {e}");
    }
    println!("{}", report.to_json(args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse("--workload serve-hot --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::ServeHot);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12, true));
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload contest20 --trace 2").is_err());
        assert!(parse("--seed 1").is_err());
    }
}
