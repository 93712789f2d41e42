//! The repository's benchmark: three workloads over the PVM workspace,
//! each checked for correctness, each reporting every end-to-end metric
//! or, with `--trace 1`, every per-layer metric of `BENCHMARK.json`. See
//! `README.md` beside this crate for what each workload and metric is
//! for.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload point_sql --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0
//! only when every operation succeeded and every check passed.

mod bulk_threaded;
mod gen;
mod layers;
mod point_sql;
mod serve_stream;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use stats::Report;

/// Command-line arguments; every one is required.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(num()?),
                "--seconds" => seconds = Some(num()?),
                "--trace" => {
                    trace = Some(match num()? {
                        0 => false,
                        1 => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Where a traced run writes its spans.
pub fn trace_path(args: &Args) -> PathBuf {
    PathBuf::from(format!(
        "perfbench/traces/{}-seed{}.jsonl",
        args.workload, args.seed
    ))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload point_sql|bulk_threaded|serve_stream \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let run = match args.workload.as_str() {
        "point_sql" => point_sql::run(&args, &mut report),
        "bulk_threaded" => bulk_threaded::run(&args, &mut report),
        "serve_stream" => serve_stream::run(&args, &mut report),
        other => Err(format!("unknown workload '{other}'")),
    };
    let manifest: &[(&str, &str)] = if args.trace {
        &stats::PER_LAYER
    } else {
        &stats::END_TO_END
    };
    if let Err(e) = run.and_then(|()| report.validate(manifest)) {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::from(1);
    }
    for e in report.errors() {
        eprintln!("perfbench: correctness failure: {e}");
    }
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments() {
        let a = parse("--workload point_sql --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("point_sql", 3, 10, true)
        );
        assert!(parse("--workload x --seed 3 --seconds 10").is_err());
        assert!(parse("--workload x --seed 3 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload x --seed 3 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload x --seed -1 --seconds 1 --trace 0").is_err());
    }
}
