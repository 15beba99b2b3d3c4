//! Shared command-line parsing for the `exp_*` experiment binaries.
//!
//! Every fleet-flavoured experiment historically carried its own copy of
//! the `--nodes/--threads/--duration/--telemetry/--mesh` parser; this
//! module is the one shared implementation. Parsing is `Result`-based — binaries call
//! [`CommonArgs::parse_or_exit`] which prints the error plus a usage line
//! and exits with status 2, the conventional "bad invocation" code,
//! instead of panicking with a backtrace at the user.
//!
//! ```
//! use picocube_bench::cli::CommonArgs;
//!
//! let args = CommonArgs::parse(["--nodes", "4,16", "--threads", "3"].into_iter().map(String::from))
//!     .unwrap();
//! assert_eq!(args.nodes, vec![4, 16]);
//! ```

use picocube_node::Parallelism;
use std::fmt;

/// The flags shared by the fleet/mesh experiment binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct CommonArgs {
    /// Fleet sizes from `--nodes N[,N...]`; empty when the flag was
    /// omitted (binaries substitute their own default sweep).
    pub nodes: Vec<usize>,
    /// Engine parallelism from `--threads T` (`T == 1` means serial, `0`
    /// is rejected; results are bit-identical either way).
    pub parallelism: Parallelism,
    /// Simulated span in seconds from `--duration S`; `None` when omitted
    /// (binaries substitute their own default). Big-fleet streaming smokes
    /// shorten this so a 100k–1M-node run finishes in CI time. At most
    /// `u64::MAX / 10^9` (about 584 years), the nanosecond clock's range.
    pub duration_s: Option<u64>,
    /// JSONL event-log path from `--telemetry PATH`.
    pub telemetry: Option<String>,
    /// Whether `--mesh` selected the wakeup-RX relay-mesh engine.
    pub mesh: bool,
}

impl Default for CommonArgs {
    fn default() -> Self {
        Self {
            nodes: Vec::new(),
            parallelism: Parallelism::Serial,
            duration_s: None,
            telemetry: None,
            mesh: false,
        }
    }
}

/// A malformed command line, reported as `error: <Display>` next to the
/// binary's usage string.
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// A flag that takes a value was last on the command line.
    MissingValue(&'static str),
    /// A flag's value failed to parse; carries the flag and the offending
    /// token.
    InvalidValue(&'static str, String),
    /// A count flag parsed but was zero — a fleet of zero nodes or an
    /// engine with zero threads is never what the caller meant, so the
    /// parser names the flag instead of silently "rounding up".
    ZeroValue(&'static str),
    /// A token no experiment binary understands.
    UnknownArg(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            CliError::InvalidValue(flag, got) => write!(f, "{flag}: invalid value {got:?}"),
            CliError::ZeroValue(flag) => write!(f, "{flag}: must be at least 1"),
            CliError::UnknownArg(arg) => write!(f, "unknown argument {arg:?}"),
        }
    }
}

impl std::error::Error for CliError {}

impl CommonArgs {
    /// Parses an argument iterator (without the program name).
    ///
    /// Accepts `--nodes N[,N...]` (positive integers), `--threads T`,
    /// `--duration S`, `--telemetry PATH` and `--mesh`, in any order;
    /// later occurrences override earlier ones.
    pub fn parse<I: Iterator<Item = String>>(mut argv: I) -> Result<Self, CliError> {
        let mut args = CommonArgs::default();
        while let Some(arg) = argv.next() {
            match arg.as_str() {
                "--nodes" => {
                    let list = argv.next().ok_or(CliError::MissingValue("--nodes"))?;
                    let nodes: Result<Vec<usize>, _> =
                        list.split(',').map(|n| n.trim().parse::<usize>()).collect();
                    args.nodes = match nodes {
                        Ok(nodes) if nodes.contains(&0) => {
                            return Err(CliError::ZeroValue("--nodes"))
                        }
                        Ok(nodes) if !nodes.is_empty() => nodes,
                        _ => return Err(CliError::InvalidValue("--nodes", list)),
                    };
                }
                "--threads" => {
                    let value = argv.next().ok_or(CliError::MissingValue("--threads"))?;
                    let t: usize = value
                        .trim()
                        .parse()
                        .map_err(|_| CliError::InvalidValue("--threads", value))?;
                    args.parallelism = match t {
                        0 => return Err(CliError::ZeroValue("--threads")),
                        1 => Parallelism::Serial,
                        t => Parallelism::Threads(t),
                    };
                }
                "--duration" => {
                    let value = argv.next().ok_or(CliError::MissingValue("--duration"))?;
                    let s = match value.trim().parse::<u64>() {
                        // The engines count simulated time in u64
                        // nanoseconds.
                        Ok(s) if s.checked_mul(1_000_000_000).is_some() => s,
                        _ => return Err(CliError::InvalidValue("--duration", value)),
                    };
                    if s == 0 {
                        return Err(CliError::ZeroValue("--duration"));
                    }
                    args.duration_s = Some(s);
                }
                "--telemetry" => {
                    args.telemetry =
                        Some(argv.next().ok_or(CliError::MissingValue("--telemetry"))?);
                }
                "--mesh" => args.mesh = true,
                other => return Err(CliError::UnknownArg(other.to_string())),
            }
        }
        Ok(args)
    }

    /// Parses the process command line, printing the error and `usage`
    /// to stderr and exiting with status 2 on a malformed invocation.
    pub fn parse_or_exit(usage: &str) -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("usage: {usage}");
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CommonArgs, CliError> {
        CommonArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_when_empty() {
        let args = parse(&[]).unwrap();
        assert_eq!(args, CommonArgs::default());
        assert_eq!(args.parallelism, Parallelism::Serial);
    }

    #[test]
    fn parses_every_flag() {
        let args = parse(&[
            "--nodes",
            "4, 16,64",
            "--threads",
            "3",
            "--telemetry",
            "out.jsonl",
            "--mesh",
        ])
        .unwrap();
        assert_eq!(args.nodes, vec![4, 16, 64]);
        assert_eq!(args.parallelism, Parallelism::Threads(3));
        assert_eq!(args.telemetry.as_deref(), Some("out.jsonl"));
        assert!(args.mesh);
    }

    #[test]
    fn one_thread_stays_serial() {
        let args = parse(&["--threads", "1"]).unwrap();
        assert_eq!(args.parallelism, Parallelism::Serial);
    }

    #[test]
    fn parses_duration() {
        let args = parse(&["--duration", "6"]).unwrap();
        assert_eq!(args.duration_s, Some(6));
        assert_eq!(parse(&[]).unwrap().duration_s, None);
    }

    #[test]
    fn zero_counts_are_rejected_by_flag_name() {
        assert_eq!(
            parse(&["--nodes", "0"]),
            Err(CliError::ZeroValue("--nodes"))
        );
        assert_eq!(
            parse(&["--nodes", "4,0,16"]),
            Err(CliError::ZeroValue("--nodes"))
        );
        assert_eq!(
            parse(&["--threads", "0"]),
            Err(CliError::ZeroValue("--threads"))
        );
        assert_eq!(
            parse(&["--duration", "0"]),
            Err(CliError::ZeroValue("--duration"))
        );
        assert_eq!(
            CliError::ZeroValue("--threads").to_string(),
            "--threads: must be at least 1"
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert_eq!(parse(&["--nodes"]), Err(CliError::MissingValue("--nodes")));
        assert_eq!(
            parse(&["--nodes", "4,x"]),
            Err(CliError::InvalidValue("--nodes", "4,x".into()))
        );
        assert_eq!(
            parse(&["--threads", "many"]),
            Err(CliError::InvalidValue("--threads", "many".into()))
        );

        assert_eq!(
            parse(&["--bogus"]),
            Err(CliError::UnknownArg("--bogus".into()))
        );
    }

    #[test]
    fn duration_past_the_clock_range_is_rejected() {
        // Simulated time counts u64 nanoseconds: a longer span is a typed
        // error here, not an overflow inside the engine.
        assert_eq!(
            parse(&["--duration", "18446744073709551615"]),
            Err(CliError::InvalidValue(
                "--duration",
                "18446744073709551615".into()
            ))
        );
        assert_eq!(
            parse(&["--duration", "18446744073"]).map(|a| a.duration_s),
            Ok(Some(18_446_744_073))
        );
    }
}
