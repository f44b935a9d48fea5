//! The command line both harnesses share.

use crate::gen::Workload;
use std::path::PathBuf;

/// `--bin PATH --workload W --seed N --seconds S [--git-sha SHA]`, plus
/// whatever harness-specific flags [`RunArgs::required`] reads.
pub struct RunArgs {
    pub bin: PathBuf,
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub git_sha: String,
    argv: Vec<String>,
}

fn flag(argv: &[String], name: &str) -> Option<String> {
    argv.iter()
        .position(|a| a == name)
        .and_then(|i| argv.get(i + 1).cloned())
}

fn required(argv: &[String], name: &str) -> Result<String, String> {
    flag(argv, name).ok_or(format!("missing {name}"))
}

impl RunArgs {
    pub fn from_env() -> Result<RunArgs, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let seconds: f64 = required(&argv, "--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(RunArgs {
            bin: PathBuf::from(required(&argv, "--bin")?),
            workload: Workload::parse(&required(&argv, "--workload")?)?,
            seed: required(&argv, "--seed")?
                .parse()
                .map_err(|e| format!("--seed: {e}"))?,
            seconds,
            git_sha: flag(&argv, "--git-sha").unwrap_or_else(|| "unknown".into()),
            argv,
        })
    }

    /// The value after `name`, which must be given.
    pub fn required(&self, name: &str) -> Result<String, String> {
        required(&self.argv, name)
    }
}
