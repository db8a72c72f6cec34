//! `perfbench-probe` — the in-process half of the perfbench benchmark.
//!
//! `perfbench/run.py` drives the repository's release binaries (`suite`,
//! `dri-serve`) as child processes and calls this program for the parts
//! that need the crates' public APIs:
//!
//! ```text
//! perfbench-probe replay  --addr A --reference DIR --seconds S --seed N --server-pid P
//! perfbench-probe push    --addr A --token T --reference DIR --seconds S --seed N --server-pid P
//! perfbench-probe engine  --reference DIR
//! perfbench-probe service --addr A --reference DIR --scratch DIR
//! ```
//!
//! `replay` and `push` are the closed-loop clients of the `warm-replay`
//! and `push-fill` workloads; `engine` and `service` are the per-layer
//! probes of a traced run. Each prints one JSON object on stdout and
//! exits non-zero when it cannot run at all; correctness failures are
//! counted in the object's `failed` field instead.

mod campaign;
mod engine;
mod load;
mod out;
mod service;

use std::collections::HashMap;
use std::process::ExitCode;

/// `--key value` pairs after the subcommand.
pub struct Args(HashMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut map = HashMap::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            map.insert(name.to_owned(), value.clone());
        }
        Ok(Args(map))
    }

    /// A required string argument.
    pub fn str(&self, name: &str) -> Result<&str, String> {
        self.0
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{name}"))
    }

    /// A required numeric argument.
    pub fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let raw = self.str(name)?;
        raw.parse()
            .map_err(|_| format!("--{name}: `{raw}` is not a number"))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: perfbench-probe replay|push|engine|service --key value ...");
        return ExitCode::FAILURE;
    };
    let result = Args::parse(rest).and_then(|args| match command.as_str() {
        "replay" => load::replay(&args),
        "push" => load::push(&args),
        "engine" => engine::run(&args),
        "service" => service::run(&args),
        other => Err(format!("unknown subcommand `{other}`")),
    });
    match result {
        Ok(json) => {
            println!("{}", json.render());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench-probe {command}: {msg}");
            ExitCode::FAILURE
        }
    }
}
