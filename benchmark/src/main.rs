//! `ledger`: the repo's one benchmark. See `benchmark/README.md`.
//!
//! ```text
//! ledger --workload W --seed N --seconds S --trace 0|1   one run, result line last
//! ledger all    [--seed N] [--seconds S] [--smoke]       every workload, both modes
//! ledger repeat [--seed N] [--seconds S] [--smoke]       two full sets and their spread
//! ledger diff A.json B.json                              compare two result files
//! ```

mod drive;
mod probes;
mod prom;
mod report;
mod run;
mod server;
mod spans;
mod spec;
mod stats;
mod workload;

use run::RunRecord;
use server::Cli;
use spec::Spec;
use std::path::Path;
use std::process::ExitCode;
use workload::Kind;

const OUT: &str = "benchmark/out";
/// `--smoke`: two seconds of load per run (a 2,000-frame `mixed_rw` script).
const SMOKE_SECONDS: u64 = 2;

struct Options {
    command: String,
    paths: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut o = Options {
        command: String::new(),
        paths: Vec::new(),
        workload: None,
        seed: 11,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => o.workload = Some(value("--workload")?),
            "--seed" => {
                o.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let s: u64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a whole number")?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be 1 to 60".into());
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => o.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            word if o.command.is_empty() => o.command = word.to_string(),
            word => o.paths.push(word.to_string()),
        }
    }
    if o.command.is_empty() {
        o.command = if o.workload.is_some() { "run" } else { "all" }.to_string();
    }
    Ok(o)
}

fn run_one(
    cli: &Cli,
    spec: &Spec,
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<RunRecord, String> {
    let record = if trace {
        run::per_layer(cli, kind, seed, seconds)?
    } else {
        run::end_to_end(cli, kind, seed, seconds)?
    };
    report::print_run(spec, &record);
    Ok(record)
}

/// Every workload, untraced then traced.
fn full_set(cli: &Cli, spec: &Spec, seed: u64, seconds: u64) -> Result<Vec<RunRecord>, String> {
    let mut runs = Vec::new();
    for kind in workload::ALL {
        for trace in [false, true] {
            runs.push(run_one(cli, spec, kind, seed, seconds, trace)?);
        }
    }
    Ok(runs)
}

fn main_inner() -> Result<ExitCode, String> {
    let o = parse_args()?;
    let spec = Spec::load()?;
    let seconds = o.seconds.unwrap_or(if o.smoke {
        SMOKE_SECONDS
    } else {
        spec.run_seconds
    });
    let failed_code = |ok: bool| {
        if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        }
    };
    match o.command.as_str() {
        "run" => {
            let name = o.workload.as_deref().ok_or("run needs --workload")?;
            let kind = Kind::parse(name).ok_or(format!("unknown workload {name:?}"))?;
            let cli = Cli::locate()?;
            let record = run_one(&cli, &spec, kind, o.seed, seconds, o.trace)?;
            // The contract's result line is the last line of stdout.
            println!("{}", report::contract_line(&spec, &record)?);
            Ok(ExitCode::SUCCESS)
        }
        "all" => {
            let cli = Cli::locate()?;
            let runs = full_set(&cli, &spec, o.seed, seconds)?;
            let ok = runs.iter().all(RunRecord::correct);
            let path = Path::new(OUT).join("results.json");
            report::write_results(&path, o.seed, &[runs])?;
            println!("\nwrote {}", path.display());
            Ok(failed_code(ok))
        }
        "repeat" => {
            let cli = Cli::locate()?;
            let first = full_set(&cli, &spec, o.seed, seconds)?;
            let second = full_set(&cli, &spec, o.seed, seconds)?;
            let ok = first.iter().chain(&second).all(RunRecord::correct);
            let out = Path::new(OUT);
            report::write_results(&out.join("set1.json"), o.seed, std::slice::from_ref(&first))?;
            report::write_results(
                &out.join("set2.json"),
                o.seed,
                std::slice::from_ref(&second),
            )?;
            report::write_results(&out.join("results.json"), o.seed, &[first, second])?;
            println!("\nset 2 against set 1 (same code, same seed):");
            let agree = report::diff(&spec, &out.join("set1.json"), &out.join("set2.json"))?;
            println!(
                "\nwrote {}/results.json (both sets), set1.json, set2.json",
                out.display()
            );
            Ok(failed_code(ok && agree))
        }
        "diff" => match o.paths.as_slice() {
            [a, b] => Ok(failed_code(report::diff(
                &spec,
                Path::new(a),
                Path::new(b),
            )?)),
            _ => Err("diff takes two result files".into()),
        },
        other => Err(format!(
            "unknown command {other:?} (run | all | repeat | diff)"
        )),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}
