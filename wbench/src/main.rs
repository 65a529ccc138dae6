//! `wbench`: the repository's benchmark. One live boutique, six workloads,
//! measured end to end and layer by layer from outside the crates. See
//! README.md for what each number means and `../BENCHMARK.json` for the
//! contract later changes are held to.

mod e2e;
mod layers;
mod loadgen;
mod probes;
mod procstat;
mod report;
mod workloads;

use std::process::ExitCode;

use report::{Metric, Report};
use workloads::{Workload, WORKLOADS};

const USAGE: &str = "usage: wbench [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
       wbench compare BASE.json[,BASE2.json...] CHANGE.json[,...]

Without --workload every workload runs; without --trace both passes run:
0 is the end-to-end pass, 1 the traced per-layer pass.";

/// What one workload and pass produced.
#[derive(Default)]
pub struct PassOutcome {
    pub metrics: Vec<Metric>,
    /// Every request the pass sent, warm-ups included.
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// No request failed and every reply matched the cart model.
    pub correct: bool,
}

impl PassOutcome {
    pub fn count(&mut self, phase: &loadgen::PhaseSummary) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&phase.first_failure);
        }
    }
}

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: u32,
    passes: Vec<bool>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: WORKLOADS.iter().collect(),
        seed: 1,
        seconds: 15,
        passes: vec![false, true],
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u32>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let workload =
                    workloads::find(value).ok_or_else(|| format!("unknown workload {value}"))?;
                parsed.workloads = vec![workload];
            }
            "--seed" => parsed.seed = u64::from(number()?),
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => parsed.passes = vec![number()? != 0],
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

fn run(args: &Args) -> Result<(), String> {
    let mut report = Report::new(args.seed, args.seconds);
    for workload in &args.workloads {
        for &traced in &args.passes {
            let (pass, outcome) = if traced {
                ("layers", layers::run(workload, args.seed, args.seconds)?)
            } else {
                ("e2e", e2e::run(workload, args.seed, args.seconds)?)
            };
            for m in &outcome.metrics {
                println!("{} {} {} {}", workload.name, m.name, m.value, m.unit);
                report.rows.push((workload.name, pass, m.clone()));
            }
            if let Some(why) = &outcome.first_failure {
                eprintln!("{} {pass}: first failure: {why}", workload.name);
            }
            // Written after every pass, so an interrupted run keeps what
            // it measured.
            let path = report::artifact("result.json").map_err(|e| e.to_string())?;
            std::fs::write(&path, report.to_json().to_string_compact())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!(
                "{}",
                report::driver_line(
                    outcome.correct,
                    outcome.attempted,
                    outcome.failed,
                    &outcome.metrics
                )
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    // A proclet of the multiprocess placement is this same binary: it
    // serves its components here and never returns.
    weaver_runtime::proclet::maybe_proclet(&boutique::registry());

    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        // A regression is an answer, not an error: exit 1.
        Some("compare") if args.len() == 3 => report::compare(&args[1], &args[2]),
        Some("compare") | Some("--help") | Some("-h") => Err(USAGE.to_string()),
        // So is an incorrect reply: the summary line says `correct: false`.
        _ => parse_args(&args).and_then(|a| run(&a)).map(|()| true),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("wbench: {why}");
            ExitCode::from(2)
        }
    }
}
