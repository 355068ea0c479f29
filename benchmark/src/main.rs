//! The repo benchmark: one command that prints every metric by name with
//! its unit, checks that the program's outputs are correct, and exits
//! non-zero when a check fails. See `README.md` beside this package and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! giant-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out FILE] [--smoke]
//! giant-benchmark --seed N [--seconds S] [--trace] [--out FILE] [--smoke]   # all four
//! giant-benchmark compare A.json B.json
//! ```

mod fixture;
mod load;
mod mix;
mod report;
mod span;
mod spec;
mod stats;
mod workloads;

use giant::ontology::json::{self, Json};
use std::process::{Command, ExitCode};
use workloads::{Cx, Outcome, WORKLOADS};

/// Seconds one run measures when `--seconds` is not given (the value in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            "--out" => args.out = Some(value("a file")?),
            "--smoke" => args.smoke = true,
            // `--trace 0|1` for the driver; a bare `--trace` means 1.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn seconds(args: &Args) -> f64 {
    args.seconds
        .unwrap_or(if args.smoke { 1.0 } else { DEFAULT_SECONDS })
}

fn print_table(name: &str, outcome: &Outcome, trace: bool) {
    println!(
        "== {name} ({}) — attempted {}, failed {}",
        if trace {
            "traced: per-layer metrics"
        } else {
            "plain: end-to-end metrics"
        },
        outcome.attempted,
        outcome.failed
    );
    for spec in report::contract(trace) {
        let m = outcome.metrics.iter().find(|m| m.name == spec.name);
        let value = m.map_or(0.0, |m| m.value);
        let detail = match m.and_then(|m| m.summary) {
            Some(s) => {
                let top = s
                    .top
                    .map(|(p, v)| format!(" p{p}={v:.3}"))
                    .unwrap_or_default();
                format!("  [n={} q1={:.3} q3={:.3}{top}]", s.n, s.q1, s.q3)
            }
            None => String::new(),
        };
        println!("{:<40}{:>16.4} {:<6}{detail}", spec.name, value, spec.unit);
    }
    for (what, held) in &outcome.checks {
        println!("check {}: {what}", if *held { "ok    " } else { "FAILED" });
    }
}

/// Runs one workload in this process and prints its result line last.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let names = WORKLOADS.map(|w| w.0);
    let (_, run) = WORKLOADS
        .iter()
        .find(|w| w.0 == name)
        .ok_or_else(|| format!("unknown workload {name:?}; one of {names:?}"))?;
    let scratch = fixture::Scratch::new(name).map_err(|e| format!("scratch dir: {e}"))?;
    let mut cx = Cx {
        seed: args.seed,
        seconds: seconds(args),
        smoke: args.smoke,
        trace: args.trace,
        rec: span::Recorder::new(args.trace),
        scratch,
    };
    let load = report::load_average();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if load > 0.5 * nproc as f64 {
        eprintln!(
            "warning: load average {load:.2} exceeds half of {nproc} processors; expect noise"
        );
    }
    let mut outcome = run(&mut cx);
    outcome.put("peak_rss_mib", report::peak_rss_mib());
    print_table(name, &outcome, args.trace);
    if args.trace {
        let path = fixture::out_dir().join(format!("trace_{name}.json"));
        let doc = json::render(&cx.rec.to_json(name)).map_err(|e| e.to_string())?;
        std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace written to {}", path.display());
    }
    if let Some(out) = &args.out {
        let doc = report::document(
            report::header(args.seed, cx.seconds, args.smoke),
            vec![report::workload_json(name, &outcome, args.trace)],
        );
        let doc = json::render(&doc).map_err(|e| e.to_string())?;
        std::fs::write(out, doc).map_err(|e| format!("{out}: {e}"))?;
    }
    let correct = outcome.correct();
    if correct {
        println!("{}", report::result_line(&outcome, args.trace));
    }
    Ok(correct)
}

/// Runs every workload, each in a child process of its own (peak memory
/// and set-up time are per process), and merges their reports.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let scratch = fixture::Scratch::new("all").map_err(|e| format!("scratch dir: {e}"))?;
    let mut merged = Vec::new();
    let mut all_correct = true;
    for (name, _) in WORKLOADS {
        let part = scratch.path().join(format!("{name}.json"));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &seconds(args).to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&part);
        if args.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd.status().map_err(|e| format!("{name}: {e}"))?;
        all_correct &= status.success();
        if let Ok(text) = std::fs::read_to_string(&part) {
            let doc = json::parse(&text).map_err(|e| format!("{name}: {e}"))?;
            if let Some(w) = doc.get("workloads").and_then(Json::as_arr) {
                merged.extend(w.iter().cloned());
            }
        }
    }
    if let Some(out) = &args.out {
        let doc = report::document(report::header(args.seed, seconds(args), args.smoke), merged);
        let doc = json::render(&doc).map_err(|e| e.to_string())?;
        std::fs::write(out, doc).map_err(|e| format!("{out}: {e}"))?;
        println!("report written to {out}");
    }
    Ok(all_correct)
}

fn compare(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("usage: compare A.json B.json".into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (table, regressed) = report::compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(regressed == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().map(String::as_str) == Some("compare") {
        compare(&argv[1..])
    } else {
        parse_args(&argv).and_then(|args| match args.workload.clone() {
            Some(name) => run_one(&name, &args),
            None => run_all(&args),
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: a check failed; the run is invalid");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
