//! The benchmark command: runs one workload and prints, as its last line,
//! the result object `BENCHMARK.json` describes.
//!
//! ```text
//! wagg-perfbench --workload <aggregate_mst|cold_sharded|churn_service>
//!     --seed <n> --seconds <s> --trace <0|1> [--commit <id>] [--trace-dir <dir>]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use wagg_perfbench::{run, RunConfig, Scale, Workload, END_TO_END, PER_LAYER};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut commit = String::from("unknown");
    let mut trace_dir = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage(&format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--commit" => commit = value.clone(),
            "--trace-dir" => trace_dir = Some(PathBuf::from(value)),
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };

    let features: Vec<&str> = [
        ("parallel", cfg!(feature = "parallel")),
        ("obs", cfg!(feature = "obs")),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"header\": {{\"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"nproc\": {nproc}, \"features\": {features:?}, \"commit\": \"{commit}\"}}}}",
        workload.name()
    );

    let config = RunConfig {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::FULL,
        trace_dir,
    };
    let mut outcome = run(&config);
    for problem in &outcome.problems {
        eprintln!("check failed: {problem}");
    }
    match peak_rss_mb() {
        Some(mb) => outcome.set("peak_rss_mb", mb),
        None => outcome.fail("cannot read VmHWM from /proc/self/status".into()),
    }
    println!(
        "{}",
        outcome.to_json(if trace { PER_LAYER } else { END_TO_END })
    );
    ExitCode::SUCCESS
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("wagg-perfbench: {problem}");
    eprintln!(
        "usage: wagg-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--commit <id>] [--trace-dir <dir>]",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}
