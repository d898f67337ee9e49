//! The benchmark harness: one workload per run, end-to-end metrics with
//! tracing off, per-layer metrics with tracing on.
//!
//! ```text
//! perfbench <build|stream|serve> --seed N --seconds S --trace 0|1
//!           --work DIR [--kiff PATH] [--spans FILE]
//! ```
//!
//! Prints one JSON line describing the inputs and the machine, then the
//! result line `{"correct", "attempted", "failed", "metrics"}`.

mod build;
mod layers;
mod serve;
mod stream;
mod trace;
mod util;

use std::path::PathBuf;

use trace::Tracer;
use util::Report;

/// Worker threads of every build and of the sharded engine.
pub const THREADS: usize = 2;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for the run's files (data dirs, inputs).
    pub work: PathBuf,
    /// The `kiff` binary the serve workload starts.
    pub kiff: PathBuf,
    pub spans: Option<PathBuf>,
}

fn parse() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let workload = argv.next().ok_or("missing workload")?;
    let mut args = Args {
        workload,
        seed: 1,
        seconds: 10.0,
        trace: false,
        work: PathBuf::from("."),
        kiff: PathBuf::from("kiff"),
        spans: None,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value == "1",
            "--work" => args.work = PathBuf::from(&value),
            "--kiff" => args.kiff = PathBuf::from(&value),
            "--spans" => args.spans = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(&args.work).expect("create work directory");
    let mut tracer = Tracer::new(args.trace);
    let mut report = Report::new();
    match args.workload.as_str() {
        "build" => build::run(&args, &mut tracer, &mut report),
        "stream" => stream::run(&args, &mut tracer, &mut report),
        "serve" => serve::run(&args, &mut tracer, &mut report),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    }
    if args.trace {
        report.trace_summary(&tracer, args.spans.as_deref());
    }
    for note in &report.notes {
        eprintln!("perfbench: {note}");
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let inputs: Vec<String> = report
        .inputs
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"inputs\": {{{}}}, \
         \"machine\": {{\"nproc\": {nproc}, \"sync_data_ms\": {:?}, \
         \"sync_data_disk\": \"the benchmark checkout's filesystem\"}}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        inputs.join(", "),
        util::sync_data_ms(&args.work),
    );
    println!("{}", report.result_json());
}
