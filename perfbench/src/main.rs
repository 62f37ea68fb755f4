//! `perfbench`: one repetition of one workload of the DSN workspace
//! benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed N [--trace 0|1] [--quick]
//!           [--wrong-pin] [--print-digests]
//! ```
//!
//! Sets the workload up, runs it once at `--seed`, checks every output
//! (against the pinned digests too when the seed is the reference seed)
//! and prints one JSON record on standard output: times, host-speed
//! probe slices, peak RSS, checks, per-layer values and spans (traced), modelled
//! outputs, digests and the resolved spec. `perfbench/run.py` builds this
//! binary, starts it once per repetition, so that heap state and peak RSS
//! (`VmHWM`) belong to that repetition alone, and aggregates the records
//! into the benchmark's result.

mod check;
mod probe;
mod trace;
mod workloads;

use check::{Checker, Pins};
use std::fmt::Write as _;
use trace::{self_secs_by_layer, spans_json, Tracer};
use workloads::{run_rep, Ctx, Profile, Workload, REFERENCE_SEED};

const USAGE: &str =
    "usage: perfbench --workload <fig10-sat-256|fig10-scale-2046|flows-256|graph-opt-1020> \
--seed N [--trace 0|1] [--quick] [--wrong-pin] [--print-digests]";

struct Args {
    workload: Workload,
    seed: u64,
    trace: bool,
    profile: Profile,
    wrong_pin: bool,
    print_digests: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed) = (None, None);
    let mut args = Args {
        workload: Workload::Fig10Sat256,
        seed: REFERENCE_SEED,
        trace: false,
        profile: Profile::Full,
        wrong_pin: false,
        print_digests: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--quick" => args.profile = Profile::Quick,
            "--wrong-pin" => args.wrong_pin = true,
            "--print-digests" => args.print_digests = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    args.seed = seed.ok_or("--seed is required")?;
    Ok(args)
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// A JSON number with every digit Rust keeps (shortest round-trip form).
fn json_num(x: f64) -> String {
    assert!(x.is_finite(), "recorded values are finite");
    format!("{x}")
}

/// `{"key": number, ...}`.
fn json_map<'a>(entries: impl Iterator<Item = (&'a str, f64)>) -> String {
    let body: Vec<String> = entries
        .map(|(k, v)| format!("{}: {}", json_str(k), json_num(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Worker threads for the parallel analysis kernels: `min(2, nproc)`.
fn analysis_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(record) => println!("{record}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Run one repetition and return its record.
fn run(args: &Args) -> Result<String, String> {
    let pins = Pins::parse(include_str!("../pins.txt"))?;
    let mut check = Checker::new(
        pins,
        args.profile.name(),
        args.workload.name(),
        u64::from(args.wrong_pin),
        args.print_digests,
    );
    let mut tr = Tracer::new(args.trace);
    let threads = analysis_threads();
    // The host-speed probe runs through untraced repetitions only: the
    // traced run's spans time the layers unscaled.
    let probing = !args.trace;
    if probing {
        probe::start();
    }
    let out = run_rep(
        args.workload,
        args.seed,
        &mut Ctx {
            tr: &mut tr,
            check: &mut check,
            pinned: args.seed == REFERENCE_SEED,
            profile: args.profile,
            threads,
        },
    );
    if probing {
        probe::stop();
    }
    let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?
        - if probing { probe::TABLE_MB } else { 0.0 };
    let (slices, slice_s) = probe::slices();

    let failures: Vec<String> = check.failures.iter().map(|f| json_str(f)).collect();
    let outputs: Vec<String> = out
        .outputs
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"value\": {}}}",
                json_str(name),
                json_str(unit),
                json_num(*v)
            )
        })
        .collect();
    let digests: Vec<String> = out
        .digests
        .iter()
        .map(|(op, d)| format!("[{}, \"{d:016x}\"]", json_str(op)))
        .collect();
    let (self_s, spans) = if args.trace {
        let by_layer = self_secs_by_layer(tr.spans());
        (
            json_map(by_layer.iter().map(|(k, v)| (k.as_str(), *v))),
            spans_json(tr.spans()),
        )
    } else {
        ("{}".to_string(), "null".to_string())
    };
    Ok(format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"profile\": \"{}\", \"trace\": {}, \
         \"threads\": {threads}, \"setup_s\": {}, \"run_s\": {}, \"probe_slices\": {slices}, \"probe_slice_s\": {}, \
         \"peak_rss_mb\": {}, \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \
         \"layer\": {}, \
         \"self_s\": {self_s}, \"outputs\": [{}], \"digests\": [{}], \"spec\": {}, \
         \"spans\": {}}}",
        args.workload.name(),
        args.seed,
        args.profile.name(),
        u8::from(args.trace),
        json_num(out.setup_s),
        json_num(out.run_s),
        json_num(slice_s),
        json_num(rss),
        check.attempted,
        check.failed,
        failures.join(", "),
        json_map(out.layer.iter().map(|(k, v)| (*k, *v))),
        outputs.join(", "),
        digests.join(", "),
        out.spec,
        spans.replace('\n', "")
    ))
}
