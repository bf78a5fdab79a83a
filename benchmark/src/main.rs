//! The repository's regression benchmark. One invocation runs one
//! workload once:
//!
//! ```text
//! alvc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! and prints, as the last line of stdout, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! Progress and detail go to stderr. See `README.md` beside this crate.

mod generator;
mod metrics;
mod probe;
mod replay;
mod topo;
mod trace;
mod workloads;

use std::io::{self, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{median, percentile, Outcome, END_TO_END, PER_LAYER};
use trace::{CountingAlloc, Tracer};
use workloads::{RunStats, Sizes, State, Until, Workload};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let mut text = String::from(
        "usage: alvc-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]\n\n\
         Runs one workload once and prints one JSON object as the last line of stdout:\n\
         the end-to-end metrics with --trace 0 (default), the per-layer metrics with\n\
         --trace 1 (which also writes benchmark/out/<workload>.trace.json).\n\
         Defaults: --seed 1 --seconds 10.\n\nworkloads:\n",
    );
    for w in Workload::ALL {
        text.push_str(&format!("  {:<20} {}\n", w.name(), w.about()));
    }
    text.push_str("\nend-to-end metrics (unit, better):\n");
    for d in &END_TO_END {
        text.push_str(&format!("  {:<40} {}, {}\n", d.name, d.unit, d.better));
    }
    text.push_str("\nper-layer metrics (unit, better):\n");
    for d in &PER_LAYER {
        text.push_str(&format!("  {:<40} {}, {}\n", d.name, d.unit, d.better));
    }
    text
}

/// `Ok(None)` means `--help` was asked for.
fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// The median for `q = 0.5`, nearest rank otherwise.
fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if q == 0.5 {
        median(samples)
    } else {
        percentile(samples, q)
    }
}

fn log_run(label: &str, stats: &RunStats) {
    eprintln!(
        "{label}: {} iterations, {} of {} ops completed ({} rejected, {} failed) in {:.3} s, \
         driver share {:.3}, tenant intents by kind {:?}{}",
        stats.iterations,
        stats.completed,
        stats.attempted,
        stats.rejected,
        stats.failed,
        stats.wall.as_secs_f64(),
        1.0 - stats.lib.as_secs_f64() / stats.wall.as_secs_f64(),
        stats.kinds,
        if stats.refusals.is_empty() {
            String::new()
        } else {
            format!(", refusals {:?}", stats.refusals)
        }
    );
}

/// Three set-ups from scratch, the timed run on the last one, checks.
fn untraced(w: Workload, sizes: &Sizes, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut tracer = Tracer::new();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut state: Option<State> = None;
    for i in 0..SETUPS {
        // The previous plane is torn down outside the timed set-up.
        drop(state.take());
        let started = Instant::now();
        state = Some(workloads::setup(w, sizes, seed, &mut tracer)?);
        setup_s.push(started.elapsed().as_secs_f64());
        eprintln!("set-up {}: {:.3} s", i + 1, setup_s[i]);
    }
    let mut state = state.expect("at least one set-up ran");
    // Read before the timed loop: set-up is a fixed amount of work, the
    // loop is not, and a faster library must not look like a fatter one.
    let peak_rss_mb = trace::peak_rss_mib().map_err(|e| e.to_string())?;

    let until = Until::Elapsed(Duration::from_secs_f64(seconds));
    let mut stats = workloads::run(w, &mut state, until, &mut tracer);
    log_run("timed", &stats);
    if let State::Plane(plane) = &state {
        eprintln!(
            "deploys put off for want of an uncontested free uplink, set-up included: {}",
            plane.gen.deferred_deploys
        );
    }
    let problems = workloads::check(&state, &stats);
    for p in &problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let (al_ops, oeo) = workloads::quality(&state, &stats, seed)?;

    let q = sizes.tail_q();
    let tail_samples = if stats.tail_us.is_empty() {
        &mut stats.latencies_us
    } else {
        &mut stats.tail_us
    };
    let window = tail_samples.len().div_ceil(sizes.tail_windows).max(1);
    let mut tails: Vec<f64> = tail_samples
        .chunks_mut(window)
        .map(|w| quantile(w, q))
        .collect();
    let tail = median(&mut tails);
    let p50 = median(&mut stats.latencies_us);
    let goodput = stats.goodput_per_s();
    let setup = median(&mut setup_s);
    // Wall-clock numbers are reported at nominal memory latency.
    let slow = probe::memory_factor(&stats.probe_ms);
    eprintln!(
        "raw: set-up {setup:.3} s, goodput {goodput:.1}/s, p50 {p50:.1} us, tail {tail:.1} us; \
         memory {slow:.3} x nominal over {} probe samples",
        stats.probe_ms.len()
    );
    eprintln!(
        "latency: p50 over n = {}, tail = median of {} windows' p{:.0}, {} samples each; \
         goodput {:.1}/s overall, segment rates {:?}",
        stats.latencies_us.len(),
        tails.len(),
        q * 100.0,
        window,
        stats.units / stats.wall.as_secs_f64(),
        stats
            .segment_rates()
            .iter()
            .map(|r| r.round())
            .collect::<Vec<_>>()
    );
    if window < sizes.tail_samples {
        eprintln!(
            "warning: {window} tail samples a window, the percentile was fixed for {}",
            sizes.tail_samples
        );
    }
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: stats.attempted,
        failed: stats.attempted - stats.completed,
        metrics: vec![
            ("setup_s", setup / slow),
            ("goodput_per_s", goodput * slow),
            ("latency_p50_us", p50 / slow),
            ("latency_tail_us", tail / slow),
            ("completed_frac", stats.completed_frac()),
            ("al_ops_per_cluster", al_ops),
            ("oeo_per_chain", oeo),
            ("peak_rss_mb", peak_rss_mb),
        ],
    })
}

fn real_main() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(args) = parse_args(&argv).map_err(|e| format!("{e} (--help lists the workloads)"))?
    else {
        return match io::stdout().lock().write_all(usage().as_bytes()) {
            Err(e) if e.kind() != io::ErrorKind::BrokenPipe => Err(e.to_string()),
            _ => Ok(ExitCode::SUCCESS),
        };
    };
    eprintln!(
        "{}: seed {}, {} s, trace {}, {} hardware threads",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let (w, sizes) = (args.workload, args.workload.sizes());
    let outcome = if args.trace {
        let (outcome, tracer) = replay::traced(w, &sizes, args.seed, args.seconds)?;
        let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
            .join(format!("{}.trace.json", w.name()));
        tracer
            .write_json(&path, w.name(), args.seed)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("wrote {} spans to {}", tracer.span_count(), path.display());
        outcome
    } else {
        untraced(w, &sizes, args.seed, args.seconds)?
    };
    let mut out = io::stdout().lock();
    match outcome.write_line(&mut out).and_then(|()| out.flush()) {
        // The reader went away (`| head`): nothing left to report to.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => return Ok(ExitCode::SUCCESS),
        Err(e) => return Err(e.to_string()),
        Ok(()) => {}
    }
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::tests::toy;

    fn names(outcome: &Outcome) -> Vec<&'static str> {
        outcome.metrics.iter().map(|(name, _)| *name).collect()
    }

    #[test]
    fn every_workload_reports_all_eight_end_to_end_metrics() {
        let declared: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        for w in Workload::ALL {
            let outcome =
                untraced(w, &toy(w), 5, 0.2).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert!(outcome.correct, "{}", w.name());
            assert_eq!(names(&outcome), declared, "{}", w.name());
            outcome.write_line(&mut Vec::new()).expect("finite values");
        }
    }

    #[test]
    fn every_workload_reports_every_layer_and_replays_bit_identically() {
        let declared: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        for w in Workload::ALL {
            let (outcome, tracer) =
                replay::traced(w, &toy(w), 5, 0.2).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert!(outcome.correct, "{}", w.name());
            assert_eq!(names(&outcome), declared, "{}", w.name());
            outcome.write_line(&mut Vec::new()).expect("finite values");
            assert!(tracer.span_count() > 0);
        }
    }

    #[test]
    fn arguments_follow_the_contract() {
        let args = |line: &str| {
            let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
            parse_args(&argv)
        };
        let parsed = args("--workload ops-day --seed 7 --seconds 3 --trace 1")
            .unwrap()
            .unwrap();
        assert_eq!(parsed.workload, Workload::OpsDay);
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 3.0, true));
        assert!(args("--help").unwrap().is_none());
        assert!(args("--workload nope").is_err());
        assert!(args("--workload ops-day --trace 2").is_err());
        assert!(args("--seed 1").is_err());
    }
}
