//! End-to-end TPC-W benchmark of tenantdb over its TCP serving tier.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload browse-fit --seed 1 --seconds 40 --trace 0
//! ```
//!
//! The process first pins itself to one CPU (see `host`). Each round
//! builds a fresh platform, drives a fixed number of TPC-W
//! interactions through `NetClient` over loopback (closed loop, then
//! paced), checks the replicas, and tears the platform down. Rounds
//! repeat while the longest so far still fits in `--seconds`. `--trace 0`
//! prints the end-to-end metrics; `--trace 1` runs the traced layer ledger
//! instead. The last line of standard output is one JSON object; see
//! `README.md`.

mod deploy;
mod drive;
mod host;
mod ledger;
mod stats;

use std::path::Path;
use std::time::{Duration, Instant};

use deploy::{workload, Deployment, Workload, WORKLOAD_NAMES};
use drive::{run_pass, Level, PassConfig};
use stats::{median, print_result, quantile, wilson_upper, Metric};

/// Fewest rounds a `--trace 0` run makes, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// Paces a run's rounds against `--seconds`: a round starts only while
/// the longest round so far still fits, so a run ends within its budget
/// (beyond it only to make its minimum number of rounds).
struct RoundClock {
    budget: Duration,
    started: Instant,
    last: Instant,
    longest: Duration,
}

impl RoundClock {
    fn new(seconds: u64) -> Self {
        let now = Instant::now();
        RoundClock {
            budget: Duration::from_secs(seconds),
            started: now,
            last: now,
            longest: Duration::ZERO,
        }
    }

    /// Whether to start another round, `done` rounds having run.
    fn another(&mut self, done: usize, min: usize) -> bool {
        let now = Instant::now();
        if done > 0 {
            self.longest = self.longest.max(now - self.last);
        }
        self.last = now;
        done < min || now - self.started + self.longest <= self.budget
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let Some(wl) = workload(&args.workload) else {
        eprintln!(
            "unknown workload {:?}; one of {}",
            args.workload,
            WORKLOAD_NAMES.join(", ")
        );
        std::process::exit(2);
    };
    let host_threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = match host::pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("perfbench: pin to one cpu: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "# {} seed={} seconds={} trace={} host_threads={host_threads} pinned_cpu={cpu}",
        wl.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let run = if args.trace {
        traced(&wl, &args)
    } else {
        untraced(&wl, &args)
    };
    match run {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Peak resident memory (`VmHWM`) of this process so far, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn report_problems(problems: &[String], errors: &[String]) {
    for p in problems.iter().take(20) {
        println!("CHECK FAILED: {p}");
    }
    for e in errors.iter().take(20) {
        println!("interaction failed: {e}");
    }
}

/// What one `--trace 0` round measured, printed per round.
struct Round {
    tps: f64,
    p50_ms: f64,
    p99_ms: f64,
    paced_p50_ms: f64,
    setup_s: f64,
    /// Host steal fraction during the closed-loop phase.
    steal: f64,
}

/// End-to-end metrics, tracing off: rounds of closed-loop then paced
/// load through the TCP serving tier.
///
/// A platform settles into a speed for its whole life: within a round the
/// closed loop runs at one pace, while two rounds of the same seed can
/// differ by half. So a run makes many short rounds, each on a fresh
/// platform, and pools them: `tps` is every committed closed-loop
/// interaction over the closed loops' summed wall time, and the latency
/// percentiles are taken over the samples of all rounds. `setup_s` is the
/// median over rounds.
fn untraced(wl: &Workload, args: &Args) -> Result<bool, String> {
    let mut clock = RoundClock::new(args.seconds);
    let mut rounds: Vec<Round> = Vec::new();
    let (mut closed_ms, mut paced_ms, mut late_ms) = (vec![], vec![], vec![]);
    let (mut committed, mut closed_wall) = (0u64, Duration::ZERO);
    let mut fail_bounds = vec![];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut problems, mut errors) = (Vec::new(), Vec::new());
    let mut host = None;
    let mut rss_mb = 0.0;
    while clock.another(rounds.len(), MIN_ROUNDS) {
        let dep = Deployment::build(wl, args.seed)?;
        let out = run_pass(&PassConfig {
            level: Level::Net,
            dep: &dep,
            wl,
            seed: args.seed,
            closed_txns: wl.closed_txns,
            paced_txns: wl.paced_txns,
            trace: false,
        });
        let round_problems = dep.check(&out.buys, true);
        if host.is_none() {
            // The first round runs in a fresh process, so its peak is the
            // platform's own footprint; later rounds would add what the
            // allocator kept from the rounds before them.
            rss_mb = peak_rss_mb()?;
            host = Some((ledger::ping_ns(&dep)?, ledger::lock_ns()?));
        }
        let setup_s = dep.setup.as_secs_f64();
        dep.shutdown();
        let round_failed = out.failed + round_problems.len() as u64;
        fail_bounds.push(wilson_upper(round_failed, out.attempted));
        attempted += out.attempted;
        failed += round_failed;
        committed += out.closed_committed;
        closed_wall += out.closed_wall;
        rounds.push(Round {
            tps: out.tps(),
            p50_ms: quantile(&out.closed_ms, 0.5),
            p99_ms: quantile(&out.closed_ms, 0.99),
            paced_p50_ms: median(&out.paced_ms),
            setup_s,
            steal: out.steal,
        });
        closed_ms.extend(out.closed_ms);
        paced_ms.extend(out.paced_ms);
        late_ms.extend(out.late_ms);
        problems.extend(round_problems);
        errors.extend(out.errors);
    }
    let (ping, lock) = host.expect("at least one round");
    let each = |v: fn(&Round) -> f64| rounds.iter().map(v).collect::<Vec<f64>>();
    println!(
        "host.ping_ns {ping:.0}  host.lock_ns {lock:.0}  host.steal_frac {:.3}  gen.late_p99_ms {:.3}",
        median(&each(|r| r.steal)),
        quantile(&late_ms, 0.99)
    );
    for r in &rounds {
        println!(
            "round: tps {:.1} p50_ms {:.4} p99_ms {:.4} paced_p50_ms {:.4} setup_s {:.3} steal {:.3}",
            r.tps, r.p50_ms, r.p99_ms, r.paced_p50_ms, r.setup_s, r.steal
        );
    }
    report_problems(&problems, &errors);
    let n = rounds.len();
    let metrics = [
        Metric::new(
            "tps",
            committed as f64 / closed_wall.as_secs_f64(),
            "1/s",
            committed as usize,
        ),
        Metric::new("p50_ms", quantile(&closed_ms, 0.5), "ms", closed_ms.len()),
        Metric::new("p99_ms", quantile(&closed_ms, 0.99), "ms", closed_ms.len()),
        Metric::new("paced_p50_ms", median(&paced_ms), "ms", paced_ms.len()),
        Metric::new(
            "fail_frac",
            fail_bounds.iter().sum::<f64>() / n as f64,
            "fraction",
            attempted as usize,
        ),
        Metric::new("setup_s", median(&each(|r| r.setup_s)), "s", n),
        Metric::new("rss_mb", rss_mb, "MB", 1),
    ];
    let correct = problems.is_empty();
    print_result(correct, attempted, failed, &metrics);
    Ok(correct)
}

/// The per-layer ledger: sets of traced passes while the longest so far
/// still fits in `--seconds`, each metric the median over sets.
fn traced(wl: &Workload, args: &Args) -> Result<bool, String> {
    let mut clock = RoundClock::new(args.seconds);
    let mut sets = Vec::new();
    while clock.another(sets.len(), 1) {
        sets.push(ledger::run_set(wl, args.seed)?);
    }
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut problems = Vec::new();
    for s in &sets {
        attempted += s.attempted;
        failed += s.failed + s.problems.len() as u64;
        problems.extend(s.problems.iter().cloned());
        report_problems(&s.problems, &s.errors);
    }
    let last = sets.last().expect("at least one set");
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.jsonl", wl.name));
    ledger::write_spans(&path, &last.spans)?;
    println!("spans: {} ({} sets)", path.display(), sets.len());
    let correct = problems.is_empty();
    print_result(correct, attempted, failed, &ledger::summarize(&sets));
    Ok(correct)
}
