//! The benchmark driver. Run through `perfbench/run.sh`, which builds the
//! daemon and this driver first:
//!
//! ```text
//! perfbench --daemon PATH --work-dir DIR --workload NAME|all --seed N
//!           --seconds N [--trace 0|1]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer ones; `--workload all` runs every workload both ways. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Any answer that differs from its reference makes the run
//! exit nonzero.

use cpsdfa_service::proto::{Served, Status};
use perfbench::daemon::{closed_loop, dir_bytes, Daemon, Reply};
use perfbench::replay::Replay;
use perfbench::solve::{references, Reference};
use perfbench::workload::{Plan, Workload, CLIENTS};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// A reported metric: name, unit, value.
type Metric = (&'static str, &'static str, f64);

/// The end-to-end metrics (`--trace 0`), with their units.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("throughput_rps", "1/s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("persist_mb", "MiB"),
];

/// The per-layer metrics (`--trace 1`), with their units.
const PER_LAYER: [(&str, &str); 31] = [
    ("service.queue_wait_us", "us"),
    ("service.residual_us", "us"),
    ("service.rejected", "count"),
    ("syntax.parse.self_us", "us"),
    ("syntax.parse.nodes_per_s", "1/s"),
    ("cache.digest.self_us", "us"),
    ("cache.probe.self_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.insert.self_us", "us"),
    ("anf.lower.self_us", "us"),
    ("anf.nodes", "count"),
    ("cps.transform.self_us", "us"),
    ("govern.solve.self_us", "us"),
    ("govern.solve.calls", "count"),
    ("govern.solve.iterations", "count"),
    ("govern.solve.charged", "count"),
    ("govern.rungs_per_answer", "ratio"),
    ("incremental.calls", "count"),
    ("incremental.warm.self_us", "us"),
    ("incremental.fired", "count"),
    ("incremental.warm_ratio", "ratio"),
    ("certify.self_us", "us"),
    ("certify.calls", "count"),
    ("certify.to_solve_ratio", "ratio"),
    ("persist.store.self_us", "us"),
    ("persist.store_bytes", "bytes"),
    ("persist.session.self_us", "us"),
    ("persist.recover_s", "s"),
    ("persist.recover.entries", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

struct Args {
    daemon: PathBuf,
    work_dir: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        daemon: PathBuf::new(),
        work_dir: PathBuf::new(),
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--daemon" => args.daemon = value.into(),
            "--work-dir" => args.work_dir = value.into(),
            "--workload" => args.workload = value,
            "--seed" => args.seed = number(&value)?,
            "--seconds" => args.seconds = number(&value)?.max(1),
            "--trace" => args.trace = number(&value)? != 0,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.workload != "all" && Workload::parse(&args.workload).is_none() {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !args.daemon.is_file() {
        return Err(format!("no daemon binary at {}", args.daemon.display()));
    }
    if args.work_dir.as_os_str().is_empty() {
        return Err("--work-dir is required".to_owned());
    }
    Ok(args)
}

/// A run's result: the metrics plus the request accounting.
#[derive(Default)]
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    rounds: usize,
}

/// One daemon lifetime over one round of the stream.
struct Round {
    setup: Duration,
    wall: Duration,
    replies: Vec<Reply>,
    peak_rss_kib: u64,
    persist_bytes: u64,
}

/// Request accounting over every round, checked against the references.
#[derive(Default)]
struct Tally {
    attempted: u64,
    ok: u64,
    rejected: u64,
    errors: u64,
    wrong: u64,
}

fn tally(rounds: &[Round], plan: &Plan, expected: &[u64]) -> Tally {
    let mut t = Tally::default();
    for round in rounds {
        for (i, reply) in round.replies.iter().enumerate() {
            t.attempted += 1;
            match &reply.response.status {
                Status::Ok {
                    answer_digest,
                    degraded: false,
                    ..
                } if *answer_digest == expected[plan.stream[i].program] => t.ok += 1,
                Status::Ok { .. } => t.wrong += 1,
                Status::Rejected { .. } => t.rejected += 1,
                Status::Error { .. } => t.errors += 1,
            }
        }
    }
    t
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of `sorted`.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Daemons started only to time their set-up, per run.
const SETUP_PROBES: usize = 9;

/// Runs rounds against fresh daemons until `seconds` have passed. Each
/// round starts a daemon over `primed` (when the workload primes one) or
/// over a fresh persist dir. Returns the rounds and every set-up time.
fn measure(
    args: &Args,
    plan: &Plan,
    work: &Path,
    primed: Option<&Path>,
) -> Result<(Vec<Round>, Vec<Duration>), String> {
    let lines = plan.lines();
    let clients: Vec<usize> = plan.stream.iter().map(|r| r.client).collect();
    // Start-up alone is a few milliseconds on an empty dir, so it is
    // sampled on daemons of its own as well as on every round's.
    let mut setups = Vec::new();
    for probe in 0..SETUP_PROBES {
        let dir = match primed {
            Some(p) => p.to_owned(),
            None => work.join(format!("setup-{probe}")),
        };
        let io = |e: std::io::Error| format!("set-up probe: {e}");
        let daemon = Daemon::spawn(&args.daemon, &dir).map_err(io)?;
        setups.push(daemon.setup);
        daemon.shutdown().map_err(io)?;
        if primed.is_none() {
            fs::remove_dir_all(&dir).map_err(io)?;
        }
    }
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut rounds = Vec::new();
    while rounds.is_empty() || Instant::now() < deadline {
        let dir = match primed {
            Some(p) => p.to_owned(),
            None => work.join(format!("round-{}", rounds.len())),
        };
        let io = |e: std::io::Error| format!("round {}: {e}", rounds.len());
        let mut daemon = Daemon::spawn(&args.daemon, &dir).map_err(io)?;
        let (input, output) = daemon.pipes();
        let out = closed_loop(input, output, &lines, &clients).map_err(io)?;
        let peak_rss_kib = daemon.peak_rss_kib().map_err(io)?;
        let setup = daemon.setup;
        daemon.shutdown().map_err(io)?;
        let persist_bytes = dir_bytes(&dir);
        if primed.is_none() {
            fs::remove_dir_all(&dir).map_err(io)?;
        }
        rounds.push(Round {
            setup,
            wall: out.wall,
            replies: out.replies,
            peak_rss_kib,
            persist_bytes,
        });
    }
    setups.extend(rounds.iter().map(|r| r.setup));
    Ok((rounds, setups))
}

/// Answers the plan's priming set into `dir` with a daemon of its own.
fn prime(args: &Args, plan: &Plan, dir: &Path, expected: &[u64]) -> Result<(), String> {
    let lines = plan.prime_lines();
    let clients: Vec<usize> = (0..lines.len()).map(|i| i % CLIENTS).collect();
    let io = |e: std::io::Error| format!("priming: {e}");
    let mut daemon = Daemon::spawn(&args.daemon, dir).map_err(io)?;
    let (input, output) = daemon.pipes();
    let out = closed_loop(input, output, &lines, &clients).map_err(io)?;
    daemon.shutdown().map_err(io)?;
    for (reply, &p) in out.replies.iter().zip(&plan.prime) {
        match reply.response.status {
            Status::Ok { answer_digest, .. } if answer_digest == expected[p] => {}
            ref other => return Err(format!("priming answer differs: {other:?}")),
        }
    }
    Ok(())
}

fn end_to_end(rounds: &[Round], setups: &[Duration], t: &Tally) -> Vec<Metric> {
    let mut rtt: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.replies.iter().map(|x| x.rtt_ns as f64 / 1e3))
        .collect();
    rtt.sort_by(f64::total_cmp);
    let wall: f64 = rounds.iter().map(|r| r.wall.as_secs_f64()).sum();
    let mut setup: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    let mut rss: Vec<f64> = rounds
        .iter()
        .map(|r| r.peak_rss_kib as f64 / 1024.0)
        .collect();
    let mut persist: Vec<f64> = rounds
        .iter()
        .map(|r| r.persist_bytes as f64 / (1 << 20) as f64)
        .collect();
    let values = [
        median(&mut setup),
        percentile(&rtt, 0.50),
        percentile(&rtt, 0.99),
        ratio(t.ok as f64, wall),
        ratio(t.ok as f64, t.attempted as f64),
        median(&mut rss),
        median(&mut persist),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect()
}

/// The traced run's metrics: the replay's layer spans and counts, tied to
/// the untraced daemon run of the same round.
fn per_layer(
    args: &Args,
    w: Workload,
    plan: &Plan,
    refs: &[Reference],
    rounds: &[Round],
    work: &Path,
    primed: Option<&Path>,
) -> Result<(Vec<Metric>, u64), String> {
    let expected: Vec<u64> = refs.iter().map(|r| r.digest).collect();
    // Untraced, traced, traced, untraced replays from the same starting
    // state, so drift over the four passes cancels out of the overhead;
    // the last traced pass supplies the layer numbers.
    let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
    let mut last = None;
    let mut wrong = 0;
    for pass in 0..4 {
        let is_traced = pass == 1 || pass == 2;
        let dir = match primed {
            Some(p) => p.to_owned(),
            None => work.join(format!("replay-{pass}")),
        };
        let mut replay = Replay::open(&dir, is_traced).map_err(|e| format!("replay: {e}"))?;
        let before = entry_bytes(&dir);
        let wall = replay.run(plan, &expected);
        let stored = entry_bytes(&dir) - before;
        wrong += replay.counts.wrong;
        if primed.is_none() {
            fs::remove_dir_all(&dir).map_err(|e| format!("replay: {e}"))?;
        }
        if is_traced {
            traced += wall;
            last = Some((replay, stored));
        } else {
            untraced += wall;
        }
    }
    let (replay, stored_bytes) = last.expect("a traced pass ran");
    let spans_path = args
        .work_dir
        .join(format!("{}-{}.spans.jsonl", w.name(), args.seed));
    let mut spans = std::io::BufWriter::new(
        fs::File::create(&spans_path).map_err(|e| format!("{}: {e}", spans_path.display()))?,
    );
    replay
        .write_spans(&mut spans)
        .and_then(|()| std::io::Write::flush(&mut spans))
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;

    let c = &replay.counts;
    let requests = c.requests.max(1) as f64;
    let total_ns = |name: &str| replay.self_ns(name) as f64;
    let self_us = |name: &str| total_ns(name) / 1e3 / requests;
    let replies = || rounds.iter().flat_map(|r| r.replies.iter());
    let mut daemon_us: Vec<f64> = replies().map(|r| r.response.latency_us as f64).collect();
    daemon_us.sort_by(f64::total_cmp);
    let mut layer_us: Vec<f64> = replay.layer_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    layer_us.sort_by(f64::total_cmp);
    let queue_wait: Vec<f64> = replies()
        .map(|r| r.rtt_ns as f64 / 1e3 - r.response.latency_us as f64)
        .collect();
    let rejected = replies()
        .filter(|r| matches!(r.response.status, Status::Rejected { .. }))
        .count();
    let (ref_solve, ref_certify) = refs.iter().fold((0.0, 0.0), |(s, c), r| {
        (s + r.solve_ns as f64, c + r.certify_ns as f64)
    });
    let daemon_p50 = percentile(&daemon_us, 0.5);
    let layer_p50 = percentile(&layer_us, 0.5);
    let values = [
        ratio(queue_wait.iter().sum(), queue_wait.len() as f64),
        daemon_p50 - layer_p50,
        rejected as f64,
        self_us("syntax.parse"),
        ratio(c.parse_nodes as f64, total_ns("syntax.parse") / 1e9),
        self_us("cache.digest"),
        self_us("cache.probe"),
        ratio(c.hits as f64, c.probes as f64),
        self_us("cache.insert"),
        self_us("anf.lower"),
        ratio(c.anf_labels as f64, c.lowered as f64),
        self_us("cps.transform"),
        self_us("govern.solve"),
        c.solves as f64,
        ratio(c.solve_iterations as f64, c.solves as f64),
        ratio(c.solve_charged as f64, c.solves as f64),
        ratio(c.rung_attempts as f64, c.solves as f64),
        c.warm_attempts as f64,
        self_us("incremental.warm"),
        ratio(c.warm_fired as f64, c.warm_answers as f64),
        ratio(c.warm_answers as f64, c.warm_eligible as f64),
        self_us("certify"),
        c.certify_calls as f64,
        ratio(ref_certify, ref_solve),
        self_us("persist.store"),
        ratio(stored_bytes as f64, c.stores as f64),
        self_us("persist.session"),
        c.recover_ns as f64 / 1e9,
        c.recovered as f64,
        ratio(layer_p50, daemon_p50),
        ratio(traced.as_secs_f64(), untraced.as_secs_f64()),
    ];
    let metrics = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect();
    Ok((metrics, wrong))
}

/// Bytes of cache entries (not session journals) directly under `dir`.
fn entry_bytes(dir: &Path) -> u64 {
    dir_bytes(dir).saturating_sub(dir_bytes(&dir.join("sessions")))
}

fn run_workload(args: &Args, w: Workload, trace: bool) -> Result<Outcome, String> {
    let plan = w.plan(args.seed);
    let refs = references(&plan.programs, hw_threads())?;
    let expected: Vec<u64> = refs.iter().map(|r| r.digest).collect();
    let work = args
        .work_dir
        .join(format!("{}-{}-{}", w.name(), args.seed, std::process::id()));
    let _ = fs::remove_dir_all(&work);
    fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = (|| {
        let primed = (!plan.prime.is_empty()).then(|| work.join("primed"));
        if let Some(dir) = &primed {
            prime(args, &plan, dir, &expected)?;
        }
        let (rounds, setups) = measure(args, &plan, &work, primed.as_deref())?;
        let t = tally(&rounds, &plan, &expected);
        let mut outcome = Outcome {
            attempted: t.attempted,
            failed: t.rejected + t.errors + t.wrong,
            rounds: rounds.len(),
            ..Outcome::default()
        };
        if trace {
            let (metrics, wrong) =
                per_layer(args, w, &plan, &refs, &rounds, &work, primed.as_deref())?;
            outcome.metrics = metrics;
            outcome.failed += wrong;
        } else {
            outcome.metrics = end_to_end(&rounds, &setups, &t);
        }
        let served = |kind: Served| {
            rounds
                .iter()
                .flat_map(|r| &r.replies)
                .filter(
                    |r| matches!(&r.response.status, Status::Ok { cache, .. } if *cache == kind),
                )
                .count()
        };
        eprintln!(
            "perfbench: {} seed {}: {} rounds, {} requests: {} hit, {} miss, {} warm; \
             {} rejected, {} errors, {} wrong",
            w.name(),
            args.seed,
            rounds.len(),
            t.attempted,
            served(Served::Hit),
            served(Served::Miss),
            served(Served::Warm),
            t.rejected,
            t.errors,
            t.wrong
        );
        Ok(outcome)
    })();
    let _ = fs::remove_dir_all(&work);
    result
}

fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` without running git; a checkout
/// that is not a git repository reports `unknown`.
fn commit() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    fs::read_to_string(Path::new(".git").join(reference))
        .ok()
        .or_else(|| {
            fs::read_to_string(".git/packed-refs")
                .ok()?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_owned()))
        })
        .map_or("unknown".into(), |h| h.trim().to_owned())
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

fn env_line(args: &Args, workload: &str, rounds: usize) -> String {
    format!(
        "{{\"env\": {{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \
         \"hw_threads\": {}, \"workers\": 2, \"clients\": 2, \"rounds\": {rounds}, \
         \"commit\": \"{}\"}}}}",
        args.seed,
        args.seconds,
        hw_threads(),
        commit()
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if hw_threads() < 2 {
        eprintln!(
            "perfbench: warning: {} hardware thread; the daemon runs 2 workers and 2 clients, \
             so these numbers do not meet the >= 2-thread requirement",
            hw_threads()
        );
    }
    if let Err(e) = fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: {}: {e}", args.work_dir.display());
        return ExitCode::FAILURE;
    }
    let runs: Vec<(Workload, bool)> = match Workload::parse(&args.workload) {
        Some(w) => vec![(w, args.trace)],
        None => Workload::ALL
            .iter()
            .flat_map(|&w| [(w, false), (w, true)])
            .collect(),
    };
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics: Vec<(String, &str, f64)> = Vec::new();
    let mut rounds = 0;
    for &(w, trace) in &runs {
        match run_workload(&args, w, trace) {
            Ok(outcome) => {
                attempted += outcome.attempted;
                failed += outcome.failed;
                rounds += outcome.rounds;
                for (name, unit, v) in outcome.metrics {
                    if runs.len() > 1 {
                        println!("{:<11} {name:<26} {:>14} {unit}", w.name(), number(v));
                        metrics.push((format!("{}/{name}", w.name()), unit, v));
                    } else {
                        metrics.push((name.to_owned(), unit, v));
                    }
                }
            }
            Err(e) => {
                eprintln!("perfbench: {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", env_line(&args, &args.workload, rounds));
    let correct = failed == 0;
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {failed} of {attempted} requests failed or differ from the reference"
        );
        ExitCode::FAILURE
    }
}
