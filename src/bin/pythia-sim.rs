//! `pythia-sim` — run a single simulated scenario from the command line.
//!
//! ```text
//! cargo run --release --bin pythia-sim -- \
//!     --workload sort --scheduler pythia --ratio 10 --seed 1 --scale 0.1
//! ```
//!
//! Prints the job report, the trunk balance, and (with `--seqdiag`) the
//! Figure 1a-style sequence diagram.
//!
//! Crash durability: `--checkpoint-every-events` / `--checkpoint-every-secs`
//! write periodic snapshots into `--checkpoint-dir`; after a `kill -9`,
//! the same command line plus `--resume` picks the run back up from the
//! last good checkpoint and finishes it with the identical fingerprint.
//!
//! `pythia-sim serve` runs the live control-plane daemon instead of a
//! batch simulation: a deterministic synthetic prediction stream is fed
//! through the threaded daemon and the ingest→install throughput and
//! latency are printed (machine-parsed by CI against `BENCH_daemon.json`).

use std::process::exit;

use pythia_repro::cluster::{
    resume_multi_scenario, run_multi_scenario_checkpointed, run_scenario, CheckpointPolicy,
    RunReport, ScenarioConfig, SchedulerKind,
};
use pythia_repro::daemon::{synthetic_stream, DaemonHandle};
use pythia_repro::des::SimDuration;
use pythia_repro::hadoop::JobSpec;
use pythia_repro::metrics::{render_seqdiag, SeqDiagramOptions};
use pythia_repro::workloads::{
    NutchWorkload, SortWorkload, TeraSortWorkload, WordCountWorkload, Workload,
};

struct Args {
    workload: String,
    scheduler: SchedulerKind,
    ratio: u32,
    seed: u64,
    scale: f64,
    seqdiag: bool,
    checkpoint_dir: String,
    checkpoint_every_events: Option<u64>,
    checkpoint_every_secs: Option<f64>,
    resume: bool,
    die_at_event: Option<u64>,
    retain_snapshots: bool,
}

/// Flag values the parser accepts but the program cannot honor. Typed so
/// tests (and scripts) get a stable, greppable message on stderr and a
/// clean exit 2 instead of a downstream panic or a silent no-op policy.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CliError {
    /// A count/interval flag was given as zero, which would mean
    /// "never" where the flag promises "every …" (or an unusable
    /// zero-capacity daemon).
    ZeroFlag { flag: &'static str },
    /// A floating-point flag was NaN or infinite.
    NonFiniteFlag { flag: &'static str },
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::ZeroFlag { flag } => {
                write!(f, "{flag} must be greater than zero")
            }
            CliError::NonFiniteFlag { flag } => write!(f, "{flag} must be a finite number"),
        }
    }
}

/// Print the typed error and exit 2 (same contract as `usage()`).
fn reject(err: CliError) -> ! {
    eprintln!("error: {err}");
    exit(2);
}

fn usage() -> ! {
    eprintln!(
        "pythia-sim — simulate one MapReduce job on the Pythia testbed\n\
         \n\
         USAGE:\n\
         \x20 pythia-sim [--workload sort|nutch|terasort|wordcount]\n\
         \x20            [--scheduler ecmp|pythia|hedera]\n\
         \x20            [--ratio N]      over-subscription 1:N (default 10)\n\
         \x20            [--seed S]       master seed (default 1)\n\
         \x20            [--scale F]      fraction of paper input size (default 0.1)\n\
         \x20            [--seqdiag]      print the sequence diagram\n\
         \n\
         CRASH DURABILITY:\n\
         \x20            [--checkpoint-dir DIR]           snapshot directory\n\
         \x20                                             (default .pythia-checkpoints)\n\
         \x20            [--checkpoint-every-events N]    checkpoint every N events\n\
         \x20            [--checkpoint-every-secs F]      checkpoint every F sim-seconds\n\
         \x20            [--resume]       resume the latest checkpoint in the dir\n\
         \x20            [--die-at-event N]  abort() before event N (crash drills)\n\
         \x20            [--retain-snapshots]  keep superseded snapshot files\n\
         \n\
         LIVE DAEMON:\n\
         \x20 pythia-sim serve [--predictions N]     synthetic predictions to ingest\n\
         \x20                                        (default 200000)\n\
         \x20                  [--queue-capacity N]  bounded ingest queue (default 65536)\n\
         \x20                  [--ratio N] [--seed S]\n"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: "sort".into(),
        scheduler: SchedulerKind::Pythia,
        ratio: 10,
        seed: 1,
        scale: 0.1,
        seqdiag: false,
        checkpoint_dir: ".pythia-checkpoints".into(),
        checkpoint_every_events: None,
        checkpoint_every_secs: None,
        resume: false,
        die_at_event: None,
        retain_snapshots: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--workload" | "-w" => args.workload = value("--workload"),
            "--scheduler" | "-s" => {
                args.scheduler = match value("--scheduler").as_str() {
                    "ecmp" => SchedulerKind::Ecmp,
                    "pythia" => SchedulerKind::Pythia,
                    "hedera" => SchedulerKind::Hedera,
                    other => {
                        eprintln!("unknown scheduler {other}");
                        usage()
                    }
                }
            }
            "--ratio" | "-r" => args.ratio = value("--ratio").parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--scale" => args.scale = value("--scale").parse().unwrap_or_else(|_| usage()),
            "--seqdiag" => args.seqdiag = true,
            "--checkpoint-dir" => args.checkpoint_dir = value("--checkpoint-dir"),
            "--checkpoint-every-events" => {
                args.checkpoint_every_events = Some(
                    value("--checkpoint-every-events")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--checkpoint-every-secs" => {
                args.checkpoint_every_secs = Some(
                    value("--checkpoint-every-secs")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--resume" => args.resume = true,
            "--die-at-event" => {
                args.die_at_event =
                    Some(value("--die-at-event").parse().unwrap_or_else(|_| usage()))
            }
            "--retain-snapshots" => args.retain_snapshots = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    if !(0.0..=1.0).contains(&args.scale) || args.scale <= 0.0 {
        eprintln!("--scale must be in (0, 1]");
        usage();
    }
    if args.ratio == 0 {
        reject(CliError::ZeroFlag { flag: "--ratio" });
    }
    // "Checkpoint every 0 events/seconds" would silently mean "never";
    // refuse it instead of handing the run a policy it cannot honor.
    if args.checkpoint_every_events == Some(0) {
        reject(CliError::ZeroFlag {
            flag: "--checkpoint-every-events",
        });
    }
    if args.checkpoint_every_secs.is_some_and(|s| !s.is_finite()) {
        reject(CliError::NonFiniteFlag {
            flag: "--checkpoint-every-secs",
        });
    }
    if args.checkpoint_every_secs.is_some_and(|s| s <= 0.0) {
        reject(CliError::ZeroFlag {
            flag: "--checkpoint-every-secs",
        });
    }
    args
}

fn job_for(workload: &str, scale: f64) -> JobSpec {
    match workload {
        "sort" => {
            let mut w = SortWorkload::paper_240gb();
            w.input_bytes = (w.input_bytes as f64 * scale).max(512e6) as u64;
            w.job()
        }
        "nutch" => {
            let mut w = NutchWorkload::paper_5m_pages();
            w.input_bytes = (w.input_bytes as f64 * scale).max(64e6) as u64;
            w.job()
        }
        "terasort" => {
            let mut w = TeraSortWorkload::default();
            w.input_bytes = (w.input_bytes as f64 * scale).max(512e6) as u64;
            w.job()
        }
        "wordcount" => {
            let mut w = WordCountWorkload::default();
            w.input_bytes = (w.input_bytes as f64 * scale).max(512e6) as u64;
            w.job()
        }
        other => {
            eprintln!("unknown workload {other}");
            usage()
        }
    }
}

/// Dispatch between the plain run, the checkpointing run, and a resume,
/// exiting with a readable message on any typed snapshot error.
fn run_with_durability(args: &Args, job: JobSpec, cfg: &ScenarioConfig) -> RunReport {
    let wants_checkpoints =
        args.checkpoint_every_events.is_some() || args.checkpoint_every_secs.is_some();
    if !args.resume && !wants_checkpoints && args.die_at_event.is_none() {
        return run_scenario(job, cfg);
    }

    let mut policy = CheckpointPolicy::new(&args.checkpoint_dir);
    if let Some(n) = args.checkpoint_every_events {
        policy = policy.every_events(n);
    }
    if let Some(s) = args.checkpoint_every_secs {
        policy = policy.every_sim_time(SimDuration::from_secs_f64(s));
    }
    if let Some(n) = args.die_at_event {
        policy = policy.die_at_event(n);
    }
    if args.retain_snapshots {
        policy = policy.retain_all();
    }

    let jobs = vec![(job, SimDuration::ZERO)];
    let result = if args.resume {
        println!("resuming from {} …\n", args.checkpoint_dir);
        resume_multi_scenario(jobs, cfg, std::path::Path::new(&args.checkpoint_dir), {
            if wants_checkpoints || args.die_at_event.is_some() {
                Some(&policy)
            } else {
                None
            }
        })
    } else {
        run_multi_scenario_checkpointed(jobs, cfg, &policy)
    };
    match result {
        Ok(multi) => multi.into_single(),
        Err(e) => {
            eprintln!("snapshot error: {e}");
            exit(1);
        }
    }
}

/// `pythia-sim serve`: run the threaded control-plane daemon against a
/// deterministic synthetic prediction stream and print throughput plus
/// ingest→install latency. The stable `daemon:` line is machine-parsed
/// by CI against `BENCH_daemon.json`.
fn serve_main() -> ! {
    let mut predictions: usize = 200_000;
    let mut queue_capacity: usize = 65_536;
    let mut ratio: u32 = 10;
    let mut seed: u64 = 1;
    let mut it = std::env::args().skip(2);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--predictions" => {
                predictions = value("--predictions").parse().unwrap_or_else(|_| usage())
            }
            "--queue-capacity" => {
                queue_capacity = value("--queue-capacity")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--ratio" | "-r" => ratio = value("--ratio").parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    if predictions == 0 {
        reject(CliError::ZeroFlag {
            flag: "--predictions",
        });
    }
    if queue_capacity == 0 {
        reject(CliError::ZeroFlag {
            flag: "--queue-capacity",
        });
    }
    if ratio == 0 {
        reject(CliError::ZeroFlag { flag: "--ratio" });
    }

    let cfg = ScenarioConfig::default()
        .with_scheduler(SchedulerKind::Pythia)
        .with_oversubscription(ratio)
        .with_seed(seed);
    let stream = synthetic_stream(&cfg, predictions);
    println!(
        "serving {} predictions (queue capacity {}, ratio 1:{}, seed {}) …",
        predictions, queue_capacity, ratio, seed
    );
    let handle = match DaemonHandle::spawn_sim(&cfg, queue_capacity) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("daemon error: {e}");
            exit(1);
        }
    };
    let start = std::time::Instant::now();
    for (t, m) in stream {
        handle.ingest_blocking(t, m);
    }
    let report = handle.shutdown();
    let elapsed = start.elapsed();
    let per_hour = predictions as f64 / elapsed.as_secs_f64() * 3600.0;
    println!(
        "daemon: backend={} ingested={} shed={} installed={} tcam_rejected={} \
         elapsed={:.3}s throughput={:.0} predictions/hour p50={}ns p99={}ns",
        report.backend,
        report.stats.ingested,
        report.stats.shed,
        report.installed,
        report.tcam_rejected,
        elapsed.as_secs_f64(),
        per_hour,
        report.p50.as_nanos(),
        report.p99.as_nanos(),
    );
    exit(0);
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("serve") {
        serve_main();
    }
    let args = parse_args();
    let job = job_for(&args.workload, args.scale);
    println!(
        "running {} ({} maps × {} reducers, {:.1} GB input) under {} at 1:{}  [seed {}]\n",
        job.name,
        job.num_maps,
        job.num_reducers,
        job.input_bytes as f64 / 1e9,
        args.scheduler.label(),
        args.ratio,
        args.seed
    );
    let cfg = ScenarioConfig::default()
        .with_scheduler(args.scheduler)
        .with_oversubscription(args.ratio)
        .with_seed(args.seed);
    let report = run_with_durability(&args, job, &cfg);
    let jr = report.job_report();
    println!("completion:        {:>9.1} s", jr.completion_secs);
    println!("map phase end:     {:>9.1} s", jr.map_phase_end_secs);
    println!(
        "shuffle span:      {:>9.1} s  ({:.1} s .. {:.1} s)",
        jr.shuffle_secs(),
        jr.shuffle_start_secs,
        jr.shuffle_end_secs
    );
    println!(
        "remote shuffle:    {:>9.2} GB   local: {:.2} GB",
        jr.remote_shuffle_bytes as f64 / 1e9,
        jr.local_shuffle_bytes as f64 / 1e9
    );
    println!("reducer skew:      {:>9.2}x", jr.reducer_skew_ratio);
    println!("rules installed:   {:>9}", report.rules_installed);
    println!(
        "trunk imbalance:   {:>9.3}  (1.0 = balanced)",
        report.trunk_imbalance()
    );
    println!("engine events:     {:>9}", report.events_processed);
    // Two runs printing the same fingerprint were observably identical
    // (the kill-and-resume drill compares an interrupted run against an
    // uninterrupted one through this line).
    println!("fingerprint:       {}", report.fingerprint());
    if args.seqdiag {
        println!(
            "\n{}",
            render_seqdiag(&report.timeline, &SeqDiagramOptions::default())
        );
    }
}
