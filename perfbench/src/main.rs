//! The repository benchmark: one seeded workload per invocation.
//!
//! ```text
//! perfbench --workload <oltp_local|batch_etl|wire_durable> --seed <n>
//!           --seconds <n> --trace <0|1> [--out-dir <dir>] [--flip-oracle]
//! ```
//!
//! Every operation's outcome is checked against the generator's model; any
//! mismatch aborts the run with exit code 1. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
//! ones). The lines before it give the host, the bases of ratios and the
//! sample counts.

mod gen;
mod local;
mod reference;
mod stats;
mod trace;
mod wire;
mod workload;

use std::path::PathBuf;
use workload::{select, Ctx, Report};

/// The end-to-end metrics, printed by every untraced run; the same list as
/// `end_to_end` in BENCHMARK.json.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("commit_p50_rel", "ref"),
    ("commit_p99_rel", "ref"),
    ("reject_p50_rel", "ref"),
    ("txn_per_cpu_rel", "1/ref"),
    ("read_p50_rel", "ref"),
    ("scan_p50_rel", "ref"),
    ("install_p50_rel", "ref"),
    ("recovery_rel", "ref"),
    ("write_amp", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric, printed by every traced run (0 where the
/// workload does not exercise the layer); the same list as `per_layer` in
/// BENCHMARK.json.
const PER_LAYER: &[(&str, &str)] = &[
    ("commit_p50_us", "us"),
    ("commit_p99_us", "us"),
    ("reject_p50_us", "us"),
    ("txn_per_cpu_s", "1/s"),
    ("read_p50_us", "us"),
    ("scan_p50_ms", "ms"),
    ("install_p50_ms", "ms"),
    ("recovery_s", "s"),
    ("host.reference_us", "us"),
    ("sql.parse_us", "us"),
    ("session.dml_us", "us"),
    ("session.commit_us", "us"),
    ("session.reject_us", "us"),
    ("session.commit_stage_us", "us"),
    ("session.commit_check_us", "us"),
    ("session.commit_publish_us", "us"),
    ("session.commit_unattributed_frac", "ratio"),
    ("session.conflict_frac", "ratio"),
    ("core.check_us", "us"),
    ("core.views_evaluated_per_txn", "count"),
    ("core.views_skipped_relevance_per_txn", "count"),
    ("core.views_skipped_residual_per_txn", "count"),
    ("core.fallbacks_evaluated_per_txn", "count"),
    ("core.useful_eval_frac", "ratio"),
    ("core.normalized_away_frac", "ratio"),
    ("core.incremental_speedup", "ratio"),
    ("logic.translate_us", "us"),
    ("logic.edc_us", "us"),
    ("sqlgen.edc_sql_us", "us"),
    ("engine.prepare_us", "us"),
    ("core.initial_check_ms", "ms"),
    ("install.covered_frac", "ratio"),
    ("engine.versions_per_live_row", "ratio"),
    ("engine.dead_versions_end", "count"),
    ("engine.gc_pruned", "count"),
    ("wal.bytes_per_commit", "bytes"),
    ("wal.records_per_commit", "count"),
    ("wal.fsyncs_per_commit", "count"),
    ("wal.fsync_us", "us"),
    ("durability.checkpoint_ms", "ms"),
    ("durability.checkpoint_bytes", "bytes"),
    ("durability.replayed_per_s", "1/s"),
    ("server.request_us", "us"),
    ("server.wire_overhead_us", "us"),
    ("server.bytes_in_per_txn", "bytes"),
    ("server.bytes_out_per_txn", "bytes"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
    ("fail_frac", "ratio"),
];

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <oltp_local|batch_etl|wire_durable> --seed <n> \
         --seconds <n> --trace <0|1> [--out-dir <dir>] [--flip-oracle]"
    );
    std::process::exit(2);
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn result_line(correct: bool, r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from(".bench_build/perfbench");
    let mut flip_oracle = false;
    let mut i = 0;
    while i < args.len() {
        let value = || {
            args.get(i + 1)
                .unwrap_or_else(|| usage(&format!("{} needs a value", args[i])))
        };
        match args[i].as_str() {
            "--workload" => workload = Some(value().clone()),
            "--seed" => {
                seed = Some(
                    value()
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage("bad --seed")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .unwrap_or_else(|| usage("--seconds must be 1..=600")),
                );
            }
            "--trace" => {
                trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                });
            }
            "--out-dir" => out_dir = PathBuf::from(value()),
            "--flip-oracle" => {
                flip_oracle = true;
                i += 1;
                continue;
            }
            other => usage(&format!("unknown argument {other}")),
        }
        i += 2;
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage("--workload, --seed, --seconds and --trace are required");
    };
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        usage(&format!("cannot create {}: {e}", out_dir.display()));
    }
    let (fsync, fs) = workload::flush_policy(&out_dir);
    println!(
        "# data directory filesystem {fs}; flush policy: {}",
        if fsync {
            "fsync on (tmpfs)"
        } else {
            "fsync off (not tmpfs)"
        }
    );
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        out_dir,
        flip_oracle,
    };
    let result = match workload.as_str() {
        "oltp_local" => local::run(&local::OLTP_LOCAL, &ctx),
        "batch_etl" => local::run(&local::BATCH_ETL, &ctx),
        "wire_durable" => wire::run(&ctx),
        other => usage(&format!("unknown workload {other}")),
    };
    let result = result.and_then(|mut r| {
        if trace {
            select(&mut r, PER_LAYER, true)?;
        } else {
            select(&mut r, END_TO_END, false)?;
        }
        Ok(r)
    });
    match result {
        Ok(r) => {
            for line in &r.info {
                println!("# {line}");
            }
            println!("{}", result_line(true, &r));
        }
        Err(mismatch) => {
            eprintln!("perfbench: correctness check failed: {mismatch}");
            std::process::exit(1);
        }
    }
}
