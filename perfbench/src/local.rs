//! The in-process workloads, `oltp_local` and `batch_etl`: one client
//! `Session` over a `Server`, no wire and no write-ahead log in the
//! measured stream.

use crate::gen::{flip_first_violation, operations, Keys, Mix, Model, Op};
use crate::reference::Reference;
use crate::stats::{median, process_cpu_seconds, us};
use crate::trace::Tracer;
use crate::workload::{
    check_final_state, check_read, core_layer_metrics, end_to_end_metrics, finish_trace, generate,
    install_cycles, install_layer_metrics, judge, progress, restart_from_checkpoint, scan_once,
    scan_queries, server_layer_metrics, timed_setups, Ctx, EndToEnd, Mismatch, Report, Tally,
};
use std::time::Instant;
use tintin_session::{Server, Session, StatementOutcome};
use tintin_tpch::TpchCounts;

#[derive(Debug, Clone, Copy)]
pub struct LocalSpec {
    pub name: &'static str,
    /// TPC-H scale factor (1 paper-GB = SF 0.01).
    pub sf: f64,
    /// Transactions per second of `--seconds`: the list length is fixed by
    /// the arguments, never by how fast the program runs.
    pub txns_per_s: f64,
    pub batch: usize,
    pub violate_every: usize,
    pub reads_per_txn: f64,
    /// Scan-set runs and install/drop cycles, spread evenly through the
    /// stream so that each samples the whole run rather than one stretch
    /// of it.
    pub scans: usize,
    pub install_cycles: usize,
}

/// Reference units spread through the stream (`reference::Reference`),
/// the base of the stream's `*_rel` metrics and of the interleaved scans'
/// and installs'.
const REFERENCE_UNITS: usize = 200;

pub const OLTP_LOCAL: LocalSpec = LocalSpec {
    name: "oltp_local",
    sf: 0.01,
    txns_per_s: 20000.0,
    batch: 1,
    violate_every: 10,
    reads_per_txn: 0.25,
    scans: 30,
    install_cycles: 30,
};

pub const BATCH_ETL: LocalSpec = LocalSpec {
    name: "batch_etl",
    sf: 0.05,
    txns_per_s: 200.0,
    batch: 25,
    violate_every: 8,
    reads_per_txn: 4.0,
    scans: 12,
    install_cycles: 10,
};

struct Setup {
    server: Server,
    session: Session,
    /// The model of the loaded data.
    model: Model,
    counts: TpchCounts,
}

/// The program's set-up, which `setup_s` times: generate the data, load it
/// into a server and install the suite.
fn setup(spec: &LocalSpec, ctx: &Ctx) -> Result<Setup, Mismatch> {
    let (db, counts) = generate(spec.sf, ctx.seed);
    let model = Model::from_database(&db);
    let server = Server::with_database(db);
    let mut session = server.connect();
    session
        .install(&tintin_tpch::assertion_sql())
        .map_err(|e| format!("install: {e}"))?;
    Ok(Setup {
        server,
        session,
        model,
        counts,
    })
}

/// The operation list, and the model as the list leaves it.
fn operation_list(
    spec: &LocalSpec,
    ctx: &Ctx,
    mut model: Model,
    counts: TpchCounts,
) -> Result<(Vec<Op>, Model), Mismatch> {
    let keys = Keys {
        next: model.max_key() + 1,
        stride: 1,
    };
    let mix = Mix {
        txns: (spec.txns_per_s * ctx.seconds as f64).round() as usize,
        batch: spec.batch,
        violate_every: spec.violate_every,
        reads_per_txn: spec.reads_per_txn,
    };
    let mut ops = operations(ctx.seed, counts, &mut model, keys, mix);
    if ctx.flip_oracle && !flip_first_violation(&mut ops) {
        return Err("no violating transaction to flip".into());
    }
    Ok((ops, model))
}

/// Run one transaction script. Traced, the benchmark parses the script and
/// drives each statement itself, recording a span per layer call.
fn run_txn(
    session: &mut Session,
    script: &str,
    tracer: Option<&mut Tracer>,
) -> Result<StatementOutcome, String> {
    let Some(tr) = tracer else {
        let mut out = session.execute(script).map_err(|e| e.to_string())?;
        return out.pop().ok_or_else(|| "empty script".to_string());
    };
    let root = tr.open("txn", tr.now_ns());
    let t = tr.now_ns();
    let stmts = tintin_sql::parse_statements(script).map_err(|e| e.to_string())?;
    tr.record("sql.parse", Some(root), t, tr.now_ns());
    let mut last = None;
    for stmt in &stmts {
        let t = tr.now_ns();
        let (name, res) = match stmt {
            tintin_sql::Statement::Begin => ("session.begin", session.begin()),
            tintin_sql::Statement::Commit => ("session.commit", session.commit()),
            other => ("session.dml", session.execute_statement(other)),
        };
        let out = res.map_err(|e| e.to_string())?;
        let name = match (&out, name) {
            (StatementOutcome::Rejected { .. }, "session.commit") => "session.reject",
            _ => name,
        };
        tr.record(name, Some(root), t, tr.now_ns());
        last = Some(out);
    }
    tr.close(root, tr.now_ns());
    last.ok_or_else(|| "empty script".to_string())
}

pub fn run(spec: &LocalSpec, ctx: &Ctx) -> Result<Report, Mismatch> {
    let start = Instant::now();
    let mut r = Report::default();
    let (
        Setup {
            server,
            mut session,
            model,
            counts,
        },
        setup_s,
    ) = timed_setups(start, || setup(spec, ctx), drop)?;
    let (ops, model) = operation_list(spec, ctx, model, counts)?;
    let queries = scan_queries(&server);
    let txns = ops.iter().filter(|o| matches!(o, Op::Txn { .. })).count();
    let traced_from = if ctx.trace { txns / 2 } else { usize::MAX };

    let mut tracer = Tracer::default();
    let mut reference = Reference::default();
    // The untraced part of the stream, and the traced part; end-to-end
    // metrics read the untraced one.
    let mut parts: [Tally; 2] = Default::default();
    let mut part = 0;
    let mut scan_ms = Vec::new();
    let mut install_ms = Vec::new();
    let mut stages = Vec::new();
    // Does the `count`-times-per-stream interlude run before transaction `i`?
    let due = |i: usize, count: usize| {
        let every = txns / count.max(1);
        count > 0 && i % every == every / 2 && i / every < count
    };
    let cpu_start = process_cpu_seconds();
    // CPU spent in interludes (scans, installs, reference units), left out
    // of the stream's.
    let mut interlude_cpu = 0.0;
    let stream_cpu = |interlude_cpu: f64| process_cpu_seconds() - cpu_start - interlude_cpu;
    // (decided transactions, stream CPU seconds, registry) where the traced
    // part of the stream begins.
    let mut traced_mark = (0.0, 0.0, None);
    let mut txn_index = 0usize;
    for op in &ops {
        match op {
            Op::Txn { script, expect } => {
                if due(txn_index, spec.scans) {
                    let c = process_cpu_seconds();
                    scan_ms.push(scan_once(&queries, |q| {
                        session
                            .query_rows(q)
                            .map(|rs| rs.len())
                            .map_err(|e| e.to_string())
                    })?);
                    interlude_cpu += process_cpu_seconds() - c;
                }
                if due(txn_index, REFERENCE_UNITS) {
                    let c = process_cpu_seconds();
                    reference.sample(1);
                    interlude_cpu += process_cpu_seconds() - c;
                }
                if due(txn_index, spec.install_cycles) {
                    let c = process_cpu_seconds();
                    let (ms, st) = install_cycles(&mut session, 1, ctx.trace)?;
                    install_ms.extend(ms);
                    stages.extend(st);
                    interlude_cpu += process_cpu_seconds() - c;
                }
                if txn_index == traced_from {
                    traced_mark = (
                        parts[0].decided as f64,
                        stream_cpu(interlude_cpu),
                        Some(server.metrics_snapshot()),
                    );
                    part = 1;
                }
                let traced = part == 1;
                let tally = &mut parts[part];
                txn_index += 1;
                tally.attempted += 1;
                let t = Instant::now();
                let out = run_txn(&mut session, script, traced.then_some(&mut tracer));
                let elapsed = t.elapsed();
                match out {
                    Ok(outcome) => judge(tally, expect, &outcome, elapsed)?,
                    Err(e) => {
                        tally.failed += 1;
                        r.note(format!("failed transaction: {e}"));
                        if session.in_transaction() {
                            session.rollback().map_err(|e| format!("rollback: {e}"))?;
                        }
                    }
                }
            }
            Op::Read {
                sql,
                key,
                price_cents,
            } => {
                let tally = &mut parts[part];
                tally.attempted += 1;
                let t = Instant::now();
                let rows = session.query_rows(sql);
                let elapsed = t.elapsed();
                match rows {
                    Ok(rows) => {
                        check_read(*key, *price_cents, &rows)?;
                        tally.read_us.push(us(elapsed));
                    }
                    Err(e) => {
                        tally.failed += 1;
                        r.note(format!("failed read: {e}"));
                    }
                }
            }
        }
    }
    let untraced_cpu = if ctx.trace {
        traced_mark.1
    } else {
        stream_cpu(interlude_cpu)
    };
    let mut tally = Tally::default();
    tally.merge(&parts[0]);
    tally.merge(&parts[1]);
    let end_mark = (tally.decided as f64, stream_cpu(interlude_cpu));
    let end_snapshot = server.metrics_snapshot();
    progress(start, "stream done");
    check_final_state(&server, &model)?;
    progress(start, "final check done");

    if ctx.trace {
        let before = traced_mark.2.as_ref().expect("a traced part");
        let phases_ns = server_layer_metrics(&server, before, &end_snapshot, &mut r);
        core_layer_metrics(&tally.checks, median(&scan_ms), &mut r);
        install_layer_metrics(&install_ms, &stages, &mut r);
        let (totals, coverage) = finish_trace(&tracer, ctx, spec.name)?;
        let per = |name: &str| {
            totals
                .get(name)
                .map_or(0.0, |&(n, dur, _)| dur as f64 / 1e3 / n.max(1) as f64)
        };
        let traced_txns = totals.get("txn").map_or(0, |t| t.0);
        r.put("sql.parse_us", per("sql.parse"), "us");
        // DML statements summed per transaction.
        let dml = totals.get("session.dml").map_or(0, |t| t.1);
        r.put(
            "session.dml_us",
            dml as f64 / 1e3 / traced_txns.max(1) as f64,
            "us",
        );
        r.put("session.commit_us", per("session.commit"), "us");
        r.put("session.reject_us", per("session.reject"), "us");
        // The phase histograms and the commit spans cover the same calls:
        // every commit of the traced part, accepted or rejected.
        let commit_ns: u64 = ["session.commit", "session.reject"]
            .iter()
            .map(|n| totals.get(*n).map_or(0, |t| t.1))
            .sum();
        r.put(
            "session.commit_unattributed_frac",
            1.0 - phases_ns as f64 / commit_ns.max(1) as f64,
            "ratio",
        );
        r.put("trace.coverage_frac", coverage, "ratio");
        let untraced = traced_mark.0 / traced_mark.1.max(1e-9);
        let traced = (end_mark.0 - traced_mark.0) / (end_mark.1 - traced_mark.1).max(1e-9);
        r.put("trace.overhead_frac", untraced / traced - 1.0, "ratio");
        r.note(format!(
            "traced {traced_txns} of {txns} transactions; untraced {untraced:.0} txn/cpu-s, traced {traced:.0} txn/cpu-s"
        ));
    }

    let dir = ctx.out_dir.join(format!("data-{}", spec.name));
    let mut reopen_ref = Reference::default();
    let (ck_ms, ck_bytes, write_amp, reopen_s) =
        restart_from_checkpoint(server, &model, &dir, &mut reopen_ref)?;
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    progress(start, "restart done");

    if ctx.trace {
        r.put("durability.checkpoint_ms", ck_ms, "ms");
        r.put("durability.checkpoint_bytes", ck_bytes as f64, "bytes");
        r.put(
            "fail_frac",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            "ratio",
        );
    }
    end_to_end_metrics(
        &EndToEnd {
            setup_s: &setup_s,
            tally: &parts[0],
            stream_cpu_s: untraced_cpu,
            scan_ms: &scan_ms,
            install_ms: &install_ms,
            reopen_s: &reopen_s,
            write_amp,
            stream_ref_us: &reference.samples_us,
            scan_ref_us: &reference.samples_us,
            reopen_ref_us: &reopen_ref.samples_us,
        },
        &mut r,
    )?;
    r.note(format!("restart checkpoint {ck_bytes} bytes"));
    r.attempted = tally.attempted;
    r.failed = tally.failed;
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(flip: bool) -> Result<Report, Mismatch> {
        let spec = LocalSpec {
            name: "oltp_tiny",
            sf: 0.001,
            txns_per_s: 1200.0,
            scans: 2,
            install_cycles: 2,
            ..OLTP_LOCAL
        };
        let out_dir =
            std::env::temp_dir().join(format!("perfbench-local-{}-{flip}", std::process::id()));
        std::fs::create_dir_all(&out_dir).unwrap();
        let ctx = Ctx {
            seed: 3,
            seconds: 1,
            trace: false,
            out_dir: out_dir.clone(),
            flip_oracle: flip,
        };
        let r = run(&spec, &ctx);
        std::fs::remove_dir_all(&out_dir).unwrap();
        r
    }

    #[test]
    fn oracle_accepts_a_correct_run() {
        let r = tiny(false).expect("a correct run passes the oracle");
        assert_eq!(r.failed, 0);
        assert!(r.metrics.iter().any(|m| m.0 == "commit_p99_us"));
    }

    #[test]
    fn oracle_rejects_a_flipped_expectation() {
        let err = tiny(true).expect_err("a flipped expectation must fail the run");
        assert!(err.contains("expected Commit"), "{err}");
    }
}
