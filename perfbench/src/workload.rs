//! Pieces every workload shares: the run context, the metric report, the
//! outcome oracle, the scan and install phases, and the restart phase.

use crate::gen::{Expect, Model};
use crate::reference::Reference;
use crate::stats::{block_quantile, mean, median, ms, peak_rss_mib, tail_quantile, us};
use crate::trace::{totals_by_name, Totals, Tracer};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tintin::{CheckStats, Tintin, Violation};
use tintin_engine::Database;
use tintin_obs::Snapshot;
use tintin_session::{DurabilityOptions, Server, Session, StatementOutcome};
use tintin_tpch::{assertion_sql, Dbgen, TpchCounts, TPCH_ASSERTIONS, TPCH_TABLES};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// Timed reopens of the data directory per run; `recovery_s` is their
/// median.
pub const REOPENS: usize = 10;
/// Reference units run before each reopen, the base of `recovery_rel`.
const REFERENCE_PER_REOPEN: usize = 5;

/// Report a phase boundary on standard error.
pub fn progress(start: Instant, what: &str) {
    eprintln!("perfbench: {:8.3}s {what}", start.elapsed().as_secs_f64());
}

/// A failed correctness check: the run aborts and reports no metrics.
pub type Mismatch = String;

/// Build a workload's set-up [`SETUP_REPEATS`] times, timing each build.
/// `discard` releases one set-up before the next is built. Returns the
/// last set-up and every build time (s).
pub fn timed_setups<T>(
    start: Instant,
    mut build: impl FnMut() -> Result<T, Mismatch>,
    mut discard: impl FnMut(T),
) -> Result<(T, Vec<f64>), Mismatch> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(b) = built.take() {
            discard(b);
        }
        let t = Instant::now();
        built = Some(build()?);
        times.push(t.elapsed().as_secs_f64());
        progress(start, "set-up done");
    }
    Ok((built.expect("at least one set-up"), times))
}

#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Scratch space for data directories and the span file.
    pub out_dir: PathBuf,
    /// Oracle self-test: mark the first violating transaction as valid.
    pub flip_oracle: bool,
}

/// Metrics of one run, in the order they were added.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Context lines printed before the result (bases of ratios, counts).
    pub info: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name, value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.info.push(line);
    }
}

/// Outcome tallies of the measured transaction stream.
#[derive(Debug, Default)]
pub struct Tally {
    pub commit_us: Vec<f64>,
    pub reject_us: Vec<f64>,
    pub read_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub decided: u64,
    pub committed_bytes: u64,
    pub checks: CheckTotals,
}

impl Tally {
    pub fn merge(&mut self, other: &Tally) {
        self.commit_us.extend_from_slice(&other.commit_us);
        self.reject_us.extend_from_slice(&other.reject_us);
        self.read_us.extend_from_slice(&other.read_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.decided += other.decided;
        self.committed_bytes += other.committed_bytes;
        self.checks.merge(&other.checks);
    }
}

/// `CheckStats` summed over decided transactions.
#[derive(Debug, Default)]
pub struct CheckTotals {
    pub txns: u64,
    pub evaluated: u64,
    pub skipped_relevance: u64,
    pub skipped_residual: u64,
    pub fallbacks: u64,
    pub violations: u64,
    pub normalized_away: u64,
    pub events: u64,
    pub check_us: Vec<f64>,
}

impl CheckTotals {
    fn add(&mut self, stats: &CheckStats, events: usize, violations: usize) {
        self.txns += 1;
        self.evaluated += stats.views_evaluated as u64;
        self.skipped_relevance += stats.views_skipped_relevance as u64;
        self.skipped_residual += stats.views_skipped_residual as u64;
        self.fallbacks += stats.fallbacks_evaluated as u64;
        self.violations += violations as u64;
        self.normalized_away += stats.normalization.total() as u64;
        self.events += events as u64;
        self.check_us.push(us(stats.check_time));
    }

    fn merge(&mut self, o: &CheckTotals) {
        self.txns += o.txns;
        self.evaluated += o.evaluated;
        self.skipped_relevance += o.skipped_relevance;
        self.skipped_residual += o.skipped_residual;
        self.fallbacks += o.fallbacks;
        self.violations += o.violations;
        self.normalized_away += o.normalized_away;
        self.events += o.events;
        self.check_us.extend_from_slice(&o.check_us);
    }
}

/// Check a transaction's final outcome against the generator's
/// expectation and tally it. `Err` is a wrong verdict: the run aborts.
pub fn judge(
    tally: &mut Tally,
    expect: &Expect,
    outcome: &StatementOutcome,
    elapsed: Duration,
) -> Result<(), Mismatch> {
    tally.decided += 1;
    match (expect, outcome) {
        (
            Expect::Commit {
                inserted,
                deleted,
                bytes,
            },
            StatementOutcome::Committed {
                inserted: i,
                deleted: d,
                stats,
            },
        ) if inserted == i && deleted == d => {
            tally.commit_us.push(us(elapsed));
            tally.committed_bytes += *bytes as u64;
            tally.checks.add(stats, i + d, 0);
            Ok(())
        }
        (Expect::Reject { assertion }, StatementOutcome::Rejected { violations, stats })
            if names(violations)
                .iter()
                .any(|n| n.eq_ignore_ascii_case(assertion)) =>
        {
            tally.reject_us.push(us(elapsed));
            tally.checks.add(stats, 0, violations.len());
            Ok(())
        }
        (expect, StatementOutcome::Rejected { violations, .. }) => Err(format!(
            "expected {expect:?}, got a rejection naming {:?}",
            names(violations)
        )),
        (expect, other) => Err(format!("expected {expect:?}, got {other:?}")),
    }
}

fn names(violations: &[Violation]) -> Vec<&str> {
    violations.iter().map(|v| v.assertion.as_str()).collect()
}

/// Check a point read against the model's price.
pub fn check_read(
    key: i64,
    price_cents: i64,
    rows: &tintin_engine::ResultSet,
) -> Result<(), Mismatch> {
    match rows.rows.as_slice() {
        [row] if crate::gen::cents(&row[0]) == Some(price_cents) => Ok(()),
        other => Err(format!(
            "read of order {key}: expected price {price_cents} cents, got {other:?}"
        )),
    }
}

/// The TPC-H database at scale factor `sf`, generated from `seed`.
pub fn generate(sf: f64, seed: u64) -> (Database, TpchCounts) {
    let gen = Dbgen::new(sf).with_seed(seed);
    (gen.generate(), gen.counts())
}

/// The assertions' original queries as SQL text: the paper's
/// non-incremental comparator.
pub fn scan_queries(server: &Server) -> Vec<String> {
    server
        .installations()
        .iter()
        .flat_map(|i| i.assertions.iter())
        .flat_map(|a| a.original_queries.iter().map(|q| q.to_string()))
        .collect()
}

/// Run the scan set once through `query`; every query must return no rows.
pub fn scan_once(
    queries: &[String],
    mut query: impl FnMut(&str) -> Result<usize, String>,
) -> Result<f64, Mismatch> {
    let t = Instant::now();
    for q in queries {
        let n = query(q)?;
        if n != 0 {
            return Err(format!("assertion query returned {n} rows: {q}"));
        }
    }
    Ok(ms(t.elapsed()))
}

/// Per-stage times of one install of the suite, from the benchmark calling
/// each module the way `Tintin::install` does.
#[derive(Debug, Default, Clone, Copy)]
pub struct InstallStages {
    pub translate: Duration,
    pub edc: Duration,
    pub sqlgen: Duration,
    pub prepare: Duration,
    pub initial_check: Duration,
}

impl InstallStages {
    fn total(&self) -> Duration {
        self.translate + self.edc + self.sqlgen + self.prepare + self.initial_check
    }
}

/// Time the install pipeline's stages for the suite against the server's
/// current catalog. Needs the suite installed (its event tables exist).
fn install_stages(server: &Server) -> Result<InstallStages, Mismatch> {
    let db = server.database().read();
    let tintin = server.checker();
    let cat = Tintin::catalog_of(&db);
    let mut reg = tintin_logic::Registry::new();
    let mut st = InstallStages::default();
    for text in assertion_sql() {
        let Ok(tintin_sql::Statement::CreateAssertion(a)) = tintin_sql::parse_statement(text)
        else {
            return Err(format!("suite entry is not an assertion: {text}"));
        };
        let t = Instant::now();
        let denials = tintin_logic::translate_assertion(&cat, &mut reg, &a)
            .map_err(|e| format!("translate {}: {e}", a.name))?;
        st.translate += t.elapsed();
        let t = Instant::now();
        let mut edcs = Vec::new();
        for d in &denials {
            let mut g = tintin_logic::EdcGenerator::new(&mut reg, &cat, tintin.config.edc);
            edcs.extend(g.generate(d).map_err(|e| format!("edc {}: {e}", a.name))?);
        }
        st.edc += t.elapsed();
        let t = Instant::now();
        let views = tintin_sqlgen::generate_views(&cat, &reg, &edcs)
            .map_err(|e| format!("sqlgen {}: {e}", a.name))?;
        st.sqlgen += t.elapsed();
        let t = Instant::now();
        for v in &views {
            db.prepare(&v.query)
                .map_err(|e| format!("prepare {}: {e}", v.name))?;
        }
        st.prepare += t.elapsed();
    }
    let t = Instant::now();
    for inst in server.installations() {
        let found = tintin
            .check_current_state(&db, &inst)
            .map_err(|e| format!("check_current_state: {e}"))?;
        if let Some((name, n)) = found.iter().find(|(_, n)| *n > 0) {
            return Err(format!("{name} has {n} violating rows"));
        }
    }
    st.initial_check += t.elapsed();
    Ok(st)
}

/// `cycles` install/drop cycles of the suite through `session`, which
/// starts and ends with the suite installed. Returns each install's time,
/// and with `trace` the stage breakdown taken after each install.
pub fn install_cycles(
    session: &mut Session,
    cycles: usize,
    trace: bool,
) -> Result<(Vec<f64>, Vec<InstallStages>), Mismatch> {
    let suite = assertion_sql();
    let mut times = Vec::with_capacity(cycles);
    let mut stages = Vec::new();
    for _ in 0..cycles {
        let names = session.server().assertion_names();
        for n in &names {
            session
                .drop_assertion(n)
                .map_err(|e| format!("drop {n}: {e}"))?;
        }
        let t = Instant::now();
        let inst = session
            .install(&suite)
            .map_err(|e| format!("install: {e}"))?;
        times.push(ms(t.elapsed()));
        if inst.assertions.len() != TPCH_ASSERTIONS.len() {
            return Err(format!("installed {} assertions", inst.assertions.len()));
        }
        if trace {
            stages.push(install_stages(session.server())?);
        }
    }
    Ok((times, stages))
}

/// Compare the server's committed state with the model: row counts, every
/// order's price, and every assertion's original query (must be empty).
pub fn check_final_state(server: &Server, model: &Model) -> Result<(), Mismatch> {
    let db = server.database().read();
    let tintin = server.checker();
    for inst in server.installations() {
        let found = tintin
            .check_current_state(&db, &inst)
            .map_err(|e| format!("check_current_state: {e}"))?;
        if let Some((name, n)) = found.iter().find(|(_, n)| *n > 0) {
            return Err(format!("final state violates {name} ({n} rows)"));
        }
    }
    let lines = db.table("lineitem").map_or(0, |t| t.len());
    if lines != model.lineitems {
        return Err(format!(
            "lineitem has {lines} rows, the model {}",
            model.lineitems
        ));
    }
    let mut prices: Vec<(i64, i64)> = match db.table("orders") {
        Some(t) => t
            .scan()
            .map(|(_, r)| match (&r[0], crate::gen::cents(&r[2])) {
                (tintin_engine::Value::Int(k), Some(p)) => Ok((*k, p)),
                _ => Err(format!("malformed orders row {r:?}")),
            })
            .collect::<Result<_, _>>()?,
        None => return Err("orders table is missing".into()),
    };
    prices.sort_unstable();
    let want = model.prices();
    if prices != want {
        let first = prices.iter().zip(&want).find(|(a, b)| a != b);
        return Err(format!(
            "orders differ from the model ({} rows vs {}; first difference {first:?})",
            prices.len(),
            want.len()
        ));
    }
    Ok(())
}

/// Flush policy for a data directory: fsync stays on only where the
/// directory is on tmpfs, so no timed number includes a device flush.
pub fn flush_policy(dir: &Path) -> (bool, String) {
    let fs = filesystem_of(dir).unwrap_or_else(|| "unknown".into());
    (fs == "tmpfs", fs)
}

/// The filesystem type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/self/mounts`).
fn filesystem_of(dir: &Path) -> Option<String> {
    let dir = dir.canonicalize().ok()?;
    let mounts = std::fs::read_to_string("/proc/self/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mnt, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mnt).then(|| (mnt.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

pub fn fresh_dir(dir: &Path) -> Result<(), Mismatch> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Reopen the data directory `REOPENS` times, running reference units
/// before each; each recovery must replay exactly `expect_replayed` commits
/// and restore the model's row counts. Returns the reopen times (s), the
/// replay rates, and the last server.
pub fn reopen_cycles(
    dir: &Path,
    fsync: bool,
    model: &Model,
    expect_replayed: usize,
    reference: &mut Reference,
) -> Result<(Vec<f64>, Vec<f64>, Server), Mismatch> {
    let opts = DurabilityOptions {
        fsync,
        ..DurabilityOptions::default()
    };
    let mut times = Vec::new();
    let mut rates = Vec::new();
    let mut last = None;
    for _ in 0..REOPENS {
        drop(last.take());
        reference.sample(REFERENCE_PER_REOPEN);
        let t = Instant::now();
        let server = Server::open_with(dir, &opts).map_err(|e| format!("reopen: {e}"))?;
        times.push(t.elapsed().as_secs_f64());
        let summary = server.recovery_summary().expect("durable server");
        if summary.commits_replayed != expect_replayed {
            return Err(format!(
                "recovery replayed {} commits, {expect_replayed} were acknowledged since the checkpoint",
                summary.commits_replayed
            ));
        }
        rates.push(summary.commits_replayed as f64 / summary.elapsed.as_secs_f64());
        {
            let db = server.database().read();
            let (o, l) = (
                db.table("orders").map_or(0, |t| t.len()),
                db.table("lineitem").map_or(0, |t| t.len()),
            );
            if (o, l) != (model.orders(), model.lineitems) {
                return Err(format!(
                    "recovered {o} orders / {l} line items, the model has {} / {}",
                    model.orders(),
                    model.lineitems
                ));
            }
        }
        last = Some(server);
    }
    Ok((times, rates, last.expect("at least one reopen")))
}

/// The restart phase of the in-process workloads: persist the final
/// state as a checkpoint in a fresh data directory, then time reopening
/// it. Returns (checkpoint time, checkpoint bytes, bytes written per user
/// byte, reopen times).
pub fn restart_from_checkpoint(
    server: Server,
    model: &Model,
    dir: &Path,
    reference: &mut Reference,
) -> Result<(f64, u64, f64, Vec<f64>), Mismatch> {
    let tables: Vec<(&str, Vec<Vec<tintin_engine::Value>>)> = {
        let db = server.database().read();
        TPCH_TABLES
            .iter()
            .map(|t| {
                let rows = db
                    .table(t)
                    .map(|tb| tb.scan().map(|(_, r)| r.to_vec()).collect())
                    .unwrap_or_default();
                (*t, rows)
            })
            .collect()
    };
    drop(server);
    let user_bytes: usize = tables
        .iter()
        .flat_map(|(_, rows)| rows.iter())
        .map(|r| tintin_tpch::sizing::row_bytes(r))
        .sum();
    fresh_dir(dir)?;
    let (fsync, _) = flush_policy(dir);
    let durable = Server::open_with(
        dir,
        &DurabilityOptions {
            fsync,
            ..DurabilityOptions::default()
        },
    )
    .map_err(|e| format!("open data dir: {e}"))?;
    let mut s = durable.connect();
    s.execute(tintin_tpch::TPCH_SCHEMA_SQL)
        .map_err(|e| format!("schema: {e}"))?;
    {
        let mut db = durable.database().write();
        for (t, rows) in tables {
            db.insert_direct(t, rows)
                .map_err(|e| format!("load {t}: {e}"))?;
        }
    }
    s.install(&assertion_sql())
        .map_err(|e| format!("install: {e}"))?;
    let t = Instant::now();
    durable
        .checkpoint()
        .map_err(|e| format!("checkpoint: {e}"))?;
    let ck_ms = ms(t.elapsed());
    let status = durable.wal_status().expect("durable server");
    let ck_bytes = file_len(&status.checkpoint_path);
    let written = ck_bytes + file_len(&status.wal_path);
    drop(s);
    drop(durable);
    let (times, _, last) = reopen_cycles(dir, fsync, model, 0, reference)?;
    drop(last);
    Ok((ck_ms, ck_bytes, written as f64 / user_bytes as f64, times))
}

/// Observations and summed nanoseconds a histogram gained between two
/// snapshots of one registry.
pub fn hist_delta(before: &Snapshot, after: &Snapshot, name: &str) -> (u64, u64) {
    let get = |snap: &Snapshot| {
        snap.histogram(name)
            .map_or((0, 0), |h| (h.count, h.sum_nanos))
    };
    let ((c0, s0), (c1, s1)) = (get(before), get(after));
    (c1 - c0, s1 - s0)
}

/// Mean of the observations a histogram gained between two snapshots, in
/// microseconds.
pub fn mean_delta_us(before: &Snapshot, after: &Snapshot, name: &str) -> f64 {
    let (n, sum) = hist_delta(before, after, name);
    sum as f64 / 1e3 / n.max(1) as f64
}

/// The layer metrics read from the server's own registry, over the commits
/// made between the `before` and `after` snapshots, and from its engine.
/// Returns the nanoseconds the three commit phases took in all, over every
/// phased commit, accepted or rejected.
pub fn server_layer_metrics(
    server: &Server,
    before: &Snapshot,
    after: &Snapshot,
    r: &mut Report,
) -> u64 {
    let phase = |name: &str| hist_delta(before, after, name);
    let (stage, check, publish) = (
        phase("tintin_commit_stage_seconds"),
        phase("tintin_commit_check_seconds"),
        phase("tintin_commit_publish_seconds"),
    );
    let mean = |(n, sum): (u64, u64)| sum as f64 / 1e3 / n.max(1) as f64;
    r.put("session.commit_stage_us", mean(stage), "us");
    r.put("session.commit_check_us", mean(check), "us");
    r.put("session.commit_publish_us", mean(publish), "us");
    r.note(format!(
        "commit phases: stage {:.2} us over {} commits, check {:.2} us over {}, publish {:.2} us over {} accepted; tintin_commit_seconds {:.2} us",
        mean(stage),
        stage.0,
        mean(check),
        check.0,
        mean(publish),
        publish.0,
        mean_delta_us(before, after, "tintin_commit_seconds")
    ));
    let c =
        |name: &str| (after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)) as f64;
    r.put(
        "session.conflict_frac",
        c("tintin_commit_conflicts_total") / c("tintin_commit_attempts_total").max(1.0),
        "ratio",
    );
    let mvcc = server.database().read().mvcc_stats();
    r.put("engine.versions_per_live_row", mvcc.chain_length(), "ratio");
    r.put(
        "engine.dead_versions_end",
        mvcc.dead_versions as f64,
        "count",
    );
    r.put("engine.gc_pruned", mvcc.gc_pruned as f64, "count");
    stage.1 + check.1 + publish.1
}

/// The core-layer metrics from summed `CheckStats`, and the paper's
/// headline ratio with both of its bases.
pub fn core_layer_metrics(checks: &CheckTotals, scan_ms: f64, r: &mut Report) {
    let per = |n: u64| n as f64 / checks.txns.max(1) as f64;
    let check_us = median(&checks.check_us);
    r.put("core.check_us", check_us, "us");
    r.put(
        "core.views_evaluated_per_txn",
        per(checks.evaluated),
        "count",
    );
    r.put(
        "core.views_skipped_relevance_per_txn",
        per(checks.skipped_relevance),
        "count",
    );
    r.put(
        "core.views_skipped_residual_per_txn",
        per(checks.skipped_residual),
        "count",
    );
    r.put(
        "core.fallbacks_evaluated_per_txn",
        per(checks.fallbacks),
        "count",
    );
    r.put(
        "core.useful_eval_frac",
        checks.violations as f64 / (checks.evaluated + checks.fallbacks).max(1) as f64,
        "ratio",
    );
    r.put(
        "core.normalized_away_frac",
        checks.normalized_away as f64 / (checks.events + checks.normalized_away).max(1) as f64,
        "ratio",
    );
    let speedup = scan_ms * 1e3 / check_us.max(1e-3);
    r.put("core.incremental_speedup", speedup, "ratio");
    r.note(format!(
        "incremental speedup {speedup:.1} = scan_p50_ms {scan_ms:.3} ms / core.check_us {check_us:.3} us"
    ));
}

/// Install-stage metrics and the share of install time they account for.
pub fn install_layer_metrics(install_ms: &[f64], stages: &[InstallStages], r: &mut Report) {
    let med = |f: fn(&InstallStages) -> Duration| {
        median(&stages.iter().map(|s| us(f(s))).collect::<Vec<_>>())
    };
    r.put("logic.translate_us", med(|s| s.translate), "us");
    r.put("logic.edc_us", med(|s| s.edc), "us");
    r.put("sqlgen.edc_sql_us", med(|s| s.sqlgen), "us");
    r.put("engine.prepare_us", med(|s| s.prepare), "us");
    r.put(
        "core.initial_check_ms",
        med(|s| s.initial_check) / 1e3,
        "ms",
    );
    let covered =
        mean(&stages.iter().map(|s| ms(s.total())).collect::<Vec<_>>()) / mean(install_ms);
    r.put("install.covered_frac", covered, "ratio");
}

/// What a workload measured for the end-to-end metrics.
pub struct EndToEnd<'a> {
    pub setup_s: &'a [f64],
    /// The stream, or in a traced run its untraced part.
    pub tally: &'a Tally,
    /// Process CPU seconds the stream took, interludes left out.
    pub stream_cpu_s: f64,
    pub scan_ms: &'a [f64],
    pub install_ms: &'a [f64],
    pub reopen_s: &'a [f64],
    pub write_amp: f64,
    /// Times (µs) of the reference units run during the stream, alongside
    /// the scans and installs, and before each reopen.
    pub stream_ref_us: &'a [f64],
    pub scan_ref_us: &'a [f64],
    pub reopen_ref_us: &'a [f64],
}

/// Every end-to-end metric, under one estimator policy for all workloads:
/// the whole run's p50 of each stream latency, the median over blocks of
/// the commit p99 ([`block_quantile`]), the whole stream's rate, and the
/// median of each one-off operation's samples. Each timing is reported as
/// measured (`*_us`, `*_ms`, `*_s`) and divided by the median time of the
/// reference units run beside it (`*_rel`, unit `ref`).
pub fn end_to_end_metrics(m: &EndToEnd, r: &mut Report) -> Result<(), Mismatch> {
    let t = m.tally;
    let short = |samples: &[f64], q: f64, what: &str| {
        format!(
            "{} {what} cannot support a p{} with ten samples beyond it",
            samples.len(),
            q * 100.0
        )
    };
    let p50 = |samples: &[f64], what: &str| {
        tail_quantile(samples, 0.5).ok_or_else(|| short(samples, 0.5, what))
    };
    let commit_p50 = p50(&t.commit_us, "commits")?;
    let commit_p99 =
        block_quantile(&t.commit_us, 0.99).ok_or_else(|| short(&t.commit_us, 0.99, "commits"))?;
    let reject_p50 = p50(&t.reject_us, "rejects")?;
    let read_p50 = p50(&t.read_us, "reads")?;
    let txn_per_cpu_s = t.decided as f64 / m.stream_cpu_s.max(1e-9);
    let (scan, install, reopen) = (median(m.scan_ms), median(m.install_ms), median(m.reopen_s));
    r.put("setup_s", median(m.setup_s), "s");
    r.put("commit_p50_us", commit_p50, "us");
    r.put("commit_p99_us", commit_p99, "us");
    r.put("reject_p50_us", reject_p50, "us");
    r.put("txn_per_cpu_s", txn_per_cpu_s, "1/s");
    r.put("read_p50_us", read_p50, "us");
    r.put("scan_p50_ms", scan, "ms");
    r.put("install_p50_ms", install, "ms");
    r.put("recovery_s", reopen, "s");
    r.put("write_amp", m.write_amp, "ratio");
    r.put("peak_rss_mb", peak_rss_mib(), "MiB");

    let (stream_us, scan_us, reopen_us) = (
        median(m.stream_ref_us),
        median(m.scan_ref_us),
        median(m.reopen_ref_us),
    );
    r.put("commit_p50_rel", commit_p50 / stream_us, "ref");
    r.put("commit_p99_rel", commit_p99 / stream_us, "ref");
    r.put("reject_p50_rel", reject_p50 / stream_us, "ref");
    r.put("txn_per_cpu_rel", txn_per_cpu_s * stream_us / 1e6, "1/ref");
    r.put("read_p50_rel", read_p50 / stream_us, "ref");
    r.put("scan_p50_rel", scan * 1e3 / scan_us, "ref");
    r.put("install_p50_rel", install * 1e3 / scan_us, "ref");
    r.put("recovery_rel", reopen * 1e6 / reopen_us, "ref");
    r.put("host.reference_us", stream_us, "us");
    r.note(format!(
        "reference unit (median us, units): stream {stream_us:.2} ({}), scans and installs {scan_us:.2} ({}), reopens {reopen_us:.2} ({})",
        m.stream_ref_us.len(),
        m.scan_ref_us.len(),
        m.reopen_ref_us.len()
    ));
    r.note(format!(
        "samples: {} accepted commits (whole-run p99 {:.2} us), {} rejects, {} reads; {} decided transactions in {:.3} CPU-s",
        t.commit_us.len(),
        tail_quantile(&t.commit_us, 0.99).unwrap_or(f64::NAN),
        t.reject_us.len(),
        t.read_us.len(),
        t.decided,
        m.stream_cpu_s
    ));
    let fastest = |s: &[f64]| s.iter().copied().fold(f64::INFINITY, f64::min);
    r.note(format!(
        "one-off operations, samples and fastest: set-up {} ({:.4} s), scan set {} ({:.3} ms), install {} ({:.3} ms), reopen {} ({:.4} s)",
        m.setup_s.len(),
        fastest(m.setup_s),
        m.scan_ms.len(),
        fastest(m.scan_ms),
        m.install_ms.len(),
        fastest(m.install_ms),
        m.reopen_s.len(),
        fastest(m.reopen_s)
    ));
    Ok(())
}

/// Keep only the metrics `names` lists, in its order; the others become a
/// context line. A run computes more metrics than one list holds; a listed
/// metric the run did not compute is an error, or with `fill` (for
/// per-layer metrics a workload does not exercise) reported as 0, so every
/// run prints its full list.
pub fn select(
    r: &mut Report,
    names: &[(&'static str, &'static str)],
    fill: bool,
) -> Result<(), Mismatch> {
    let mut kept = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        match r.metrics.iter().find(|m| m.0 == name) {
            Some(&m) => kept.push(m),
            None if fill => kept.push((name, 0.0, unit)),
            None => return Err(format!("the run computed no {name}")),
        }
    }
    let others: Vec<String> = r
        .metrics
        .iter()
        .filter(|m| !names.iter().any(|n| n.0 == m.0))
        .map(|(name, value, unit)| format!("{name} {value:.6} {unit}"))
        .collect();
    if !others.is_empty() {
        r.note(format!("also measured: {}", others.join(", ")));
    }
    r.metrics = kept;
    Ok(())
}

/// Write the span file and return the per-layer totals of the stream's
/// traced transactions: (layer name → summed ns), and the share of
/// transaction time inside the layer calls (1 − root self time / root
/// time). A root span holds nothing but the benchmark's own calls, so that
/// share is near 1 by construction: it shows that no call escapes a span.
/// The gap inside commit is `session.commit_unattributed_frac`.
pub fn finish_trace(tracer: &Tracer, ctx: &Ctx, workload: &str) -> Result<(Totals, f64), Mismatch> {
    let path = ctx
        .out_dir
        .join(format!("spans-{workload}-{}.jsonl", ctx.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let totals = totals_by_name(tracer.spans());
    let (_, dur, self_ns) = totals.get("txn").copied().unwrap_or((0, 1, 1));
    Ok((totals, 1.0 - self_ns as f64 / dur.max(1) as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_keeps_the_listed_metrics_in_order() {
        let mut r = Report::default();
        r.put("b", 2.0, "us");
        r.put("a", 1.0, "ms");
        r.put("c", 3.0, "s");
        select(&mut r, &[("a", "ms"), ("b", "us")], false).unwrap();
        assert_eq!(r.metrics, vec![("a", 1.0, "ms"), ("b", 2.0, "us")]);
        assert_eq!(r.info, vec!["also measured: c 3.000000 s".to_string()]);
        // A missing metric fails the run, unless it may be filled with 0.
        assert!(select(&mut r, &[("d", "s")], false).is_err());
        select(&mut r, &[("a", "ms"), ("d", "s")], true).unwrap();
        assert_eq!(r.metrics, vec![("a", 1.0, "ms"), ("d", 0.0, "s")]);
    }
}
