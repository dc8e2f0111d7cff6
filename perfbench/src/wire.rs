//! The `wire_durable` workload: two `Client` connections to a `WireServer`
//! over a durable `Server` (write-ahead log and checkpoints), then timed
//! recovery of the data directory.

use crate::gen::{flip_first_violation, insert_statements, operations, Keys, Mix, Model, Op};
use crate::reference::Reference;
use crate::stats::{mean, median, ms, process_cpu_seconds, us};
use crate::trace::Tracer;
use crate::workload::{
    check_final_state, check_read, core_layer_metrics, end_to_end_metrics, file_len, finish_trace,
    flush_policy, fresh_dir, generate, install_cycles, install_layer_metrics, judge, mean_delta_us,
    progress, reopen_cycles, scan_once, scan_queries, server_layer_metrics, timed_setups, Ctx,
    EndToEnd, Mismatch, Report, Tally,
};
use std::path::Path;
use std::time::Instant;
use tintin_client::{Client, ClientError};
use tintin_server::{ServerConfig, WireServer};
use tintin_session::{DurabilityOptions, Server};
use tintin_tpch::{TpchCounts, TPCH_SCHEMA_SQL, TPCH_TABLES};

/// TPC-H scale factor of the loaded data (1 paper-GB).
const SF: f64 = 0.01;
/// Client connections, each on its own share of the order keys.
const CLIENTS: usize = 2;
/// Transactions per client per second of `--seconds`.
const TXNS_PER_S: f64 = 5000.0;
/// Where in the stream the second checkpoint falls: recovery replays the
/// commits acknowledged after it.
const CHECKPOINT_AT: f64 = 0.9;
/// Scan sets over the wire, each followed by one install/drop cycle.
const SCAN_ROUNDS: usize = 20;
/// Rows per `INSERT` statement of the initial load.
const LOAD_CHUNK: usize = 500;
/// Reference units each client runs, spread through its list: the base of
/// the stream's `*_rel` metrics.
const REFERENCE_UNITS: usize = 100;
/// Reference units run before each scan round, the base of `scan_p50_rel`
/// and `install_p50_rel`.
const REFERENCE_PER_ROUND: usize = 5;

struct Setup {
    wire: WireServer,
    /// The model of the loaded data.
    model: Model,
    counts: TpchCounts,
    checkpoint_ms: f64,
}

fn open(dir: &Path, fsync: bool) -> Result<Server, Mismatch> {
    Server::open_with(
        dir,
        &DurabilityOptions {
            fsync,
            ..DurabilityOptions::default()
        },
    )
    .map_err(|e| format!("open {}: {e}", dir.display()))
}

/// The program's set-up, which `setup_s` times: load the data through a
/// session into a fresh data directory, install the suite, take a
/// checkpoint and start serving.
fn setup(ctx: &Ctx, dir: &Path, fsync: bool) -> Result<Setup, Mismatch> {
    let (db, counts) = generate(SF, ctx.seed);
    let model = Model::from_database(&db);
    fresh_dir(dir)?;
    let server = open(dir, fsync)?;
    let mut s = server.connect();
    s.execute(TPCH_SCHEMA_SQL)
        .map_err(|e| format!("schema: {e}"))?;
    for t in TPCH_TABLES {
        let rows: Vec<Box<[tintin_engine::Value]>> = db
            .table(t)
            .map(|tb| tb.scan().map(|(_, r)| r.clone()).collect())
            .unwrap_or_default();
        for stmt in insert_statements(t, &rows, LOAD_CHUNK) {
            s.execute(&stmt).map_err(|e| format!("load {t}: {e}"))?;
        }
    }
    drop(db);
    s.install(&tintin_tpch::assertion_sql())
        .map_err(|e| format!("install: {e}"))?;
    let t = Instant::now();
    server
        .checkpoint()
        .map_err(|e| format!("checkpoint: {e}"))?;
    let checkpoint_ms = ms(t.elapsed());
    drop(s);
    let wire = WireServer::bind(server, "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    Ok(Setup {
        wire,
        model,
        counts,
        checkpoint_ms,
    })
}

/// One operation list per client, and the model as the lists leave it.
fn operation_lists(
    ctx: &Ctx,
    model: &Model,
    counts: TpchCounts,
) -> Result<(Vec<Vec<Op>>, Model), Mismatch> {
    // New keys interleave: client c allocates keys ≡ c (mod CLIENTS).
    let base = (model.max_key() / CLIENTS as i64 + 1) * CLIENTS as i64;
    let mut lists = Vec::with_capacity(CLIENTS);
    let mut end_model = Model::default();
    for c in 0..CLIENTS {
        let mut share = model.partition(CLIENTS as i64, c as i64);
        let mix = Mix {
            txns: (TXNS_PER_S * ctx.seconds as f64).round() as usize,
            batch: 1,
            violate_every: 10,
            reads_per_txn: 0.25,
        };
        let keys = Keys {
            next: base + c as i64,
            stride: CLIENTS as i64,
        };
        let seed = ctx
            .seed
            .wrapping_mul(CLIENTS as u64 + 1)
            .wrapping_add(c as u64);
        let mut ops = operations(seed, counts, &mut share, keys, mix);
        if c == 0 && ctx.flip_oracle && !flip_first_violation(&mut ops) {
            return Err("no violating transaction to flip".into());
        }
        lists.push(ops);
        end_model.absorb(share);
    }
    Ok((lists, end_model))
}

/// What one client measured.
struct ClientRun {
    tally: Tally,
    /// Client-side time of every request, transactions and reads.
    request_us: Vec<f64>,
    tracer: Tracer,
}

/// What all clients measured over one part of the stream.
struct PartRun {
    tally: Tally,
    request_us: Vec<f64>,
    tracers: Vec<Tracer>,
    /// Process CPU seconds the part took.
    cpu_s: f64,
}

/// One client's closed loop over a slice of its list, running a reference
/// unit before every `ref_every`-th operation.
fn drive(
    addr: std::net::SocketAddr,
    ops: &[Op],
    trace: bool,
    reference: &mut Reference,
    ref_every: usize,
) -> Result<ClientRun, Mismatch> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut tally = Tally::default();
    let mut request_us = Vec::with_capacity(ops.len());
    let mut tracer = Tracer::default();
    for (i, op) in ops.iter().enumerate() {
        if i % ref_every == ref_every / 2 {
            reference.sample(1);
        }
        tally.attempted += 1;
        let t0 = tracer.now_ns();
        let t = Instant::now();
        match op {
            Op::Txn { script, expect } => {
                let out = client.execute(script);
                let elapsed = t.elapsed();
                request_us.push(us(elapsed));
                match out {
                    Ok(mut outs) => {
                        let last = outs.pop().ok_or("empty response")?;
                        judge(&mut tally, expect, &last, elapsed)?;
                    }
                    Err(ClientError::Remote(e)) => {
                        tally.failed += 1;
                        eprintln!("perfbench: failed transaction: {e}");
                    }
                    Err(e) => return Err(format!("connection failed: {e}")),
                }
            }
            Op::Read {
                sql,
                key,
                price_cents,
            } => {
                let rows = client.query_rows(sql);
                let elapsed = t.elapsed();
                request_us.push(us(elapsed));
                match rows {
                    Ok(rows) => {
                        check_read(*key, *price_cents, &rows)?;
                        tally.read_us.push(us(elapsed));
                    }
                    Err(ClientError::Remote(e)) => {
                        tally.failed += 1;
                        eprintln!("perfbench: failed read: {e}");
                    }
                    Err(e) => return Err(format!("connection failed: {e}")),
                }
            }
        }
        if trace {
            tracer.record("client.request", None, t0, tracer.now_ns());
        }
    }
    client.close();
    Ok(ClientRun {
        tally,
        request_us,
        tracer,
    })
}

/// Run every client over its part `[from, to)` of its list concurrently;
/// client `c` runs its reference units on `refs[c]`.
fn run_part(
    addr: std::net::SocketAddr,
    lists: &[Vec<Op>],
    part: (f64, f64),
    trace: bool,
    refs: &mut [Reference],
) -> Result<PartRun, Mismatch> {
    let ref_cpu = |refs: &[Reference]| refs.iter().map(|r| r.cpu_s).sum::<f64>();
    let cpu0 = process_cpu_seconds() - ref_cpu(refs);
    let results: Vec<Result<ClientRun, Mismatch>> = std::thread::scope(|s| {
        let handles: Vec<_> = lists
            .iter()
            .zip(refs.iter_mut())
            .map(|(ops, reference)| {
                let (a, b) = (
                    (ops.len() as f64 * part.0) as usize,
                    (ops.len() as f64 * part.1) as usize,
                );
                let every = (ops.len() / REFERENCE_UNITS).max(1);
                s.spawn(move || drive(addr, &ops[a..b], trace, reference, every))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    // The reference units' CPU is left out of the stream's.
    let cpu_s = process_cpu_seconds() - ref_cpu(refs) - cpu0;
    let mut part = PartRun {
        tally: Tally::default(),
        request_us: Vec::new(),
        tracers: Vec::new(),
        cpu_s,
    };
    for r in results {
        let c = r?;
        part.tally.merge(&c.tally);
        part.request_us.extend(c.request_us);
        part.tracers.push(c.tracer);
    }
    Ok(part)
}

pub fn run(ctx: &Ctx) -> Result<Report, Mismatch> {
    let start = Instant::now();
    let mut r = Report::default();
    let dir = ctx.out_dir.join("data-wire_durable");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let (fsync, _) = flush_policy(&dir);
    let (
        Setup {
            wire,
            model,
            counts,
            checkpoint_ms: setup_ck_ms,
        },
        setup_s,
    ) = timed_setups(
        start,
        || setup(ctx, &dir, fsync),
        |b: Setup| b.wire.shutdown(),
    )?;
    let (lists, model) = operation_lists(ctx, &model, counts)?;
    let addr = wire.local_addr();
    let server = wire.sessions().clone();
    let ck_path = server.wal_status().expect("durable server").checkpoint_path;
    let before = server.metrics_snapshot();

    // The stream, a checkpoint, the rest of the stream: recovery then
    // replays exactly the commits acknowledged after the checkpoint.
    let mut stream_refs: Vec<Reference> = (0..CLIENTS).map(|_| Reference::default()).collect();
    let PartRun {
        tally: first,
        mut request_us,
        cpu_s: cpu_first,
        ..
    } = run_part(addr, &lists, (0.0, CHECKPOINT_AT), false, &mut stream_refs)?;
    let decided_first = first.decided as f64;
    let t = Instant::now();
    server
        .checkpoint()
        .map_err(|e| format!("checkpoint: {e}"))?;
    let mid_ck_ms = ms(t.elapsed());
    let ck_bytes = file_len(&ck_path);
    let second = run_part(
        addr,
        &lists,
        (CHECKPOINT_AT, 1.0),
        ctx.trace,
        &mut stream_refs,
    )?;
    // The checkpoint's CPU is left out of the stream's.
    let (decided_second, cpu_second) = (second.tally.decided as f64, second.cpu_s);
    let acked_since_checkpoint = second.tally.commit_us.len();
    let mut tally = Tally::default();
    tally.merge(&first);
    tally.merge(&second.tally);
    request_us.extend(second.request_us);
    let tracers = second.tracers;
    let after = server.metrics_snapshot();
    progress(start, "stream done");

    check_final_state(&server, &model)?;
    if ctx.trace {
        server_layer_metrics(&server, &before, &after, &mut r);
    }
    drop(server);
    wire.shutdown();
    progress(start, "final check done");

    let mut reopen_ref = Reference::default();
    let (reopen_s, replay_rates, reopened) =
        reopen_cycles(&dir, fsync, &model, acked_since_checkpoint, &mut reopen_ref)?;
    progress(start, "reopens done");
    // Scan sets over the wire alternate with install/drop cycles on the
    // recovered server, so both sample the same stretch of the run.
    let queries = scan_queries(&reopened);
    let mut session = reopened.connect();
    let wire = WireServer::bind(reopened.clone(), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let mut client = Client::connect(wire.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let mut scan_ms = Vec::with_capacity(SCAN_ROUNDS);
    let mut install_ms = Vec::with_capacity(SCAN_ROUNDS);
    let mut stages = Vec::new();
    let mut scan_ref = Reference::default();
    for _ in 0..SCAN_ROUNDS {
        scan_ref.sample(REFERENCE_PER_ROUND);
        scan_ms.push(scan_once(&queries, |q| {
            client
                .query_rows(q)
                .map(|rs| rs.len())
                .map_err(|e| e.to_string())
        })?);
        let (ms, st) = install_cycles(&mut session, 1, ctx.trace)?;
        install_ms.extend(ms);
        stages.extend(st);
    }
    client.close();
    wire.shutdown();
    check_final_state(&reopened, &model)?;
    drop(session);
    drop(reopened);
    progress(start, "scans and install cycles done");
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;

    let delta = |name: &str| {
        after.counter(name).unwrap_or(0) as f64 - before.counter(name).unwrap_or(0) as f64
    };
    let commits = tally.commit_us.len() as f64;
    if ctx.trace {
        core_layer_metrics(&tally.checks, median(&scan_ms), &mut r);
        install_layer_metrics(&install_ms, &stages, &mut r);
        let mean_delta = |name: &str| mean_delta_us(&before, &after, name);
        r.put(
            "session.commit_us",
            mean_delta("tintin_commit_seconds"),
            "us",
        );
        r.put(
            "wal.bytes_per_commit",
            delta("tintin_wal_bytes_appended") / commits,
            "bytes",
        );
        r.put(
            "wal.records_per_commit",
            delta("tintin_wal_records") / commits,
            "count",
        );
        r.put(
            "wal.fsyncs_per_commit",
            delta("tintin_wal_fsyncs") / commits,
            "count",
        );
        r.put("wal.fsync_us", mean_delta("tintin_wal_fsync_seconds"), "us");
        r.put(
            "durability.checkpoint_ms",
            median(&[setup_ck_ms, mid_ck_ms]),
            "ms",
        );
        r.put("durability.checkpoint_bytes", ck_bytes as f64, "bytes");
        r.put("durability.replayed_per_s", median(&replay_rates), "1/s");
        let server_us = mean_delta("tintin_request_seconds");
        r.put("server.request_us", server_us, "us");
        r.put(
            "server.wire_overhead_us",
            mean(&request_us) - server_us,
            "us",
        );
        let txns = tally.decided.max(1) as f64;
        r.put(
            "server.bytes_in_per_txn",
            delta("tintin_bytes_in_total") / txns,
            "bytes",
        );
        r.put(
            "server.bytes_out_per_txn",
            delta("tintin_bytes_out_total") / txns,
            "bytes",
        );
        let rate = |d: f64, c: f64| d / c.max(1e-9);
        r.put(
            "trace.overhead_frac",
            rate(decided_first, cpu_first) / rate(decided_second, cpu_second) - 1.0,
            "ratio",
        );
        let spans: usize = tracers.iter().map(|t| t.spans().len()).sum();
        for (i, tr) in tracers.iter().enumerate() {
            finish_trace(tr, ctx, &format!("wire_durable-client{i}"))?;
        }
        r.put(
            "fail_frac",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            "ratio",
        );
        r.note(format!("traced {spans} client requests"));
    }
    // A traced run reads the end-to-end latencies and rate from the
    // untraced first part of the stream.
    let (e2e_tally, e2e_cpu) = if ctx.trace {
        (&first, cpu_first)
    } else {
        (&tally, cpu_first + cpu_second)
    };
    let wal_bytes = delta("tintin_wal_bytes_appended");
    let stream_ref_us: Vec<f64> = stream_refs
        .iter()
        .flat_map(|r| r.samples_us.iter().copied())
        .collect();
    end_to_end_metrics(
        &EndToEnd {
            setup_s: &setup_s,
            tally: e2e_tally,
            stream_cpu_s: e2e_cpu,
            scan_ms: &scan_ms,
            install_ms: &install_ms,
            reopen_s: &reopen_s,
            write_amp: (wal_bytes + ck_bytes as f64) / tally.committed_bytes.max(1) as f64,
            stream_ref_us: &stream_ref_us,
            scan_ref_us: &scan_ref.samples_us,
            reopen_ref_us: &reopen_ref.samples_us,
        },
        &mut r,
    )?;
    r.note(format!(
        "stream over {CLIENTS} connections; {acked_since_checkpoint} commits acknowledged since the mid-stream checkpoint; WAL {wal_bytes} bytes, checkpoint {ck_bytes} bytes, user rows {} bytes",
        tally.committed_bytes
    ));
    r.attempted = tally.attempted;
    r.failed = tally.failed;
    Ok(r)
}
