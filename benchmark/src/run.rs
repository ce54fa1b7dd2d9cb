//! One run of one workload: set up the tenants and the server, drive the
//! load, check every answer, and read the metrics. `--trace 0` yields the
//! end-to-end metrics from an untraced server at its default level;
//! `--trace 1` yields the per-layer metrics from a traced run, the server's
//! scrape and the in-process probes.

use crate::drive::{drive, Driven, Mode, Slice, SLICE};
use crate::probes::{self, Ledger};
use crate::prom::Scrape;
use crate::server::{copy_dir, Cli, Server};
use crate::spans::{self, Recorder, Span};
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::workload::{Kind, Oracle, Plan, SCRIPT_FRAMES_PER_SECOND};
use setlearn::wire::{QueryRequest, QueryValue};
use setlearn_serve::proto::{ErrorCode, ProtoError, StatsFormat};
use setlearn_serve::{NetClient, NetError};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

#[derive(Debug, Clone, Copy)]
pub struct Measured {
    pub value: f64,
    /// Samples behind the value (frames, slices, repetitions, queries).
    pub samples: u64,
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub metrics: BTreeMap<String, Measured>,
}

impl RunRecord {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn put(&mut self, name: &str, value: f64, samples: u64) {
        self.metrics
            .insert(name.to_string(), Measured { value, samples });
    }
}

/// Work directory of one run, removed when the run ends however it ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(kind: Kind, seed: u64) -> Result<WorkDir, String> {
        let dir = Path::new("benchmark/out/work").join(format!(
            "{}-{seed}-{}",
            kind.name(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Queries every tenant until it answers. The first frame for a tenant pays
/// the lazy checkpoint load; a concurrent one is told `collection_loading`
/// and polls. This is part of set-up and is never timed as a request.
fn attach(server: &Server, kind: Kind) -> Result<(), String> {
    let probe = [QueryRequest::new(vec![0])];
    let deadline = Instant::now() + Duration::from_secs(30);
    for tenant in kind.tenants() {
        let mut client = NetClient::connect(server.addr).map_err(|e| e.to_string())?;
        client.set_collection(Some(tenant.to_string()));
        loop {
            match client.query_batch(kind.task(), &probe) {
                Ok(outcomes) if !matches!(outcomes[0], Err(ErrorCode::CollectionLoading)) => break,
                Ok(_) | Err(NetError::Proto(ProtoError::Remote(ErrorCode::CollectionLoading))) => {
                    if Instant::now() > deadline {
                        return Err(format!("tenant {tenant} still loading after 30 s"));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(format!("tenant {tenant} does not answer: {e}")),
            }
        }
    }
    Ok(())
}

/// A provisioned tenant root and the server over it.
struct Stage {
    /// As trained; never served when the workload writes.
    pristine: PathBuf,
    server: Server,
    served: PathBuf,
}

/// generate + train + server start + attach: what `setup_s` times.
fn set_up(
    cli: &Cli,
    kind: Kind,
    seed: u64,
    work: &Path,
    tag: &str,
    flags: &[String],
) -> Result<Stage, String> {
    let pristine = work.join(format!("root-{tag}"));
    kind.provision(cli, seed, &pristine)?;
    let (server, served) = serve(cli, kind, &pristine, work, tag, flags)?;
    Ok(Stage {
        pristine,
        server,
        served,
    })
}

/// Starts a server over `pristine` — over a fresh copy of it when the
/// workload writes, so that every script starts from the trained state.
fn serve(
    cli: &Cli,
    kind: Kind,
    pristine: &Path,
    work: &Path,
    tag: &str,
    flags: &[String],
) -> Result<(Server, PathBuf), String> {
    let served = if kind.scripted() {
        let copy = work.join(format!("served-{tag}"));
        let _ = std::fs::remove_dir_all(&copy);
        copy_dir(pristine, &copy)?;
        copy
    } else {
        pristine.to_path_buf()
    };
    let server = Server::start(cli, &served, work, flags)?;
    attach(&server, kind)?;
    Ok((server, served))
}

fn scrape(server: &Server) -> Result<Scrape, String> {
    let mut client = NetClient::connect(server.addr).map_err(|e| e.to_string())?;
    Scrape::parse(
        &client
            .stats(StatsFormat::Prometheus)
            .map_err(|e| e.to_string())?,
    )
}

fn mode_for(kind: Kind, warmup_s: f64, measure_s: f64) -> Mode {
    if kind.scripted() {
        Mode::Script
    } else {
        Mode::Window {
            warmup: Duration::from_secs_f64(warmup_s),
            measure: Duration::from_secs_f64(measure_s),
        }
    }
}

fn script_frames(seconds: f64) -> usize {
    ((SCRIPT_FRAMES_PER_SECOND as f64 * seconds) as usize).max(100)
}

/// Throughput, read latency and server CPU per operation of a run's drives:
/// the median over all their slices, which neither a stall of the host or
/// its disk nor one server instance that came up in a slow regime moves.
/// `mixed_rw` slows down as its overlay grows, so its median slice is the
/// middle of the script.
fn load_metrics(record: &mut RunRecord, drives: &[Driven], cpu_name: &str) {
    let merged = |write: bool| {
        let mut us: Vec<f64> = drives.iter().flat_map(|d| d.latencies(write)).collect();
        us.sort_by(f64::total_cmp);
        us
    };
    let reads = merged(false);
    let frames = reads.len() as u64;
    let ok: u64 = drives.iter().map(|d| d.ok).sum();
    let wall_s: f64 = drives.iter().map(|d| d.wall_s).sum();
    let slices: Vec<Slice> = drives
        .iter()
        .flat_map(Driven::slices)
        .filter(|s| s.ok > 0 && !s.read_us.is_empty())
        .collect();
    let over = |f: &dyn Fn(&Slice) -> f64| median(&slices.iter().map(f).collect::<Vec<_>>());
    let n = slices.len() as u64;
    record.put("qps", over(&|s| s.ok as f64 / SLICE.as_secs_f64()), n);
    record.put("lat_p50_us", over(&|s| percentile(&s.read_us, 50.0)), n);
    record.put("lat_p90_us", over(&|s| percentile(&s.read_us, 90.0)), n);
    record.put("lat_p95_us", over(&|s| percentile(&s.read_us, 95.0)), n);
    record.put(cpu_name, over(&|s| s.server_cpu_us / s.ok as f64), n);
    record.put("qps_mean", ok as f64 / wall_s, ok);
    record.put("net.rtt_p99_us", percentile(&reads, 99.0), frames);
    // The highest percentile this many frames support (ten beyond it).
    record.put(
        "lat_highest_supported_pct",
        highest_supported_percentile(reads.len()).unwrap_or(0.0),
        frames,
    );
    let writes = merged(true);
    let (p50, p95) = if writes.is_empty() {
        (0.0, 0.0)
    } else {
        (percentile(&writes, 50.0), percentile(&writes, 95.0))
    };
    record.put("write_p50_us", p50, writes.len() as u64);
    record.put("write_p95_us", p95, writes.len() as u64);
}

fn absorb(record: &mut RunRecord, d: &Driven) {
    record.attempted += d.attempted;
    record.failed += d.failed;
    if record.first_failure.is_none() {
        record.first_failure.clone_from(&d.first_failure);
    }
}

/// One checked step outside the load (read-your-writes, crash recovery).
fn check(record: &mut RunRecord, what: &str, outcome: Result<(), String>) {
    record.attempted += 1;
    if let Err(e) = outcome {
        record.failed += 1;
        record.first_failure.get_or_insert(format!("{what}: {e}"));
    }
}

fn cardinality(client: &mut NetClient, set: &[u32]) -> Result<f64, String> {
    let query = QueryRequest::new(set.to_vec());
    match client
        .query(setlearn::wire::WireTask::Cardinality, query)
        .map_err(|e| e.to_string())?
        .value
    {
        QueryValue::Cardinality(v) => Ok(v),
        other => Err(format!("not a cardinality: {other:?}")),
    }
}

/// After the `mixed_rw` script: read-your-writes on a set nothing inserted,
/// then `kill -9`, restart on the same directory, and every acknowledged
/// write must be replayed.
fn crash_checks(
    cli: &Cli,
    stage: Stage,
    work: &Path,
    plan: &Plan,
    acked: u64,
    record: &mut RunRecord,
) -> Result<(), String> {
    let tenant = plan.kind.tenants()[0];
    let connect = |server: &Server| -> Result<NetClient, String> {
        Ok(NetClient::connect(server.addr)
            .map_err(|e| e.to_string())?
            .with_collection(tenant))
    };
    let mut client = connect(&stage.server)?;
    let mut inserted = false;
    let ryw = (|| {
        let before = cardinality(&mut client, &plan.fresh)?;
        client
            .insert(plan.fresh.clone())
            .map_err(|e| e.to_string())?;
        inserted = true;
        let after = cardinality(&mut client, &plan.fresh)?;
        // model + delta in f64: the two sums differ by 1 up to one rounding.
        if (after - before - 1.0).abs() > 1e-9 {
            return Err(format!("insert moved the answer from {before} to {after}"));
        }
        Ok(after)
    })();
    let written = ryw.clone().ok();
    check(record, "read-your-writes", ryw.map(|_| ()));
    let acked = acked + u64::from(inserted);

    let Stage { server, served, .. } = stage;
    server.kill();
    let server = Server::start(cli, &served, work, &[])?;
    attach(&server, plan.kind)?;
    let replayed = scrape(&server)?.sum("setlearn_wal_replayed_records_total", &[]);
    check(
        record,
        "crash recovery",
        if replayed == acked as f64 {
            Ok(())
        } else {
            Err(format!(
                "{acked} writes acknowledged, {replayed} replayed after kill -9"
            ))
        },
    );
    if let Some(written) = written {
        let mut client = connect(&server)?;
        let survived = cardinality(&mut client, &plan.fresh).and_then(|v| {
            (v.to_bits() == written.to_bits())
                .then_some(())
                .ok_or(format!(
                    "answer {written} before the crash, {v} after restart"
                ))
        });
        check(record, "write survives restart", survived);
    }
    Ok(())
}

/// `--trace 0`: the end-to-end run. Three set-ups, each timed, and the load
/// on each of the three servers: a third of `seconds` for a window workload,
/// the whole script (from the trained state) for a scripted one.
pub fn end_to_end(cli: &Cli, kind: Kind, seed: u64, seconds: u64) -> Result<RunRecord, String> {
    let work = WorkDir::create(kind, seed)?;
    let mut record = new_record(kind, seed, seconds, false);
    let s = seconds as f64;
    let share = s / SETUP_REPS as f64;

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut drives = Vec::with_capacity(SETUP_REPS);
    let mut plan = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let stage = set_up(cli, kind, seed, &work.0, &rep.to_string(), &[])?;
        setups.push(t.elapsed().as_secs_f64());
        // Training is deterministic for a seed, so the first stage's
        // checkpoint is the oracle for all three.
        if plan.is_none() {
            let (oracle, sets) = Oracle::load(kind, &stage.pristine)?;
            plan = Some(Plan::generate(kind, seed, &oracle, &sets, script_frames(s)));
        }
        let plan = plan.as_ref().expect("generated above");
        let driven = drive(
            &stage.server,
            plan,
            mode_for(kind, 0.15 * share, share),
            None,
        )?;
        absorb(&mut record, &driven);
        if kind.scripted() && rep + 1 == SETUP_REPS {
            crash_checks(cli, stage, &work.0, plan, driven.acked_writes, &mut record)?;
        } else {
            // One stage at a time: this server is gone before the next
            // set-up is timed.
            stage.server.kill();
            let _ = std::fs::remove_dir_all(&stage.served);
            let _ = std::fs::remove_dir_all(&stage.pristine);
        }
        drives.push(driven);
    }
    record.put("setup_s", median(&setups), setups.len() as u64);
    load_metrics(&mut record, &drives, "cpu_us_per_op");
    let hwm_mb: Vec<f64> = drives.iter().map(|d| d.at_close.hwm_kb / 1024.0).collect();
    record.put("rss_mb", median(&hwm_mb), hwm_mb.len() as u64);
    if kind.scripted() {
        // The overlay grows with every write: the last quarter of a script
        // is slower than the first.
        let quarters: Vec<Vec<f64>> = drives.iter().map(|d| d.qps_per(d.wall_s / 4.0)).collect();
        let at = |i: usize| {
            median(
                &quarters
                    .iter()
                    .map(|q| q[i.min(q.len() - 1)])
                    .collect::<Vec<_>>(),
            )
        };
        record.put("qps_first_quarter", at(0), quarters.len() as u64);
        record.put("qps_last_quarter", at(3), quarters.len() as u64);
    }
    quality_metrics(&mut record, plan.as_ref().expect("SETUP_REPS > 0"));
    record.put(
        "fail_rate",
        record.failed as f64 / record.attempted.max(1) as f64,
        record.attempted,
    );
    Ok(record)
}

fn new_record(kind: Kind, seed: u64, seconds: u64, traced: bool) -> RunRecord {
    RunRecord {
        workload: kind.name().to_string(),
        seed,
        seconds,
        traced,
        attempted: 0,
        failed: 0,
        first_failure: None,
        metrics: BTreeMap::new(),
    }
}

fn quality_metrics(record: &mut RunRecord, plan: &Plan) {
    let n = plan.pool.len() as u64;
    record.put("qerr_p50", plan.quality.qerr_p50, n);
    record.put("fpr", plan.quality.fpr, n / 2);
    record.put("index_miss_rate", plan.quality.index_miss_rate, n * 9 / 10);
}

/// Per-layer numbers the server's own scrape holds, over `diff`.
fn scrape_metrics(record: &mut RunRecord, diff: &Scrape, last: &Scrape) {
    const STAGES: &str = "setlearn_request_stage_seconds";
    let mut stage = |metric: &str, label: &str| {
        let (mean_s, n) = diff.hist_mean(STAGES, &[("stage", label)]);
        record.put(metric, mean_s * 1e6, n as u64);
    };
    stage("net.decode_us", "decode");
    stage("net.admission_us", "admission");
    stage("net.encode_us", "encode");
    stage("runtime.queue_wait_us", "queue");
    stage("runtime.batch_wait_us", "batch_wait");
    let (batch, batches) = diff.hist_mean("setlearn_serve_batch_size", &[]);
    record.put("runtime.batch_size_mean", batch, batches as u64);
    let shed = diff.sum("setlearn_serve_shed_total", &[])
        + diff.sum("setlearn_serve_tenant_shed_total", &[]);
    record.put("runtime.shed_total", shed, 1);
    let queries = diff.sum("setlearn_serve_completed_total", &[]);
    let inference_s = diff.sum(&format!("{STAGES}_sum"), &[("stage", "inference")]);
    record.put(
        "kernel.infer_us_per_query",
        inference_s * 1e6 / queries.max(1.0),
        queries as u64,
    );
    record.put(
        "registry.resident_bytes",
        last.sum("setlearn_registry_resident_bytes", &[]),
        1,
    );
}

/// Joins the server's slow-query records (every request, threshold 0) with
/// the client's round-trip spans by trace id: one row per request.
fn request_table(server: &Server, spans: &[Span], out: &Path) -> Result<usize, String> {
    let mut client = NetClient::connect(server.addr).map_err(|e| e.to_string())?;
    let text = client
        .stats(StatsFormat::SlowQueries)
        .map_err(|e| e.to_string())?;
    let records = setlearn_obs::parse_slow_jsonl(&text)?;
    let rtt: BTreeMap<u64, u64> = spans
        .iter()
        .filter(|s| s.name == "client.rtt")
        .map(|s| (s.trace_id, (s.end_ns - s.start_ns) / 1000))
        .collect();
    let mut table = String::from(
        "trace_id\tclient_rtt_us\tserver_total_us\tdecode_us\tadmission_us\tqueue_us\tbatch_wait_us\tinference_us\tencode_us\n",
    );
    let mut joined = 0;
    for r in records.iter().rev().take(256) {
        let Some(rtt_us) = rtt.get(&r.trace_id) else {
            continue;
        };
        let s = &r.stages;
        table.push_str(&format!(
            "{}\t{rtt_us}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            r.trace_id,
            r.total_us,
            s.decode_us,
            s.admission_us,
            s.queue_us,
            s.batch_wait_us,
            s.inference_us,
            s.encode_us
        ));
        joined += 1;
    }
    std::fs::write(out, table).map_err(|e| format!("write {}: {e}", out.display()))?;
    Ok(joined)
}

/// `--trace 1`: the per-layer run. The time asked for is split between an
/// untraced window (the base of the overhead figure), a traced window, and
/// the probes.
pub fn per_layer(cli: &Cli, kind: Kind, seed: u64, seconds: u64) -> Result<RunRecord, String> {
    let work = WorkDir::create(kind, seed)?;
    let mut record = new_record(kind, seed, seconds, true);
    let s = seconds as f64;
    let out_dir = Path::new("benchmark/out");
    // One clock for every span of the run.
    let epoch = Instant::now();

    let stage = set_up(cli, kind, seed, &work.0, "plain", &[])?;
    let (oracle, sets) = Oracle::load(kind, &stage.pristine)?;
    let plan = Plan::generate(kind, seed, &oracle, &sets, script_frames(0.4 * s));

    // Untraced, server at its default level: the stage histograms it keeps
    // in production, read before and after the load.
    let before = scrape(&stage.server)?;
    let plain = drive(
        &stage.server,
        &plan,
        mode_for(kind, 0.1 * s, 0.35 * s),
        None,
    )?;
    let after = scrape(&stage.server)?;
    absorb(&mut record, &plain);
    scrape_metrics(&mut record, &after.since(&before), &after);
    let mut pinger = NetClient::connect(stage.server.addr).map_err(|e| e.to_string())?;
    let mut pings: Vec<f64> = (0..300)
        .filter_map(|_| {
            let t = Instant::now();
            pinger.ping().ok().map(|()| t.elapsed().as_secs_f64() * 1e6)
        })
        .collect();
    pings.sort_by(f64::total_cmp);
    record.put(
        "net.ping_rtt_p50_us",
        percentile(&pings, 50.0),
        pings.len() as u64,
    );
    let scrape_ms: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            scrape(&stage.server).map(|_| t.elapsed().as_secs_f64() * 1e3)
        })
        .collect::<Result<_, _>>()?;
    record.put("obs.scrape_ms", median(&scrape_ms), scrape_ms.len() as u64);
    let pristine = stage.pristine.clone();
    stage.server.kill();

    // Traced: full telemetry in the server, trace ids on the wire, spans in
    // the client, every request in the slow-query log.
    let trace_base = work.0.join("trace");
    let flags = [
        "--telemetry".to_string(),
        trace_base.to_string_lossy().into_owned(),
        "--slow-query-ms".to_string(),
        "0".to_string(),
    ];
    let (server, _served) = serve(cli, kind, &pristine, &work.0, "traced", &flags)?;
    let traced = drive(
        &server,
        &plan,
        mode_for(kind, 0.05 * s, 0.35 * s),
        Some(epoch),
    )?;
    absorb(&mut record, &traced);
    let joined = request_table(
        &server,
        &traced.spans,
        &out_dir.join(format!("{}.requests.tsv", kind.name())),
    )?;
    record.put("trace.requests_joined", joined as f64, joined as u64);
    server.kill();

    // The traced drive's figures first, then the untraced ones over them:
    // everything a traced run reports about the load is untraced, except
    // the overhead, which is the one against the other.
    load_metrics(
        &mut record,
        std::slice::from_ref(&traced),
        "proc.cpu_us_per_op",
    );
    let qps_traced = record.metrics["qps"];
    load_metrics(
        &mut record,
        std::slice::from_ref(&plain),
        "proc.cpu_us_per_op",
    );
    let qps_plain = record.metrics["qps"].value;
    record.put(
        "obs.trace_overhead_pct",
        (qps_plain - qps_traced.value) / qps_plain * 100.0,
        qps_traced.samples,
    );
    // While both connections are open: the closing sample can come after
    // a connection thread has gone.
    let threads = plain.marks.iter().map(|m| m.threads).fold(0.0, f64::max);
    record.put("proc.threads", threads, plain.marks.len() as u64);
    record.put("proc.rss_mb", plain.at_close.rss_kb / 1024.0, 1);
    quality_metrics(&mut record, &plan);

    // Probes: the layers' public functions, called in this process.
    let mut rec = Recorder::new(epoch, 255);
    let mut ledger = Ledger::new();
    probes::proto(&mut rec, &plan, &oracle, &mut ledger);
    probes::kernel_and_tasks(&mut rec, &plan, &oracle, seed, &mut ledger);
    let probe_root = work.0.join("probe-root");
    copy_dir(&pristine, &probe_root)?;
    probes::registry(&mut rec, kind, &probe_root, &mut ledger)?;
    probes::runtime_overhead(&mut rec, kind, &pristine, &plan, &mut ledger)?;
    if let (true, Oracle::Card(est)) = (kind.scripted(), &oracle) {
        probes::write_path(&mut rec, &plan, est, &sets, seed, &work.0, &mut ledger)?;
    }
    for (name, value) in ledger {
        record.put(&name, value, 1);
    }

    let mut all_spans = traced.spans;
    all_spans.extend(rec.spans);
    spans::write_jsonl(
        &out_dir.join(format!("{}.spans.jsonl", kind.name())),
        &all_spans,
    )
    .map_err(|e| format!("write spans: {e}"))?;
    for (name, t) in spans::self_times(&all_spans) {
        record.put(
            &format!("span.{name}.self_us"),
            t.self_ns as f64 / 1e3 / t.count as f64,
            t.count,
        );
    }
    record.put(
        "fail_rate",
        record.failed as f64 / record.attempted.max(1) as f64,
        record.attempted,
    );
    Ok(record)
}
