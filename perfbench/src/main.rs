//! Workload benchmark for the Data Tamer reproduction.
//!
//! ```text
//! perfbench --workload <fuse_blocked|onboard_file|delta_serve> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs the same life cycle against the public API, with
//! its own configuration and its own share of the measuring time:
//!
//! 1. **build** (batch workloads) — timed `DataTamer::run`s from raw inputs
//!    to fused entities, each followed by the paper's analytic reads
//!    (Table III `entity_histogram`, Table IV `top_discussed`);
//! 2. **rounds** — three times: bring a system up to its first published
//!    snapshot (round 0 from the base; later rounds by restarting after the
//!    previous round's kill, replaying the delta log where there is one,
//!    until the fused output matches the killed system's), then serve one
//!    third of the delta stream: one writer feeds its batches
//!    (`consolidate_delta` under blocked ER, an onboarding `run` under
//!    canonical-name grouping) and publishes each, while one open-loop
//!    reader issues HTTP reads; then kill the system;
//! 3. **ladder** (traced runs only, last round) — open-loop reads at rising
//!    rates against the settled snapshot, two generator threads;
//! 4. **check** — the bytes served at the kill against a rebuild
//!    (delta_serve: blocked ER's batch engine over the base plus every
//!    batch; the other workloads: one more restart's output).
//!
//! Each phase checks its outputs against an oracle; any mismatch counts as
//! a failed operation and makes the command exit non-zero. The last line
//! of standard output is one JSON object: the end-to-end metrics when
//! tracing is off, the per-layer metrics (from spans recorded around each
//! call into a layer) when it is on.

// Timing is this crate's job: the workspace-wide clock ban (clippy.toml)
// keeps wall-clock reads out of pipeline code, not out of benchmarks.
#![allow(clippy::disallowed_methods)]

mod inputs;
mod load;
mod trace;

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::net::SocketAddr;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use datatamer::core::fusion::{BlockedErConfig, FusedEntity, GroupingStrategy};
use datatamer::core::query::{entity_type_histogram, top_discussed_award_winning};
use datatamer::core::stage::{
    run_stages, CleaningStage, EntityConsolidationStage, FusionStage, IngestStage, PipelineStage,
    SchemaIntegrationStage, StageReport,
};
use datatamer::core::{
    DataTamer, DataTamerConfig, DeltaLogConfig, DeltaReport, PipelineContext, PipelinePlan,
    StorageConfig,
};
use datatamer::entity::cluster::cluster_pairs;
use datatamer::model::{Record, Value};
use datatamer::query::http::{json_value, render_result};
use datatamer::query::prelude::*;
use datatamer::query::IndexMaintenance;
use datatamer::serve::ServeSession;
use datatamer::storage::BackendConfig;
use datatamer::text::normalize::canonical_name;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use inputs::Inputs;
use load::ReadSample;
use trace::{mean, median, quantile, samples_needed, Tracer};

/// Where traced runs write their spans, relative to the working directory.
const SPANS_DIR: &str = ".bench_out";
/// Name the fused entities are published under.
const COLLECTION: &str = "shows";
/// Offered rate of the reader that runs beside the delta writer: one eighth
/// of the one-client closed-loop rate recorded for `query/qps/clients/1`
/// (25 round trips in 7.87 ms, about 3.2k/s, beside a republishing
/// writer), so the reader loads one connection's capacity lightly and its
/// latency shows interference from the writer rather than its own queue.
const BASE_RATE: f64 = 400.0;
/// The fixed ladder of offered rates, requests per second over two
/// generators: `LADDER_BASE * LADDER_STEP^k` for `k < LADDER_RUNGS`.
const LADDER_BASE: f64 = 1000.0;
const LADDER_STEP: f64 = 1.1;
const LADDER_RUNGS: usize = 31;
/// Rungs skipped per coarse step.
const LADDER_COARSE: usize = 4;
/// Requests per ladder rung: at least 1000 (p99 needs ten samples beyond
/// it) and at least `RUNG_SECONDS` worth, so an overload shows as backlog.
const RUNG_REQUESTS: usize = 1000;
const RUNG_SECONDS: f64 = 0.5;
/// The ladder's p99 latency limit.
const P99_LIMIT_MS: f64 = 50.0;
/// Analytic reads per run (p90 needs 100).
const ANALYTIC_READS: usize = 120;
/// Extent-cache budget of the file-backed workload, in extents per shard.
const CACHE_EXTENTS: usize = 2;
/// Serving rounds per run, each with its own bring-up (a setup_s sample;
/// after round 0 also a restart_s sample) and a third of the delta stream.
const ROUNDS: usize = 3;
/// Restarts at the end of onboard_file's last round. Its restart is a
/// from-scratch build of ~0.7 s against ~6 s for a log replay under
/// blocked ER (one final restart), so it repeats the same-size restart for
/// a restart_s median that does not hop between restart sizes.
const ONBOARD_FINAL_RESTARTS: usize = 5;
/// Share of `--seconds` the batch workloads spend building.
const BUILD_SHARE: f64 = 0.6;
/// How long the batch workloads spread their delta batches over, in all.
const BATCH_SPREAD_S: f64 = 3.0;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    FuseBlocked,
    OnboardFile,
    DeltaServe,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "fuse_blocked" => Some(Workload::FuseBlocked),
            "onboard_file" => Some(Workload::OnboardFile),
            "delta_serve" => Some(Workload::DeltaServe),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::FuseBlocked => "fuse_blocked",
            Workload::OnboardFile => "onboard_file",
            Workload::DeltaServe => "delta_serve",
        }
    }

    fn blocked(self) -> bool {
        self != Workload::OnboardFile
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Operation and oracle accounting: every build, read, batch and check is
/// one attempted operation; a pipeline `Err`, a non-200 response, a
/// connection error or an oracle mismatch fails it.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
        ok
    }

    fn ok<T, E: std::fmt::Debug>(&mut self, r: Result<T, E>, what: &str) -> Option<T> {
        match r {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e:?}"));
                None
            }
        }
    }
}

/// Every observable byte of a fused output and its grouping.
fn fingerprint(ctx: &PipelineContext) -> u64 {
    let mut h = DefaultHasher::new();
    for f in &ctx.fused {
        format!(
            "{}|{}|{:?}|{:?}",
            f.key, f.member_count, f.confidence, f.record
        )
        .hash(&mut h);
    }
    format!("{:?}", ctx.fusion_groups).hash(&mut h);
    h.finish()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The workload's system configuration. Everything not named keeps its
/// default, so configuration fields a later change removes never appear
/// here.
fn system_config(
    w: Workload,
    store: Option<PathBuf>,
    cache_budget: Option<usize>,
    log: Option<PathBuf>,
) -> DataTamerConfig {
    let storage = match store {
        Some(dir) => StorageConfig {
            backend: BackendConfig::File { dir },
            extent_cache_budget: cache_budget,
            ..Default::default()
        },
        None => StorageConfig::default(),
    };
    let grouping = if w.blocked() {
        GroupingStrategy::BlockedEr(BlockedErConfig::default())
    } else {
        GroupingStrategy::CanonicalName
    };
    DataTamerConfig {
        extent_size: if w == Workload::OnboardFile {
            inputs::FILE_EXTENT_SIZE
        } else {
            inputs::EXTENT_SIZE
        },
        grouping,
        storage,
        delta_log: log.map(DeltaLogConfig::at),
        ..Default::default()
    }
}

/// The Table III and Table IV answers of a built system, rendered.
fn analytic_answers(ctx: &PipelineContext) -> Result<(String, String), String> {
    let entity = ctx
        .store
        .collection("entity")
        .ok_or("no entity collection")?;
    let instance = ctx
        .store
        .collection("instance")
        .ok_or("no instance collection")?;
    let t3 = entity_type_histogram(&entity).map_err(|e| format!("{e:?}"))?;
    let t4 = top_discussed_award_winning(&instance, 10).map_err(|e| format!("{e:?}"))?;
    Ok((format!("{t3:?}"), format!("{t4:?}")))
}

/// Counters read from stage reports at the stage boundaries of one build.
#[derive(Default, Clone)]
struct BuildCounters {
    flushes: u64,
    stored_bytes: u64,
    schema_sources: u64,
    auto_accepted: u64,
    escalated: u64,
    new_attributes: u64,
    clean_records: u64,
    values_rewritten: u64,
    candidate_pairs: u64,
    accepted_pairs: u64,
    degraded_buckets: u64,
    fused_entities: u64,
    fused_members: u64,
}

fn build_counters(ctx: &PipelineContext) -> BuildCounters {
    let mut c = BuildCounters::default();
    for run in ctx.runs() {
        match &run.report {
            StageReport::Ingest { storage, .. } => {
                c.flushes += storage.iter().map(|s| s.flushes).sum::<u64>();
            }
            StageReport::SchemaIntegration {
                sources,
                auto_accepted,
                human_interventions,
                new_attributes,
                ..
            } => {
                c.schema_sources += *sources as u64;
                c.auto_accepted += *auto_accepted as u64;
                c.escalated += *human_interventions as u64;
                c.new_attributes += *new_attributes as u64;
            }
            StageReport::Cleaning {
                records,
                nulls_canonicalized,
                values_transformed,
                storage,
                ..
            } => {
                c.clean_records += *records as u64;
                c.values_rewritten += (*nulls_canonicalized + *values_transformed) as u64;
                c.flushes += storage.as_ref().map_or(0, |s| s.flushes);
            }
            StageReport::EntityConsolidation {
                blocking,
                delta: None,
                ..
            } => {
                c.candidate_pairs = blocking.candidate_pairs as u64;
                c.accepted_pairs = blocking.accepted_pairs as u64;
                c.degraded_buckets = blocking.degraded_buckets as u64;
            }
            StageReport::Fusion { entities, members } => {
                c.fused_entities = *entities as u64;
                c.fused_members = *members as u64;
            }
            _ => {}
        }
    }
    for name in [
        "instance",
        "entity",
        datatamer::core::pipeline::GLOBAL_RECORDS_COLLECTION,
    ] {
        if let Some(stats) = ctx.store.stats(name) {
            c.stored_bytes += stats.data_size as u64;
        }
    }
    c
}

/// Extent-cache counters summed over the text collections, read from
/// `StorageReport::counter_pairs`.
#[derive(Default, Clone, Copy)]
struct CacheCounters {
    hits: u64,
    misses: u64,
    evictions: u64,
    disk_loads: u64,
    decode_errors: u64,
}

fn cache_counters(ctx: &PipelineContext) -> CacheCounters {
    let mut c = CacheCounters::default();
    for name in ["instance", "entity"] {
        if let Some(col) = ctx.store.collection(name) {
            for (counter, v) in col.storage_report().counter_pairs() {
                match counter {
                    "storage.cache_hits" => c.hits += v,
                    "storage.cache_misses" => c.misses += v,
                    "storage.cache_evictions" => c.evictions += v,
                    "storage.cache_disk_loads" => c.disk_loads += v,
                    "storage.decode_errors" => c.decode_errors += v,
                    _ => {}
                }
            }
        }
    }
    c
}

/// One read the reader issues: its URL path, its class, and how to compute
/// the body the server must answer with from a snapshot.
struct ReadRequest {
    path: String,
    class: ReadClass,
    lookup: Lookup,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ReadClass {
    Point,
    Probe,
    Range,
    Agg,
}

const CLASSES: [ReadClass; 4] = [
    ReadClass::Point,
    ReadClass::Probe,
    ReadClass::Range,
    ReadClass::Agg,
];

impl ReadClass {
    fn span(self) -> &'static str {
        match self {
            ReadClass::Point => "exec.point",
            ReadClass::Probe => "exec.probe",
            ReadClass::Range => "exec.range",
            ReadClass::Agg => "exec.agg",
        }
    }
}

enum Lookup {
    Entity(String),
    Query(Query),
}

fn url_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || b"-_.".contains(&b) {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The point-lookup body, rendered independently of the server.
fn render_entity(e: &FusedEntity) -> String {
    let fields: Vec<String> = e
        .record
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", json_escape(k), json_value(v)))
        .collect();
    let confidence = e
        .confidence
        .map_or("null".to_owned(), |c| json_value(&Value::Float(c)));
    format!(
        "{{\"key\":\"{}\",\"member_count\":{},\"confidence\":{},\"record\":{{{}}}}}",
        json_escape(&e.key),
        e.member_count,
        confidence,
        fields.join(","),
    )
}

/// Expected body hash of every request against `snap`; each execution is
/// one `exec.*` span and adds to the rows-examined tally.
fn expected_bodies(
    snap: &CollectionSnapshot,
    reqs: &[ReadRequest],
    tracer: &mut Tracer,
    op: &str,
    exec: &mut ExecTally,
) -> Vec<u64> {
    reqs.iter()
        .map(|r| {
            let body = match &r.lookup {
                Lookup::Entity(key) => tracer.span(r.class.span(), op, |_| {
                    snap.point_lookup(key).map(render_entity)
                }),
                Lookup::Query(q) => {
                    let run =
                        tracer.span(r.class.span(), op, |_| snap.execute_as(q, ScanMode::Auto));
                    exec.candidates += run.candidates as u64;
                    exec.results += match &run.result {
                        QueryResult::Rows(rows) => rows.len() as u64,
                        QueryResult::Groups(groups) => groups.len() as u64,
                        _ => 1,
                    };
                    Some(render_result(&run.result, run.plan.name(), run.candidates))
                }
            };
            // A missing entity is a 404; no stable lookup key may ever miss.
            body.map_or(0, |b| load::body_hash(b.as_bytes()))
        })
        .collect()
}

#[derive(Default)]
struct ExecTally {
    candidates: u64,
    results: u64,
}

/// Keys a point lookup may use: keys no delta batch can rename.
///
/// Under blocked ER a cluster's key is its smallest member's name, and it
/// changes only when the cluster merges with one whose smallest member is
/// smaller. Clusters can only ever merge within a connected component of
/// shared name tokens (tokens are the blocking keys), counting the
/// held-out rows' tokens, so a key is stable when its cluster holds the
/// smallest member of its component. Under canonical-name grouping a group
/// keeps its key when its first member precedes every onboarded row.
fn stable_keys(
    ctx: &PipelineContext,
    inputs: &Inputs,
    blocked: bool,
    base_structured: usize,
) -> Vec<String> {
    let mut keys = Vec::new();
    if !blocked {
        for (key, members) in &ctx.fusion_groups {
            if members.first().is_some_and(|&m| m < base_structured) {
                keys.push(key.clone());
            }
        }
    } else {
        let records: Vec<&Record> = ctx
            .structured_records
            .iter()
            .chain(ctx.text_show_records.iter())
            .collect();
        let mut tokens: BTreeMap<String, usize> = BTreeMap::new();
        let mut parent: Vec<usize> = Vec::new();
        fn find(p: &mut [usize], mut x: usize) -> usize {
            while p[x] != x {
                p[x] = p[p[x]];
                x = p[x];
            }
            x
        }
        let mut token_ids = |name: &str, parent: &mut Vec<usize>| -> Vec<usize> {
            let mut ids = Vec::new();
            datatamer::sim::for_each_token(name, |t| {
                let next = tokens.len();
                let id = *tokens.entry(t).or_insert(next);
                if id == parent.len() {
                    parent.push(id);
                }
                ids.push(id);
            });
            ids
        };
        let union_all = |ids: &[usize], parent: &mut Vec<usize>| {
            for w in ids.windows(2) {
                let (a, b) = (find(parent, w[0]), find(parent, w[1]));
                parent[a] = b;
            }
        };
        let mut cluster_tokens: Vec<Vec<usize>> = Vec::new();
        for (_, members) in &ctx.fusion_groups {
            let mut ids = Vec::new();
            for &m in members {
                if let Some(name) = records.get(m).and_then(|r| r.get_text("SHOW_NAME")) {
                    ids.extend(token_ids(&name, &mut parent));
                }
            }
            union_all(&ids, &mut parent);
            cluster_tokens.push(ids);
        }
        for r in inputs.batches.iter().flatten() {
            if let Some(name) = r.get_text("SHOW_NAME") {
                let ids = token_ids(&name, &mut parent);
                union_all(&ids, &mut parent);
            }
        }
        let mut component_min: BTreeMap<usize, usize> = BTreeMap::new();
        for ((_, members), ids) in ctx.fusion_groups.iter().zip(&cluster_tokens) {
            if let (Some(&first), Some(&t)) = (members.first(), ids.first()) {
                let root = find(&mut parent, t);
                let slot = component_min.entry(root).or_insert(first);
                *slot = (*slot).min(first);
            }
        }
        for ((key, members), ids) in ctx.fusion_groups.iter().zip(&cluster_tokens) {
            if let (Some(&first), Some(&t)) = (members.first(), ids.first()) {
                if component_min.get(&find(&mut parent, t)) == Some(&first) {
                    keys.push(key.clone());
                }
            }
        }
    }
    keys.sort();
    keys.dedup();
    keys
}

/// The fixed read mix: point lookups, hash-probe filters, ordered ranges
/// with a limit, and aggregates, four of each.
fn read_requests(fused: &[FusedEntity], stable: &[String]) -> Vec<ReadRequest> {
    let base = format!("/collections/{COLLECTION}");
    let mut reqs = Vec::new();
    let pick = |n: usize, i: usize, of: usize| (i * of) / n.max(1);
    for i in 0..4.min(stable.len()) {
        let key = &stable[pick(4, i, stable.len())];
        reqs.push(ReadRequest {
            path: format!("{base}/entity/{}", url_encode(key)),
            class: ReadClass::Point,
            lookup: Lookup::Entity(key.clone()),
        });
    }
    let mut theaters: Vec<String> = fused
        .iter()
        .filter_map(|f| {
            f.record
                .get("THEATER")
                .and_then(Value::as_str)
                .map(str::to_owned)
        })
        .filter(|t| t.trim() == t && !t.contains(',') && !t.is_empty())
        .collect();
    theaters.sort();
    theaters.dedup();
    for i in 0..4.min(theaters.len()) {
        let t = &theaters[pick(4, i, theaters.len())];
        reqs.push(ReadRequest {
            path: format!(
                "{base}/query?where=THEATER%3D{}&project=SHOW_NAME,CHEAPEST_PRICE",
                url_encode(t)
            ),
            class: ReadClass::Probe,
            lookup: Lookup::Query(
                Query::filtered(Predicate::Eq("THEATER".into(), Value::from(t.as_str())))
                    .project(vec!["SHOW_NAME", "CHEAPEST_PRICE"]),
            ),
        });
    }
    for lo in [2i64, 5, 10, 20] {
        reqs.push(ReadRequest {
            path: format!("{base}/query?where=_members%3E%3D{lo}&order=_members:desc&limit=10"),
            class: ReadClass::Range,
            lookup: Lookup::Query(
                Query::filtered(Predicate::Gte("_members".into(), Value::Int(lo)))
                    .order_by("_members", Order::Desc)
                    .take(10),
            ),
        });
    }
    let aggs: [(&str, Query); 4] = [
        (
            "where=_members%3E%3D2&agg=count",
            Query::filtered(Predicate::Gte("_members".into(), Value::Int(2)))
                .aggregate(Aggregate::Count),
        ),
        (
            "agg=group:THEATER",
            Query::default().aggregate(Aggregate::GroupBy("THEATER".into())),
        ),
        (
            "agg=max:_members",
            Query::default().aggregate(Aggregate::Max("_members".into())),
        ),
        (
            "agg=sum:_members",
            Query::default().aggregate(Aggregate::Sum("_members".into())),
        ),
    ];
    for (qs, q) in aggs {
        reqs.push(ReadRequest {
            path: format!("{base}/query?{qs}"),
            class: ReadClass::Agg,
            lookup: Lookup::Query(q),
        });
    }
    reqs
}

fn index_spec() -> IndexSpec {
    IndexSpec::default()
        .hash_on("THEATER")
        .ordered_on("_members")
}

/// A published revision: the instants just before and just after its
/// publish call, and the body hash every request must see while it is live.
struct Revision {
    before: Instant,
    after: Instant,
    bodies: Vec<u64>,
}

/// Whether a read's body matches a revision that was live at some point
/// between its send and its completion.
fn read_matches(s: &ReadSample, revs: &[Revision]) -> bool {
    revs.iter().enumerate().any(|(i, r)| {
        let live_from = r.before;
        let live_until = revs.get(i + 1).map(|n| n.after);
        live_from <= s.done
            && live_until.is_none_or(|u| u >= s.sent)
            && r.bodies[s.req] != 0
            && r.bodies[s.req] == s.body_hash
    })
}

/// Everything one run measures.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    fuse_s: Vec<f64>,
    analytic_ms: Vec<f64>,
    delta_ms: Vec<f64>,
    reads: Vec<ReadSample>,
    ladder: Vec<(f64, f64, bool)>,
    max_rps: f64,
    restart_s: Vec<f64>,
    build: BuildCounters,
    cache: CacheCounters,
    deltas: Vec<DeltaReport>,
    /// Index maintenance of each round's view.
    index: Vec<IndexMaintenance>,
    exec: ExecTally,
    log_bytes_per_record: f64,
}

struct Bench {
    args: Args,
    inputs: Inputs,
    work: PathBuf,
    tracer: Tracer,
    checks: Checks,
    s: Samples,
    epoch: Instant,
    store_seq: usize,
    cache_budget: Option<usize>,
    /// Fingerprint of the first build over the base alone.
    base_fp: Option<u64>,
}

impl Bench {
    fn op(&self, kind: &str, i: usize) -> String {
        format!("{kind}-{i}")
    }

    fn fresh_store(&mut self) -> Option<PathBuf> {
        if self.args.workload != Workload::OnboardFile {
            return None;
        }
        self.store_seq += 1;
        let dir = self.work.join(format!("store-{}", self.store_seq));
        let _ = std::fs::remove_dir_all(&dir);
        Some(dir)
    }

    fn log_path(&self) -> Option<PathBuf> {
        self.args
            .workload
            .blocked()
            .then(|| self.work.join("delta.log"))
    }

    fn config(&mut self) -> DataTamerConfig {
        let store = self.fresh_store();
        system_config(
            self.args.workload,
            store,
            self.cache_budget,
            self.log_path(),
        )
    }

    /// One timed `DataTamer::run` over the base plan.
    fn build_untraced(&mut self, i: usize) -> Option<DataTamer> {
        let mut dt = DataTamer::new(self.config());
        let plan = self.inputs.base_plan();
        let t0 = Instant::now();
        let ran = dt.run(plan).map(|_| ());
        let elapsed = t0.elapsed();
        self.checks.ok(ran, &format!("build {i}"))?;
        self.s.fuse_s.push(elapsed.as_secs_f64());
        Some(dt)
    }

    /// One build driven stage by stage through `run_stages`, each stage in
    /// its own span; with `timed` it is also a fuse_s sample. With
    /// `decompose`, blocked ER is then re-run piece by piece on the entity
    /// stage's fusion input.
    fn build_staged(&mut self, i: usize, timed: bool, decompose: bool) -> Option<PipelineContext> {
        let op = self.op("build", i);
        let mut ctx = PipelineContext::new(self.config());
        let plan = self.inputs.base_plan();
        let mut fusion_input = None;
        let blocked = self.args.workload.blocked();
        let t0 = Instant::now();
        let ran = self
            .tracer
            .span("build", &op, |t| -> datatamer::model::Result<()> {
                let stage = |name: &'static str,
                             st: Box<dyn PipelineStage + '_>,
                             t: &mut Tracer,
                             ctx: &mut PipelineContext| {
                    t.span(name, &op, |_| run_stages(ctx, &mut [st]))
                };
                stage(
                    "ingest",
                    Box::new(IngestStage::new(plan.structured, plan.text)),
                    t,
                    &mut ctx,
                )?;
                stage(
                    "schema",
                    Box::new(SchemaIntegrationStage::auto()),
                    t,
                    &mut ctx,
                )?;
                stage("clean", Box::new(CleaningStage), t, &mut ctx)?;
                stage(
                    "entity",
                    Box::<EntityConsolidationStage>::default(),
                    t,
                    &mut ctx,
                )?;
                if decompose && blocked {
                    fusion_input = Some((ctx.fusion_input.clone(), ctx.fusion_groups.clone()));
                }
                stage("fusion", Box::<FusionStage>::default(), t, &mut ctx)
            });
        let elapsed = t0.elapsed();
        self.checks.ok(ran, &format!("stage-by-stage build {i}"))?;
        if timed {
            self.s.fuse_s.push(elapsed.as_secs_f64());
        }
        if let Some((records, groups)) = fusion_input {
            self.decompose_entity(&records, &groups);
        }
        Some(ctx)
    }

    /// Re-run batch blocked ER in its four pieces on the entity stage's
    /// fusion input; the clusters must equal the stage's fusion groups.
    fn decompose_entity(&mut self, records: &[Record], groups: &[(String, Vec<usize>)]) {
        let cfg = BlockedErConfig::default();
        let op = "decompose";
        let t = &mut self.tracer;
        let blocker = cfg.build_blocker();
        let scorer = cfg.scorer.build();
        let prepared = t.span("entity.prepare", op, |_| scorer.prepare(records));
        let outcome = t.span("entity.block", op, |_| {
            blocker.candidates_with_report_keyed(records, &|| {
                prepared.sort_keys(&cfg.key_attr).unwrap_or_else(|| {
                    records
                        .iter()
                        .map(|r| r.get_text(&cfg.key_attr).map(|k| k.to_lowercase()))
                        .collect()
                })
            })
        });
        let accepted = t.span("entity.score", op, |_| {
            prepared.accepted_pairs(&outcome.pairs, cfg.accept_threshold)
        });
        let clusters = t.span("entity.cluster", op, |_| {
            cluster_pairs(records.len(), &accepted)
        });
        let rebuilt: Vec<(String, Vec<usize>)> = clusters
            .into_iter()
            .filter_map(|c| {
                let key = canonical_name(&records[c[0]].get_text(&cfg.key_attr)?);
                (!key.is_empty()).then_some((key, c))
            })
            .collect();
        self.checks.check(rebuilt == groups, || {
            "entity decomposition clusters differ from the stage's fusion groups".into()
        });
    }

    /// `n` analytic reads, each one Table III query followed by one Table IV
    /// query, timed together and checked against the reference answers.
    /// Without a reference, this build's answers become it.
    fn analytic_reads(
        &mut self,
        ctx: &PipelineContext,
        n: usize,
        reference: &mut Option<(String, String)>,
        tag: &str,
    ) {
        if reference.is_none() {
            *reference = self
                .checks
                .ok(analytic_answers(ctx), "reference analytic answers");
        }
        let Some(reference) = reference.as_ref() else {
            return;
        };
        let entity = ctx.store.collection("entity");
        let instance = ctx.store.collection("instance");
        let (Some(entity), Some(instance)) = (entity, instance) else {
            self.checks
                .check(false, || format!("{tag}: text collections missing"));
            return;
        };
        for i in 0..n {
            let op = format!("{tag}-read-{i}");
            let t0 = Instant::now();
            let t3 = self
                .tracer
                .span("analytic.table3", &op, |_| entity_type_histogram(&entity));
            let t4 = self.tracer.span("analytic.table4", &op, |_| {
                top_discussed_award_winning(&instance, 10)
            });
            self.s.analytic_ms.push(ms(t0.elapsed()));
            match (t3, t4) {
                (Ok(t3), Ok(t4)) => self.checks.check(
                    format!("{t3:?}") == reference.0 && format!("{t4:?}") == reference.1,
                    || format!("{tag}: analytic read {i} differs from the reference"),
                ),
                (Err(e), _) | (_, Err(e)) => self
                    .checks
                    .check(false, || format!("{tag}: analytic read {i}: {e:?}")),
            };
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let epoch = Instant::now();
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work).and_then(|_| std::fs::create_dir_all(SPANS_DIR))
    {
        eprintln!("perfbench: cannot create work directories: {e}");
        std::process::exit(2);
    }
    let tracer = Tracer::new(args.trace, epoch);
    let inputs = Inputs::generate(args.seed);
    let mut bench = Bench {
        args,
        inputs,
        work: work.clone(),
        tracer,
        checks: Checks::default(),
        s: Samples::default(),
        epoch,
        store_seq: 0,
        cache_budget: None,
        base_fp: None,
    };
    let _ = run(&mut bench);
    let _ = std::fs::remove_dir_all(&work);
    report(bench);
}

/// The read mix of a run: the requests, their URL paths, and the seeded
/// order the generators cycle through.
struct ReadMix {
    reqs: Vec<ReadRequest>,
    paths: Vec<String>,
    order: Vec<usize>,
}

/// The delta stream split into one contiguous part per serving round.
fn round_parts(batches: usize) -> Vec<Range<usize>> {
    (0..ROUNDS)
        .map(|r| r * batches / ROUNDS..(r + 1) * batches / ROUNDS)
        .collect()
}

/// Source name of an onboarded delta batch, the same in every life.
fn onboard_name(k: usize) -> String {
    format!("delta_{k:04}")
}

/// Runs the life cycle; `None` means a failed operation (already counted)
/// cut the run short.
fn run(b: &mut Bench) -> Option<()> {
    eprintln!(
        "perfbench: {} seed {} — {} sources ({} base rows), {} fragments, {} delta batches of {} ({} held-out rows)",
        b.args.workload.name(),
        b.args.seed,
        b.inputs.sources.len(),
        b.inputs.base_structured_records(),
        b.inputs.corpus.fragments.len(),
        b.inputs.batches.len(),
        inputs::BATCH_SIZE,
        b.inputs.held_out_records(),
    );
    let mut reference = if b.args.workload == Workload::OnboardFile {
        Some(b.file_reference()?)
    } else {
        None
    };
    if b.args.workload != Workload::DeltaServe {
        b.build_phase(&mut reference)?;
    } else if b.args.trace {
        // The served base is a `DataTamer`, built in one call; one extra
        // stage-by-stage build, untimed, splits it by layer.
        let ctx = b.build_staged(0, false, true)?;
        b.s.build = build_counters(&ctx);
        b.check_base(&ctx, "build-0");
    }
    let _ = std::fs::remove_file(b.work.join("delta.log"));
    let parts = round_parts(b.inputs.batches.len());
    let mut mix = None;
    let mut pre_kill = None;
    for (round, part) in parts.iter().enumerate() {
        let (mut dt, mut session) = b.bring_up(round, part.start, pre_kill)?;
        if round == 0 {
            log_base(dt.context());
            if b.args.workload == Workload::DeltaServe {
                b.analytic_reads(dt.context(), ANALYTIC_READS, &mut reference, "bringup-0");
            }
            mix = Some(b.read_mix(&dt)?);
        }
        let mix = mix.as_ref()?;
        let final_bodies = b.serve_phase(&mut dt, &mut session, mix, part.clone())?;
        if round + 1 == parts.len() {
            if b.args.trace {
                b.ladder(session.addr(), mix, &final_bodies);
            }
            return b.finish(dt, session, mix);
        }
        pre_kill = Some(fingerprint(dt.context()));
        session.stop();
        drop(dt);
    }
    None
}

fn log_base(c: &PipelineContext) {
    let (candidates, accepted) =
        match c.report_of(datatamer::core::stage::stage_names::ENTITY_CONSOLIDATION) {
            Some(StageReport::EntityConsolidation { blocking, .. }) => {
                (blocking.candidate_pairs, blocking.accepted_pairs)
            }
            _ => (0, 0),
        };
    eprintln!(
        "perfbench: base {} structured + {} text records -> {} entities, {candidates} candidate / {accepted} accepted pairs",
        c.structured_records.len(),
        c.text_show_records.len(),
        c.fused.len(),
    );
}

impl Bench {
    /// Onboard_file's analytic reference: an untimed memory-backend build of
    /// the same inputs, which also sizes the extent cache.
    fn file_reference(&mut self) -> Option<(String, String)> {
        let mut dt = DataTamer::new(system_config(self.args.workload, None, None, None));
        self.checks.ok(
            dt.run(self.inputs.base_plan()).map(|_| ()),
            "reference build",
        )?;
        // The cache holds CACHE_EXTENTS extents per shard, fewer than each
        // shard's share of the flushed `instance` collection: a scan's
        // working set is larger than the cache.
        let instance_bytes = dt.collection_stats("instance").map_or(0, |s| s.data_size);
        let per_shard = instance_bytes / dt.context().config().shards.max(1);
        let budget = CACHE_EXTENTS * inputs::FILE_EXTENT_SIZE;
        self.checks.check(budget < per_shard, || {
            format!("cache budget {budget} B is not below the {per_shard} B per-shard working set")
        });
        eprintln!("perfbench: extent cache {budget} B per shard against a {per_shard} B per-shard instance working set");
        self.cache_budget = Some(budget);
        self.checks
            .ok(analytic_answers(dt.context()), "reference analytic answers")
    }

    /// The batch workloads' timed builds, each followed by analytic reads.
    /// Traced runs drive them stage by stage through `run_stages`; untraced
    /// runs call `DataTamer::run`. Each system is dropped before the next
    /// one builds, and every build must give the same fused output.
    fn build_phase(&mut self, reference: &mut Option<(String, String)>) -> Option<()> {
        let phase_start = Instant::now();
        let budget = self.args.seconds * BUILD_SHARE;
        let min_builds = if self.args.workload == Workload::FuseBlocked {
            2
        } else {
            10
        };
        let reads = ANALYTIC_READS.div_ceil(min_builds);
        let mut i = 0;
        loop {
            let op = self.op("build", i);
            if self.args.trace {
                let ctx = self.build_staged(i, true, i == 0)?;
                self.s.build = build_counters(&ctx);
                self.analytic_reads(&ctx, reads, reference, &op);
                self.s.cache = cache_counters(&ctx);
                self.check_base(&ctx, &op);
            } else {
                let dt = self.build_untraced(i)?;
                self.analytic_reads(dt.context(), reads, reference, &op);
                self.check_base(dt.context(), &op);
            }
            i += 1;
            if i >= min_builds && phase_start.elapsed().as_secs_f64() >= budget {
                return Some(());
            }
        }
    }

    /// Every build over the base alone must give the first one's fused
    /// output; in traced runs the first is the stage-by-stage build, so
    /// this also checks `DataTamer::run` against it.
    fn check_base(&mut self, ctx: &PipelineContext, op: &str) {
        let fp = fingerprint(ctx);
        match self.base_fp {
            None => self.base_fp = Some(fp),
            Some(want) => {
                self.checks.check(want == fp, || {
                    format!("{op}: fused output differs from the first base build")
                });
            }
        }
    }

    /// Bring a system up to its first published snapshot: round 0 from the
    /// base, later rounds by restarting after the previous round's kill.
    /// The whole bring-up, server bind and first publish included, is one
    /// setup_s sample.
    fn bring_up(
        &mut self,
        round: usize,
        onboarded: usize,
        pre_kill: Option<u64>,
    ) -> Option<(DataTamer, ServeSession)> {
        let op = self.op("bringup", round);
        let t0 = Instant::now();
        let dt = self.reopen(&op, onboarded, pre_kill)?;
        let mut session = self.checks.ok(
            ServeSession::bind("127.0.0.1:0", ServerConfig::default()),
            "bind",
        )?;
        self.tracer.span("view", &op, |_| {
            session.publish(COLLECTION, &dt, index_spec())
        });
        self.s.setup_s.push(t0.elapsed().as_secs_f64());
        Some((dt, session))
    }

    /// A new system brought to fused output: one `DataTamer::run` over the
    /// base plus, under canonical grouping, the first `onboarded` batches as
    /// sources of their own; under blocked ER then the resident seed, which
    /// replays the delta log. A run over the base alone is a fuse_s sample.
    /// With `pre_kill` this is a restart: the time from the new system to
    /// its fused output is a restart_s sample, and the output must match.
    fn reopen(&mut self, op: &str, onboarded: usize, pre_kill: Option<u64>) -> Option<DataTamer> {
        let blocked = self.args.workload.blocked();
        let restart = pre_kill.is_some();
        let config = self.config();
        let t0 = Instant::now();
        let mut dt = DataTamer::new(config);
        let mut plan = self.inputs.base_plan();
        if !blocked {
            for (k, batch) in self.inputs.batches[..onboarded].iter().enumerate() {
                plan = plan.structured(onboard_name(k), batch);
            }
        }
        let t1 = Instant::now();
        let ran = self
            .tracer
            .span(if restart { "restart.base" } else { "build" }, op, |_| {
                dt.run(plan).map(|_| ())
            });
        let t2 = Instant::now();
        self.checks.ok(ran, &format!("{op} run"))?;
        if blocked || onboarded == 0 {
            self.s.fuse_s.push((t2 - t1).as_secs_f64());
            self.check_base(dt.context(), op);
        }
        if blocked {
            let seeded = self.tracer.span(
                if restart {
                    "restart.replay"
                } else {
                    "delta.seed"
                },
                op,
                |_| dt.consolidate_delta(&[]),
            );
            self.checks.ok(seeded, &format!("{op} resident seed"))?;
        }
        if let Some(want) = pre_kill {
            self.s.restart_s.push(t0.elapsed().as_secs_f64());
            self.checks.check(fingerprint(dt.context()) == want, || {
                format!("{op}: restarted fused output differs from the pre-kill output")
            });
        }
        Some(dt)
    }

    fn read_mix(&mut self, dt: &DataTamer) -> Option<ReadMix> {
        let stable = stable_keys(
            dt.context(),
            &self.inputs,
            self.args.workload.blocked(),
            self.inputs.base_structured_records(),
        );
        let reqs = read_requests(&dt.context().fused, &stable);
        let complete = CLASSES.iter().all(|c| reqs.iter().any(|r| r.class == *c));
        if !self.checks.check(complete, || {
            format!("read mix lacks a class ({} stable keys)", stable.len())
        }) {
            return None;
        }
        let paths = reqs.iter().map(|r| r.path.clone()).collect();
        let mut rng = StdRng::seed_from_u64(self.args.seed ^ 0x5EAD);
        let order = (0..4096).map(|_| rng.random_range(0..reqs.len())).collect();
        Some(ReadMix { reqs, paths, order })
    }

    /// The writer submits one part of the delta stream, paced, and
    /// publishes each batch while one open-loop reader runs the mix at the
    /// base rate. Every read must be a 200 whose body equals what some
    /// revision live during the read renders. Returns the bodies of the
    /// final revision.
    fn serve_phase(
        &mut self,
        dt: &mut DataTamer,
        session: &mut ServeSession,
        mix: &ReadMix,
        part: Range<usize>,
    ) -> Option<Vec<u64>> {
        let Some(snap0) = session.views().get(COLLECTION) else {
            self.checks
                .check(false, || "base snapshot not published".into());
            return None;
        };
        let now = Instant::now();
        let bodies = expected_bodies(
            &snap0,
            &mix.reqs,
            &mut self.tracer,
            "serve",
            &mut self.s.exec,
        );
        self.checks.check(bodies.iter().all(|&h| h != 0), || {
            "a stable lookup key is missing from the served snapshot".into()
        });
        let mut revisions = vec![Revision {
            before: now,
            after: now,
            bodies,
        }];

        let spread = if self.args.workload == Workload::DeltaServe {
            self.args.seconds * 0.9
        } else {
            BATCH_SPREAD_S
        } / ROUNDS as f64;
        let pacing = Duration::from_secs_f64(spread / part.len().max(1) as f64);
        let addr = session.addr();
        let stop = AtomicBool::new(false);
        let batches = std::mem::take(&mut self.inputs.batches);
        let reads = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                load::open_loop(
                    addr,
                    &mix.paths,
                    &mix.order,
                    BASE_RATE,
                    samples_needed(0.99).div_ceil(ROUNDS),
                    usize::MAX,
                    &stop,
                )
            });
            let start = Instant::now();
            for (i, k) in part.clone().enumerate() {
                let batch = &batches[k];
                let due = start + pacing.mul_f64(i as f64);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let op = format!("batch-{k}");
                let submit = Instant::now();
                let applied = if self.args.workload.blocked() {
                    self.tracer
                        .span("delta", &op, |_| dt.consolidate_delta(batch))
                        .map(Some)
                } else {
                    let plan = PipelinePlan::new().structured(onboard_name(k), batch);
                    self.tracer
                        .span("delta", &op, |_| dt.run(plan).map(|_| None))
                };
                match self.checks.ok(applied, &format!("delta batch {k}")) {
                    Some(report) => self.s.deltas.extend(report),
                    None => break,
                }
                let before = Instant::now();
                self.tracer.span("view", &op, |_| {
                    session.publish(COLLECTION, dt, index_spec())
                });
                let after = Instant::now();
                self.s.delta_ms.push(ms(after - submit));
                let Some(snap) = session.views().get(COLLECTION) else {
                    break;
                };
                let bodies =
                    expected_bodies(&snap, &mix.reqs, &mut self.tracer, &op, &mut self.s.exec);
                revisions.push(Revision {
                    before,
                    after,
                    bodies,
                });
            }
            stop.store(true, Ordering::Release);
            reader.join().unwrap_or_default()
        });
        self.inputs.batches = batches;
        for s in &reads {
            self.checks
                .check(s.status == 200 && read_matches(s, &revisions), || {
                    format!(
                        "read {} ({}) returned {} with a body matching no live revision",
                        s.req, mix.paths[s.req], s.status
                    )
                });
        }
        self.s.reads.extend(reads);
        if let Some(view) = session.view(COLLECTION) {
            self.s.index.push(view.maintenance().clone());
        }
        revisions.pop().map(|r| r.bodies)
    }

    /// The rate ladder against the settled snapshot (traced runs only: its
    /// rungs are judged on tail latency, which on a small shared machine
    /// is set by scheduling stalls more than by the server). Coarse steps
    /// up the fixed ladder until a rung fails, then the rungs between the
    /// last pass and that failure one by one.
    fn ladder(&mut self, addr: SocketAddr, mix: &ReadMix, final_bodies: &[u64]) {
        let mut passed = None;
        let mut k = 0;
        while k < LADDER_RUNGS && self.rung(addr, mix, final_bodies, k) {
            passed = Some(k);
            k += LADDER_COARSE;
        }
        if let Some(p) = passed {
            for fine in p + 1..k.min(LADDER_RUNGS) {
                if !self.rung(addr, mix, final_bodies, fine) {
                    break;
                }
            }
        }
    }

    /// One ladder rung over two generator threads; true when it meets the
    /// p99 limit without a growing backlog and every read is correct.
    fn rung(&mut self, addr: SocketAddr, mix: &ReadMix, final_bodies: &[u64], k: usize) -> bool {
        let rate = LADDER_BASE * LADDER_STEP.powi(k as i32);
        let half = RUNG_REQUESTS.max((rate * RUNG_SECONDS) as usize) / 2;
        let never = AtomicBool::new(false);
        let mut samples: Vec<ReadSample> = std::thread::scope(|scope| {
            let gens: Vec<_> = (0..2)
                .map(|g| {
                    let order: Vec<usize> = mix.order.iter().skip(g * 7).copied().collect();
                    let never = &never;
                    scope.spawn(move || {
                        load::open_loop(addr, &mix.paths, &order, rate / 2.0, half, half, never)
                    })
                })
                .collect();
            gens.into_iter()
                .flat_map(|g| g.join().unwrap_or_default())
                .collect()
        });
        let mut ok = true;
        for s in &samples {
            ok &= self.checks.check(
                s.status == 200 && s.body_hash == final_bodies[s.req],
                || {
                    format!(
                        "ladder read at {rate:.0}/s returned {} or a wrong body",
                        s.status
                    )
                },
            );
        }
        let lat: Vec<f64> = samples.iter().map(ReadSample::latency_ms).collect();
        let p99 = quantile(&lat, 0.99);
        // A growing backlog: the generators end the rung further behind
        // schedule than the latency limit.
        samples.sort_by_key(|s| s.due);
        let tail: Vec<f64> = samples
            .iter()
            .rev()
            .take(samples.len() / 10)
            .map(ReadSample::late_ms)
            .collect();
        let pass = ok && p99 <= P99_LIMIT_MS && median(&tail) <= P99_LIMIT_MS;
        self.s.ladder.push((rate, p99, pass));
        if pass {
            self.s.max_rps = self.s.max_rps.max(rate);
        }
        pass
    }

    /// The end of the last round: capture the served bytes and kill the
    /// system, check the bytes against a rebuild, and restart once more
    /// (onboard_file: `ONBOARD_FINAL_RESTARTS` times).
    /// Delta_serve checks against blocked ER's batch engine over the base
    /// plus every batch, run once the killed system is dropped; the other
    /// workloads against the restarted system (for onboard_file a
    /// from-scratch build of base plus onboarded sources).
    fn finish(&mut self, dt: DataTamer, session: ServeSession, mix: &ReadMix) -> Option<()> {
        let workload = self.args.workload;
        let pre_kill = fingerprint(dt.context());
        let addr = session.addr();
        let live: Vec<(u16, u64)> = mix
            .paths
            .iter()
            .map(|p| {
                let (status, body, _) = load::get(addr, p);
                (status, load::body_hash(&body))
            })
            .collect();
        let base_records: Vec<Record> = if workload == Workload::DeltaServe {
            let c = dt.context();
            c.structured_records
                .iter()
                .chain(c.text_show_records.iter())
                .cloned()
                .collect()
        } else {
            Vec::new()
        };
        session.stop();
        drop(dt);
        if workload.blocked() {
            let log_bytes = std::fs::metadata(self.work.join("delta.log")).map_or(0, |m| m.len());
            self.s.log_bytes_per_record =
                log_bytes as f64 / self.inputs.held_out_records().max(1) as f64;
        }

        if workload == Workload::DeltaServe {
            let mut ctx = PipelineContext::new(system_config(workload, None, None, None));
            ctx.structured_records = base_records
                .into_iter()
                .chain(self.inputs.batches.iter().flatten().cloned())
                .collect();
            let mut stages: [Box<dyn PipelineStage>; 2] = [
                Box::<EntityConsolidationStage>::default(),
                Box::<FusionStage>::default(),
            ];
            let ran = run_stages(&mut ctx, &mut stages);
            self.checks.ok(ran, "from-scratch rebuild")?;
            self.check_served(&live, &ctx.fused, &ctx.fusion_groups, mix);
        }
        let restarts = if workload == Workload::OnboardFile {
            ONBOARD_FINAL_RESTARTS
        } else {
            1
        };
        for i in 0..restarts {
            let op = self.op("restart", i);
            let dt = self.reopen(&op, self.inputs.batches.len(), Some(pre_kill))?;
            if i == 0 && workload != Workload::DeltaServe {
                let c = dt.context();
                self.check_served(&live, &c.fused, &c.fusion_groups, mix);
            }
        }
        Some(())
    }

    /// The bytes served for each request of the mix against what a view
    /// synced from `fused` renders.
    fn check_served(
        &mut self,
        live: &[(u16, u64)],
        fused: &[FusedEntity],
        groups: &[(String, Vec<usize>)],
        mix: &ReadMix,
    ) {
        let mut view = CollectionView::new(index_spec());
        view.sync(fused, groups, None);
        let want = expected_bodies(
            &view.snapshot(Vec::new()),
            &mix.reqs,
            &mut Tracer::new(false, self.epoch),
            "check",
            &mut ExecTally::default(),
        );
        for (i, ((status, got), want)) in live.iter().zip(&want).enumerate() {
            self.checks.check(*status == 200 && got == want, || {
                format!("served bytes for {} differ from the rebuild", mix.paths[i])
            });
        }
    }
}

fn report(b: Bench) {
    let s = &b.s;
    let lat: Vec<f64> = s.reads.iter().map(ReadSample::latency_ms).collect();
    let mut e2e: Vec<(&str, f64, &str)> = vec![
        ("setup_s", median(&s.setup_s), "s"),
        ("fuse_s", median(&s.fuse_s), "s"),
        ("restart_s", median(&s.restart_s), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    let mut checks = b.checks;
    for (name, n, q) in [
        ("analytic", s.analytic_ms.len(), 0.9),
        ("delta", s.delta_ms.len(), 0.5),
        ("read", s.reads.len(), 0.99),
    ] {
        checks.check(n >= samples_needed(q), || {
            format!(
                "{name}: {n} samples, percentile needs {}",
                samples_needed(q)
            )
        });
    }
    let error_ratio = checks.failed as f64 / checks.attempted.max(1) as f64;

    println!(
        "workload {} seed {} trace {}",
        b.args.workload.name(),
        b.args.seed,
        u8::from(b.args.trace)
    );
    println!(
        "pools: rayon {} threads, http {} workers; samples: setup {}, fuse {}, restart {}, analytic {}, delta {}, read {}, ladder {} per rung",
        rayon::current_num_threads(),
        ServerConfig::default().workers,
        s.setup_s.len(),
        s.fuse_s.len(),
        s.restart_s.len(),
        s.analytic_ms.len(),
        s.delta_ms.len(),
        s.reads.len(),
        RUNG_REQUESTS
    );
    for (rate, p99, pass) in &s.ladder {
        println!(
            "ladder {rate:>6.0}/s  p99 {p99:>8.3} ms  {}",
            if *pass { "pass" } else { "fail" }
        );
    }
    if let Some(budget) = b.cache_budget {
        println!("extent cache budget {budget} B per shard");
    }
    for (name, value, unit) in &e2e {
        println!("{name:<18} {value:>14.4} {unit}");
    }
    println!("{:<18} {:>14.4} ratio", "error_ratio", error_ratio);
    // Measured in every run but too unsteady on a small shared host to
    // bound; traced runs report them per layer.
    let mut unbounded = vec![
        ("analytic_p50_ms", quantile(&s.analytic_ms, 0.5), "ms"),
        ("analytic_p90_ms", quantile(&s.analytic_ms, 0.9), "ms"),
        ("delta_mean_ms", mean(&s.delta_ms), "ms"),
        ("delta_p50_ms", quantile(&s.delta_ms, 0.5), "ms"),
        ("read_p50_ms", quantile(&lat, 0.5), "ms"),
        ("read_p99_ms", quantile(&lat, 0.99), "ms"),
    ];
    if b.args.trace {
        unbounded.push(("read_max_rps", s.max_rps, "1/s"));
    }
    for (name, value, unit) in unbounded {
        println!("{name:<18} {value:>14.4} {unit} (unbounded)");
    }
    for note in &checks.notes {
        println!("FAILED: {note}");
    }

    let metrics: Vec<(String, f64, &str)> = if b.args.trace {
        let mut tracer = b.tracer;
        for (i, r) in s.reads.iter().enumerate() {
            tracer.record("http.connect", format!("read-{i}"), r.sent, r.connected);
            tracer.record("http.rtt", format!("read-{i}"), r.sent, r.done);
        }
        let path = std::path::Path::new(SPANS_DIR).join(format!(
            "{}-seed{}-spans.jsonl",
            b.args.workload.name(),
            b.args.seed
        ));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: cannot write spans: {e}");
        }
        let mut layer = per_layer(&tracer, s, b.inputs.input_bytes);
        for (name, value, unit) in e2e.drain(..) {
            layer.push((format!("traced.{name}"), value, unit));
        }
        layer
    } else {
        e2e.into_iter()
            .map(|(n, v, u)| (n.to_owned(), v, u))
            .collect()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    );
    if checks.failed > 0 {
        std::process::exit(1);
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() && v != 0.0 {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The per-layer metrics of a traced run.
fn per_layer(t: &Tracer, s: &Samples, input_bytes: u64) -> Vec<(String, f64, &'static str)> {
    let own = t.self_times_ms();
    let dur = t.durations_ms();
    let med = |m: &BTreeMap<&'static str, Vec<f64>>, k: &str| m.get(k).map_or(0.0, |v| median(v));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let c = &s.build;
    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| out.push((name.to_owned(), value, unit));

    let ingest_ms = med(&own, "ingest");
    put("ingest.self_ms", ingest_ms, "ms");
    put(
        "ingest.fragments_per_s",
        ratio(inputs::FRAGMENTS as f64, ingest_ms / 1e3),
        "1/s",
    );
    put("storage.flushes", c.flushes as f64, "count");
    put(
        "storage.bytes_per_input_byte",
        ratio(c.stored_bytes as f64, input_bytes as f64),
        "ratio",
    );

    let schema_ms = med(&own, "schema");
    put("schema.self_ms", schema_ms, "ms");
    put(
        "schema.ms_per_source",
        ratio(schema_ms, c.schema_sources as f64),
        "ms",
    );
    put("schema.auto_accepted", c.auto_accepted as f64, "count");
    put("schema.escalated", c.escalated as f64, "count");
    put("schema.new_attributes", c.new_attributes as f64, "count");

    put("clean.self_ms", med(&own, "clean"), "ms");
    put("clean.records", c.clean_records as f64, "count");
    put("clean.values_rewritten", c.values_rewritten as f64, "count");

    let score_ms = med(&dur, "entity.score");
    put("entity.self_ms", med(&own, "entity"), "ms");
    put("entity.block_ms", med(&dur, "entity.block"), "ms");
    put("entity.prepare_ms", med(&dur, "entity.prepare"), "ms");
    put("entity.score_ms", score_ms, "ms");
    put("entity.cluster_ms", med(&dur, "entity.cluster"), "ms");
    put("entity.candidate_pairs", c.candidate_pairs as f64, "count");
    put("entity.accepted_pairs", c.accepted_pairs as f64, "count");
    put(
        "entity.accept_ratio",
        ratio(c.accepted_pairs as f64, c.candidate_pairs as f64),
        "ratio",
    );
    put(
        "entity.pairs_per_s",
        ratio(c.candidate_pairs as f64, score_ms / 1e3),
        "1/s",
    );
    put(
        "entity.degraded_buckets",
        c.degraded_buckets as f64,
        "count",
    );

    put("fusion.self_ms", med(&own, "fusion"), "ms");
    put("fusion.entities", c.fused_entities as f64, "count");
    put("fusion.members", c.fused_members as f64, "count");

    let d = &s.deltas;
    let sum = |f: fn(&DeltaReport) -> usize| d.iter().map(|r| f(r) as f64).sum::<f64>();
    let batches = d.len().max(1) as f64;
    put("delta.consolidate_ms", med(&dur, "delta"), "ms");
    put(
        "delta.candidate_pairs",
        sum(|r| r.candidate_pairs) / batches,
        "count",
    );
    put(
        "delta.scored_pairs",
        sum(|r| r.scored_pairs) / batches,
        "count",
    );
    put(
        "delta.memo_hit_ratio",
        ratio(sum(|r| r.memo_hits), sum(|r| r.candidate_pairs)),
        "ratio",
    );
    put(
        "delta.reuse_ratio",
        ratio(
            sum(|r| r.reused_clusters),
            sum(|r| r.reused_clusters) + sum(|r| r.dirty_clusters),
        ),
        "ratio",
    );
    put(
        "delta.fused_cache_evicted",
        sum(|r| r.fused_cache_evicted),
        "count",
    );

    put("log.bytes_per_record", s.log_bytes_per_record, "B");
    put("restart.base_ms", med(&dur, "restart.base"), "ms");
    put("restart.replay_ms", med(&dur, "restart.replay"), "ms");

    let index = |f: fn(&IndexMaintenance) -> u64| s.index.iter().map(|m| f(m) as f64).sum::<f64>();
    let reindexed = index(|m| m.clusters_reindexed);
    put("view.publish_ms", med(&dur, "view"), "ms");
    put("index.full_builds", index(|m| m.full_builds), "count");
    put("index.clusters_reindexed", reindexed, "count");
    put(
        "index.reuse_ratio",
        ratio(
            index(|m| m.clusters_reused),
            index(|m| m.clusters_reused) + reindexed,
        ),
        "ratio",
    );

    for class in CLASSES {
        let name = format!("exec.query_us.{}", &class.span()[5..]);
        out.push((name, med(&dur, class.span()) * 1e3, "us"));
    }
    let mut put =
        |name: &str, value: f64, unit: &'static str| out.push((name.to_owned(), value, unit));
    put(
        "exec.rows_examined_per_result",
        ratio(s.exec.candidates as f64, s.exec.results as f64),
        "ratio",
    );

    let us = |f: fn(&ReadSample) -> Duration| -> f64 {
        let v: Vec<f64> = s.reads.iter().map(|r| f(r).as_secs_f64() * 1e6).collect();
        median(&v)
    };
    let rtt = us(|r| r.done - r.sent);
    let exec_us: Vec<f64> = CLASSES
        .iter()
        .flat_map(|c| dur.get(c.span()).cloned().unwrap_or_default())
        .map(|v| v * 1e3)
        .collect();
    put("http.connect_us", us(|r| r.connected - r.sent), "us");
    put("http.rtt_us", rtt, "us");
    put("http.overhead_us", rtt - median(&exec_us), "us");
    let lat: Vec<f64> = s.reads.iter().map(ReadSample::latency_ms).collect();
    put("read.p50_ms", quantile(&lat, 0.5), "ms");
    put("read.p99_ms", quantile(&lat, 0.99), "ms");
    put("analytic.p50_ms", quantile(&s.analytic_ms, 0.5), "ms");
    put("analytic.p90_ms", quantile(&s.analytic_ms, 0.9), "ms");
    put("delta.mean_ms", mean(&s.delta_ms), "ms");
    put("delta.p50_ms", quantile(&s.delta_ms, 0.5), "ms");
    put("read.max_rps", s.max_rps, "1/s");
    let late: Vec<f64> = s.reads.iter().map(ReadSample::late_ms).collect();
    put("read.generator_late_ms", quantile(&late, 0.99), "ms");

    let k = &s.cache;
    put("analytic.table3_ms", med(&dur, "analytic.table3"), "ms");
    put("analytic.table4_ms", med(&dur, "analytic.table4"), "ms");
    put(
        "cache.hit_ratio",
        ratio(k.hits as f64, (k.hits + k.misses) as f64),
        "ratio",
    );
    put("cache.misses", k.misses as f64, "count");
    put("cache.evictions", k.evictions as f64, "count");
    put("cache.disk_loads", k.disk_loads as f64, "count");
    put("storage.decode_errors", k.decode_errors as f64, "count");

    put("samples.setup", s.setup_s.len() as f64, "count");
    put("samples.fuse", s.fuse_s.len() as f64, "count");
    put("samples.restart", s.restart_s.len() as f64, "count");
    put("samples.analytic", s.analytic_ms.len() as f64, "count");
    put("samples.delta", s.delta_ms.len() as f64, "count");
    put("samples.read", s.reads.len() as f64, "count");
    put("samples.ladder_rung", RUNG_REQUESTS as f64, "count");
    put(
        "pool.rayon_threads",
        rayon::current_num_threads() as f64,
        "count",
    );
    put(
        "pool.http_workers",
        ServerConfig::default().workers as f64,
        "count",
    );
    out
}
