//! The incremental-consolidation correctness pin: splitting a corpus into
//! any prefix + any sequence of delta batches and feeding it through
//! [`DataTamer::consolidate_delta`] must produce byte-identical fused
//! entities and cluster membership to a from-scratch full run over the
//! concatenated corpus — at any thread count.
//!
//! The resident state this guards: the scoring context and blocking
//! indices extend in place, only touched buckets are probed (never
//! old-vs-old), accepted pairs merge into a persistent union-find, and
//! fused entities re-resolve only for dirty clusters.

use std::sync::atomic::{AtomicUsize, Ordering};

use datatamer::core::fusion::{BlockedErConfig, GroupingStrategy, CHEAPEST_PRICE, SHOW_NAME};
use datatamer::core::{DataTamer, DataTamerConfig, DeltaLogConfig, DeltaReport, PipelinePlan};
use datatamer::model::{Record, RecordId, SourceId, Value};
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;

/// Distinguishes delta-log temp dirs across tests in one process.
static LOG_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A record already in canonical shape (upper-case global attributes,
/// clean-stable values): schema mapping and cleaning are identities for
/// it, so raw delta batches and staged registration yield byte-identical
/// corpus records — the precondition for comparing the two paths.
fn show(id: u64, name: &str, price: &str) -> Record {
    Record::from_pairs(
        SourceId(0),
        RecordId(id),
        vec![(SHOW_NAME, Value::from(name)), (CHEAPEST_PRICE, Value::from(price))],
    )
}

fn config() -> DataTamerConfig {
    DataTamerConfig {
        extent_size: 64 * 1024,
        shards: 2,
        grouping: GroupingStrategy::BlockedEr(BlockedErConfig {
            ..Default::default()
        }),
        ..Default::default()
    }
}

/// `(memo, window, fused-cache)` residency budgets.
type Budgets = (Option<usize>, Option<usize>, Option<usize>);

/// Like [`config`], but with residency budgets and (optionally) a
/// persistent delta log.
fn config_with(budgets: Budgets, delta_log: Option<DeltaLogConfig>) -> DataTamerConfig {
    let (memo_budget, window_budget, fused_cache_budget) = budgets;
    DataTamerConfig {
        extent_size: 64 * 1024,
        shards: 2,
        grouping: GroupingStrategy::BlockedEr(BlockedErConfig {
            memo_budget,
            window_budget,
            ..Default::default()
        }),
        fused_cache_budget,
        delta_log,
        ..Default::default()
    }
}

/// Every observable consolidation output, flattened to comparable blobs:
/// the fused composites (key, member count, confidence, full record) and
/// the cluster membership behind them.
fn fingerprint(dt: &DataTamer) -> (String, String) {
    let fused: String = dt
        .context()
        .fused
        .iter()
        .map(|f| format!("{}|{}|{:?}|{:?}\n", f.key, f.member_count, f.confidence, f.record))
        .collect();
    (fused, format!("{:?}", dt.context().fusion_groups))
}

/// Seed with `prefix` through the staged pipeline, then ingest each batch
/// through the resident-state delta path.
fn incremental_run(
    prefix: &[Record],
    batches: &[&[Record]],
) -> ((String, String), Vec<DeltaReport>) {
    let mut dt = DataTamer::new(config());
    let mut plan = PipelinePlan::new();
    if !prefix.is_empty() {
        plan = plan.structured("s1", prefix);
    }
    dt.run(plan).expect("staged seed run");
    let reports: Vec<DeltaReport> =
        batches.iter().map(|b| dt.consolidate_delta(b).expect("delta ingest")).collect();
    (fingerprint(&dt), reports)
}

/// From-scratch run over the whole corpus as one structured source.
fn full_run(corpus: &[Record]) -> (String, String) {
    let mut dt = DataTamer::new(config());
    let mut plan = PipelinePlan::new();
    if !corpus.is_empty() {
        plan = plan.structured("s1", corpus);
    }
    dt.run(plan).expect("full run");
    fingerprint(&dt)
}

/// Seed with `prefix`, consolidate `batches[..kill_after]`, then *drop the
/// whole system* — the kill. Reopen over the same delta log, reseed from
/// the same prefix, consolidate the remaining batches, and return the
/// final fingerprint. Only the log survives the kill; the resident
/// consolidator, score memo, and fused cache are all lost with the first
/// instance.
fn restarted_run(
    prefix: &[Record],
    batches: &[&[Record]],
    kill_after: usize,
    budgets: Budgets,
    compact_after_frames: usize,
) -> (String, String) {
    let seq = LOG_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dt_restart_{}_{seq}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = DeltaLogConfig {
        path: dir.join("delta.log"),
        compact_after_frames,
    };
    let cfg = config_with(budgets, Some(log));

    {
        let mut dt = DataTamer::new(cfg.clone());
        let mut plan = PipelinePlan::new();
        if !prefix.is_empty() {
            plan = plan.structured("s1", prefix);
        }
        dt.run(plan).expect("staged seed run");
        for b in &batches[..kill_after] {
            dt.consolidate_delta(b).expect("delta ingest before the kill");
        }
        // Dropped here: the kill. Nothing in-memory survives.
    }

    let mut dt = DataTamer::new(cfg);
    let mut plan = PipelinePlan::new();
    if !prefix.is_empty() {
        plan = plan.structured("s1", prefix);
    }
    dt.run(plan).expect("staged reseed run");
    for b in &batches[kill_after..] {
        dt.consolidate_delta(b).expect("delta ingest after restart");
    }
    // Force the seed + log replay even when the kill came after the last
    // batch (an empty delta must surface the replayed state and change
    // nothing else).
    dt.consolidate_delta(&[]).expect("no-op delta after restart");
    let fp = fingerprint(&dt);
    std::fs::remove_dir_all(&dir).ok();
    fp
}

/// Random corpora with real consolidation structure: a handful of entity
/// groups, each spawning exact duplicates, word-order swaps, typo
/// variants, and cross-group-token variants, at slightly varying prices —
/// so runs contain merges, near-misses, and singletons.
fn corpus_strategy() -> impl Strategy<Value = Vec<Record>> {
    prop::collection::vec((0u64..8, 0u8..4, 0u8..3), 0..60).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (g, variant, p))| {
                let name = match variant {
                    0 => format!("Group{g} Title{g}"),
                    1 => format!("Title{g} Group{g}"),
                    2 => format!("Group{g} Titl{g}"),
                    _ => format!("Common Group{g} Title{g}"),
                };
                show(i as u64, &name, &format!("${}", 10 + u64::from(p)))
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_prefix_delta_split_matches_a_full_rebuild(
        corpus in corpus_strategy(),
        cut_bytes in prop::collection::vec(any::<u8>(), 1..5),
    ) {
        // Map the raw cut bytes onto sorted positions in the corpus; the
        // segments between them are the prefix and 1..=5 delta batches
        // (empty segments included — an empty delta must be a no-op).
        let mut cuts: Vec<usize> = cut_bytes
            .iter()
            .map(|&b| (usize::from(b) * corpus.len()) / 256)
            .collect();
        cuts.sort_unstable();
        let prefix = &corpus[..cuts[0]];
        let mut batches: Vec<&[Record]> = Vec::new();
        for w in cuts.windows(2) {
            batches.push(&corpus[w[0]..w[1]]);
        }
        batches.push(&corpus[*cuts.last().unwrap()..]);

        let serial = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let wide = ThreadPoolBuilder::new().num_threads(8).build().unwrap();

        let full_serial = serial.install(|| full_run(&corpus));
        let (inc_serial, reports_serial) =
            serial.install(|| incremental_run(prefix, &batches));
        prop_assert_eq!(
            &inc_serial, &full_serial,
            "incremental (serial) diverged from the full rebuild"
        );

        let full_wide = wide.install(|| full_run(&corpus));
        let (inc_wide, reports_wide) = wide.install(|| incremental_run(prefix, &batches));
        prop_assert_eq!(&full_wide, &full_serial, "full rebuild is thread-count dependent");
        prop_assert_eq!(&inc_wide, &full_serial, "incremental (wide) diverged");
        prop_assert_eq!(reports_wide, reports_serial, "delta reports are thread-count dependent");
    }

    // The PR-7 pin: kill the system at *any* batch boundary, under *any*
    // residency budget (including zero everywhere), reopen it over the
    // same delta log — and the final fused output is still byte-identical
    // to a from-scratch rebuild, at 1 and 8 threads.
    #[test]
    fn kill_restart_at_any_boundary_matches_a_full_rebuild(
        corpus in corpus_strategy(),
        cut_bytes in prop::collection::vec(any::<u8>(), 1..4),
        kill_byte in any::<u8>(),
        budget_sel in 0usize..4,
        compact_sel in 0usize..2,
    ) {
        let mut cuts: Vec<usize> = cut_bytes
            .iter()
            .map(|&b| (usize::from(b) * corpus.len()) / 256)
            .collect();
        cuts.sort_unstable();
        let prefix = &corpus[..cuts[0]];
        let mut batches: Vec<&[Record]> = Vec::new();
        for w in cuts.windows(2) {
            batches.push(&corpus[w[0]..w[1]]);
        }
        batches.push(&corpus[*cuts.last().unwrap()..]);
        // 0 = killed before any delta landed; len = killed after the last.
        let kill_after = (usize::from(kill_byte) * (batches.len() + 1)) / 256;
        let budgets: Budgets = [
            (None, None, None),
            (Some(0), Some(0), Some(0)),
            (Some(16), Some(4), Some(8)),
            (Some(1), None, Some(2)),
        ][budget_sel];
        // 0 compacts the log after every append; 64 never compacts here.
        let compact_after_frames = [0usize, 64][compact_sel];

        let serial = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let wide = ThreadPoolBuilder::new().num_threads(8).build().unwrap();

        let full = serial.install(|| full_run(&corpus));
        let rs = serial.install(|| {
            restarted_run(prefix, &batches, kill_after, budgets, compact_after_frames)
        });
        prop_assert_eq!(
            &rs, &full,
            "restart-and-replay (serial) diverged from the full rebuild \
             (kill_after={}, budgets={:?})", kill_after, budgets
        );
        let rw = wide.install(|| {
            restarted_run(prefix, &batches, kill_after, budgets, compact_after_frames)
        });
        prop_assert_eq!(
            &rw, &full,
            "restart-and-replay (wide) diverged (kill_after={}, budgets={:?})",
            kill_after, budgets
        );
    }
}

/// Zero residency budgets everywhere: every counter must fire, occupancy
/// must pin at zero after every batch, fused output must stay
/// byte-identical to the unbounded rebuild, and the per-batch reports must
/// be thread-count independent.
#[test]
fn zero_budgets_evict_everything_and_stay_byte_identical() {
    // One stopword-like token ("common") shared by every record blows the
    // 256-member bucket cap, so the blocker degrades it and accepted pairs
    // land in the retractable *window* sets — the state the window budget
    // governs. The numbered tail tokens pair duplicates up in core blocks.
    let corpus: Vec<Record> = (0..280)
        .map(|i| show(i, &format!("common show{:02}", i % 90), "$10"))
        .collect();
    let prefix = &corpus[..120];
    let batches: Vec<&[Record]> = vec![&corpus[120..200], &corpus[200..260], &corpus[260..]];

    let run = |threads: usize| {
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        pool.install(|| {
            let mut dt = DataTamer::new(config_with((Some(0), Some(0), Some(0)), None));
            dt.run(PipelinePlan::new().structured("s1", prefix)).expect("seed run");
            let reports: Vec<DeltaReport> = batches
                .iter()
                .map(|b| dt.consolidate_delta(b).expect("delta ingest"))
                .collect();
            (fingerprint(&dt), reports)
        })
    };

    let (fp_serial, reports_serial) = run(1);
    let (fp_wide, reports_wide) = run(8);

    assert_eq!(fp_serial, full_run(&corpus), "zero budgets changed the fused output");
    assert_eq!(fp_wide, fp_serial, "zero-budget run is thread-count dependent");
    assert_eq!(reports_wide, reports_serial, "reports are thread-count dependent");

    for (i, r) in reports_serial.iter().enumerate() {
        assert_eq!(r.memo_entries, 0, "batch {i} left memo entries: {r:?}");
        assert_eq!(r.window_entries, 0, "batch {i} left window entries: {r:?}");
        assert_eq!(r.fused_cache_entries, 0, "batch {i} left cached entities: {r:?}");
    }
    assert!(
        reports_serial.iter().any(|r| r.memo_evicted > 0),
        "memo eviction never fired: {reports_serial:?}"
    );
    assert!(
        reports_serial.iter().any(|r| r.window_evicted > 0),
        "window eviction never fired: {reports_serial:?}"
    );
    assert!(
        reports_serial.iter().any(|r| r.fused_cache_evicted > 0),
        "fused-cache eviction never fired: {reports_serial:?}"
    );
}

#[test]
fn only_dirty_clusters_reresolve() {
    // Token-unique names: each record blocks alone, so the corpus settles
    // into one cluster per distinct name — a delta duplicating one name
    // must dirty exactly that cluster and reuse every other.
    let corpus: Vec<Record> =
        (0..30).map(|i| show(i, &format!("Unique{i} Show{i}"), "$10")).collect();
    let mut dt = DataTamer::new(config());
    dt.run(PipelinePlan::new().structured("s1", &corpus)).expect("seed run");
    let seed = dt.consolidate_delta(&[]).expect("seeding no-op delta");
    assert_eq!(seed.total_records, 30);

    let d = dt.consolidate_delta(&[show(100, "Unique7 Show7", "$10")]).expect("delta");
    assert_eq!(d.dirty_clusters, 1, "{d:?}");
    assert_eq!(d.reused_clusters, 29, "{d:?}");
    assert_eq!(d.accepted_pairs, 1, "{d:?}");
    assert!(d.scored_pairs <= 2, "a one-record delta must not rescore the corpus: {d:?}");
    assert!(d.reused_context_fraction > 0.96, "{d:?}");

    // And the merged view agrees with a rebuild over the concatenation.
    let mut all = corpus.clone();
    all.push(show(100, "Unique7 Show7", "$10"));
    assert_eq!(fingerprint(&dt), full_run(&all));
}
