//! End-to-end coverage of the `GroupingStrategy` seam: the staged pipeline
//! consolidating fuzzy duplicates through blocked ER (blocking →
//! pair scoring → union-find), with blocking health surfaced in the stage
//! report and progressive blocking keeping oversized buckets connected —
//! and the stage pinned byte-for-byte to a reference composed from the
//! batch primitives.

use datatamer::core::fusion::{
    BlockedErConfig, GroupingReport, GroupingStrategy, ScorerSpec, CHEAPEST_PRICE, SHOW_NAME,
};
use datatamer::core::stage::{
    run_stages, stage_names, EntityConsolidationStage, PipelineContext, PipelineStage,
    StageReport,
};
use datatamer::core::{DataTamer, DataTamerConfig, PipelinePlan};
use datatamer::entity::cluster::cluster_pairs;
use datatamer::entity::{BlockingStrategy, OversizeFallback, BUCKET_CAP};
use datatamer::model::{Record, RecordId, SourceId, Value};
use datatamer::text::normalize::canonical_name;
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;

fn config_with(grouping: GroupingStrategy) -> DataTamerConfig {
    DataTamerConfig {
        extent_size: 64 * 1024,
        shards: 2,
        grouping,
        ..Default::default()
    }
}

/// Sources describing the same shows with word-order damage and price
/// agreement — beyond what canonical-name fuzzy attachment can unify.
fn damaged_sources() -> (Vec<Record>, Vec<Record>) {
    let clean = vec![
        Record::from_pairs(
            SourceId(0),
            RecordId(0),
            vec![
                ("show_name", Value::from("Walking Dead")),
                ("cheapest_price", Value::from("$27")),
            ],
        ),
        Record::from_pairs(
            SourceId(0),
            RecordId(1),
            vec![
                ("show_name", Value::from("Matilda")),
                ("cheapest_price", Value::from("$45")),
            ],
        ),
    ];
    let damaged = vec![
        Record::from_pairs(
            SourceId(1),
            RecordId(0),
            vec![
                ("show_name", Value::from("Dead Walking")),
                ("cheapest_price", Value::from("$27")),
            ],
        ),
        Record::from_pairs(
            SourceId(1),
            RecordId(1),
            vec![
                ("show_name", Value::from("Matilda")),
                ("cheapest_price", Value::from("$39")),
            ],
        ),
    ];
    (clean, damaged)
}

#[test]
fn config_level_blocked_er_consolidates_fuzzy_duplicates_end_to_end() {
    let (clean, damaged) = damaged_sources();

    // Canonical-name grouping splits the word-order pair: 3 entities.
    let mut dt = DataTamer::new(config_with(GroupingStrategy::CanonicalName));
    dt.run(PipelinePlan::new().structured("clean", &clean).structured("damaged", &damaged))
        .unwrap();
    assert_eq!(dt.context().fused.len(), 3);

    // Blocked ER configured system-wide (no plan override needed): the
    // damaged duplicate joins its entity, and the cheapest price across
    // both sources survives fusion.
    let mut dt = DataTamer::new(config_with(GroupingStrategy::BlockedEr(
        BlockedErConfig::default(),
    )));
    let fused = dt
        .run(PipelinePlan::new().structured("clean", &clean).structured("damaged", &damaged))
        .unwrap();
    assert_eq!(fused.len(), 2, "walking dead + matilda");
    let walking = DataTamer::lookup(fused, "Walking Dead").expect("consolidated entity");
    assert_eq!(walking.member_count, 2);
    let matilda = DataTamer::lookup(fused, "Matilda").expect("exact duplicate still fuses");
    assert_eq!(matilda.member_count, 2);
    assert_eq!(
        matilda.record.get_text("CHEAPEST_PRICE").as_deref(),
        Some("$39"),
        "NumericMin resolver sees both sources' prices"
    );

    // The stage report carries the blocking health of the run.
    match dt.context().report_of(stage_names::ENTITY_CONSOLIDATION).unwrap() {
        StageReport::EntityConsolidation { records, groups, blocking, .. } => {
            assert_eq!(*records, 4);
            assert_eq!(*groups, 2);
            assert!(blocking.candidate_pairs >= 2);
            assert_eq!(blocking.accepted_pairs, 2);
            assert_eq!(blocking.degraded_buckets, 0);
        }
        other => panic!("wrong report variant: {other:?}"),
    }

    // Ad-hoc re-fusion agrees with the configured grouping.
    assert_eq!(dt.fuse().len(), 2);
}

#[test]
fn oversized_bucket_stays_connected_through_the_staged_pipeline() {
    // Every show shares the token "show", blowing the 256-member bucket
    // cap, with one duplicate pair planted entirely beyond it. Progressive
    // blocking (the default fallback) must still consolidate the pair, and
    // the degradation must surface in the stage report. The venue is
    // unique per show except for the planted pair, and the scorer weights
    // it heavily, so only the true duplicates clear the threshold.
    let mut rows: Vec<Record> = (0..600u64)
        .map(|i| {
            Record::from_pairs(
                SourceId(0),
                RecordId(i),
                vec![
                    ("show_name", Value::from(format!("show number{i:03}"))),
                    ("venue", Value::from(format!("house of stage {i:03}"))),
                    ("cheapest_price", Value::from("$10")),
                ],
            )
        })
        .collect();
    let plant = |row: &mut Record, name: &str| {
        row.set("show_name", Value::from(name));
        row.set("venue", Value::from("the planted duplicate venue"));
    };
    plant(&mut rows[400], "show zzdupx1");
    plant(&mut rows[599], "show zzdupx2");

    let grouping = GroupingStrategy::BlockedEr(BlockedErConfig {
        key_attr: "SHOW_NAME".to_owned(),
        strategy: BlockingStrategy::Token,
        scorer: ScorerSpec::Rules {
            weights: vec![("VENUE".to_owned(), 5.0)],
            default_weight: 1.0,
        },
        accept_threshold: 0.8,
        ..Default::default()
    });
    let mut dt = DataTamer::new(config_with(grouping));
    let fused = dt.run(PipelinePlan::new().structured("s1", &rows)).unwrap();

    let dup = fused
        .iter()
        .find(|f| f.key.starts_with("show zzdupx"))
        .expect("planted duplicate entity");
    assert_eq!(
        dup.member_count, 2,
        "the beyond-cap duplicate pair must consolidate into one entity"
    );
    match dt.context().report_of(stage_names::ENTITY_CONSOLIDATION).unwrap() {
        StageReport::EntityConsolidation { blocking, .. } => {
            assert_eq!(blocking.degraded_buckets, 1, "the 'show' bucket degradation is announced");
            assert!(
                blocking.candidate_pairs < 600 * 599 / 2 / 3,
                "candidate volume stays far from quadratic: {}",
                blocking.candidate_pairs
            );
        }
        other => panic!("wrong report variant: {other:?}"),
    }
}

/// The reference: blocked ER composed from the batch primitives — keyed
/// blocking over the prepared context's sort axis, pair acceptance against
/// that context, union-find clustering — then the stage's group contract
/// (a cluster whose first member has no key, or a key that canonicalises
/// to nothing, forms no group; the key is the first member's canonical
/// name).
fn reference_groups(
    records: &[Record],
    config: &BlockedErConfig,
) -> (Vec<(String, Vec<usize>)>, GroupingReport) {
    let prepared = config.scorer.build().prepare(records);
    let outcome = config.build_blocker().candidates_with_report_keyed(records, &|| {
        prepared.sort_keys(&config.key_attr).expect("rules contexts serve any attribute")
    });
    let accepted = prepared.accepted_pairs(&outcome.pairs, config.accept_threshold);
    let groups = cluster_pairs(records.len(), &accepted)
        .into_iter()
        .filter_map(|cluster| {
            let key = canonical_name(&records[cluster[0]].get_text(&config.key_attr)?);
            (!key.is_empty()).then_some((key, cluster))
        })
        .collect();
    let report = GroupingReport {
        candidate_pairs: outcome.pairs.len(),
        accepted_pairs: accepted.len(),
        degraded_buckets: outcome.degraded_buckets,
    };
    (groups, report)
}

/// The entity-consolidation stage's groups and blocking report over
/// `records`, grouping under `config` as the context's strategy.
fn stage_groups(
    records: &[Record],
    config: &BlockedErConfig,
) -> (Vec<(String, Vec<usize>)>, GroupingReport) {
    let mut ctx = PipelineContext::new(config_with(GroupingStrategy::BlockedEr(config.clone())));
    ctx.structured_records = records.to_vec();
    let mut stages: Vec<Box<dyn PipelineStage>> =
        vec![Box::<EntityConsolidationStage>::default()];
    run_stages(&mut ctx, &mut stages).expect("consolidation stage runs");
    match ctx.report_of(stage_names::ENTITY_CONSOLIDATION) {
        Some(StageReport::EntityConsolidation { blocking, .. }) => {
            (ctx.fusion_groups.clone(), *blocking)
        }
        other => panic!("wrong report variant: {other:?}"),
    }
}

/// Random corpora for the reference check: a few entity groups spawning
/// exact duplicates, word-order swaps, typos and `common`-token variants
/// at varying prices, plus keyless rows and names that canonicalise to
/// nothing. With `filler`, more than [`BUCKET_CAP`] rows share the token
/// `common`, so that bucket degrades to windowed expansion.
fn reference_corpus() -> impl Strategy<Value = Vec<Record>> {
    (prop::collection::vec((0u64..8, 0u8..6, 0u8..3), 0..60), any::<bool>()).prop_map(
        |(specs, filler)| {
            let mut rows: Vec<Record> = specs
                .into_iter()
                .map(|(g, variant, p)| {
                    let price = (CHEAPEST_PRICE, Value::from(format!("${}", 10 + u64::from(p))));
                    let name = match variant {
                        0 => format!("Group{g} Title{g}"),
                        1 => format!("Title{g} Group{g}"),
                        2 => format!("Group{g} Titl{g}"),
                        3 => format!("Common Group{g} Title{g}"),
                        4 => "--".to_owned(),
                        _ => return vec![price],
                    };
                    vec![(SHOW_NAME, Value::from(name)), price]
                })
                .enumerate()
                .map(|(i, fields)| Record::from_pairs(SourceId(0), RecordId(i as u64), fields))
                .collect();
            if filler {
                let base = rows.len() as u64;
                rows.extend((0..BUCKET_CAP as u64 + 24).map(|i| {
                    Record::from_pairs(
                        SourceId(1),
                        RecordId(base + i),
                        vec![
                            (SHOW_NAME, Value::from(format!("Common Filler{i:03}"))),
                            (CHEAPEST_PRICE, Value::from("$10")),
                        ],
                    )
                }));
            }
            rows
        },
    )
}

fn strategy_of(sel: usize) -> BlockingStrategy {
    match sel {
        0 => BlockingStrategy::Token,
        1 => BlockingStrategy::Soundex,
        2 => BlockingStrategy::SortedNeighborhood { window: 4 },
        _ => BlockingStrategy::MinHashLsh { bands: 8, rows: 2 },
    }
}

fn fallback_of(sel: usize) -> OversizeFallback {
    match sel {
        0 => OversizeFallback::default(),
        1 => OversizeFallback::Truncate,
        _ => OversizeFallback::adaptive(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The one blocked-ER engine against an independent oracle: whatever
    // the corpus, blocking strategy and oversize fallback, the stage's
    // fusion groups and blocking report equal the batch-primitive
    // composition byte for byte, at 1 and at 8 rayon threads.
    #[test]
    fn stage_matches_the_batch_primitive_reference(
        corpus in reference_corpus(),
        strategy_sel in 0usize..4,
        fallback_sel in 0usize..3,
        threshold_sel in 0usize..3,
    ) {
        let config = BlockedErConfig {
            strategy: strategy_of(strategy_sel),
            fallback: fallback_of(fallback_sel),
            accept_threshold: [0.75, 0.85, 0.6][threshold_sel],
            ..Default::default()
        };
        let serial = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let wide = ThreadPoolBuilder::new().num_threads(8).build().unwrap();

        let want = serial.install(|| reference_groups(&corpus, &config));
        if corpus.len() > BUCKET_CAP && strategy_sel == 0 {
            prop_assert!(want.1.degraded_buckets >= 1, "the 'common' bucket must degrade");
        }
        let got_serial = serial.install(|| stage_groups(&corpus, &config));
        prop_assert_eq!(&got_serial, &want, "stage (serial) diverged from the reference");
        let got_wide = wide.install(|| stage_groups(&corpus, &config));
        prop_assert_eq!(&got_wide, &want, "stage (wide) diverged from the reference");
    }
}
