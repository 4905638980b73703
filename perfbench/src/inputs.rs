//! Workload inputs, generated from the seed with `datatamer-corpus`.
//!
//! The base corpus is the input of the `pipeline_end_to_end/*/887`
//! criterion cells: the 20 FTABLES sources plus 887 web-text fragments
//! (scale 1/20000, 2 padding sentences, 3 background mentions). Some of the
//! structured rows are held out of the base and handed to the delta phase
//! in global-schema spelling, together with rows for shows the base has
//! never seen, so every batch both joins existing clusters and creates new
//! ones.
//!
//! The delta stream's shape comes from the repository's incremental-ER
//! cells: batches of 32 rows, the batch size of
//! `incremental_er/delta_ingest/32/887` and of the `incremental_replay`
//! log. The stream is 20 such batches, the fewest that give the
//! per-batch latency median ten samples beyond it.

use datatamer::core::PipelinePlan;
use datatamer::corpus::dirt;
use datatamer::corpus::ftables::{self, FtablesConfig, GeneratedSource};
use datatamer::corpus::names;
use datatamer::corpus::webtext::{WebTextConfig, WebTextCorpus};
use datatamer::model::{Record, RecordId, SourceId, Value};
use datatamer::text::DomainParser;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Seed of the `pipeline_end_to_end/*` criterion cells' harness.
pub const CELL_SEED: u64 = 0xDA7A;
/// Web-text fragments in the base corpus (17_731_744 / 20_000).
pub const FRAGMENTS: usize = 887;
/// Records per delta batch (`incremental_er/delta_ingest/32/887`).
pub const BATCH_SIZE: usize = 32;
/// Delta batches in the stream.
pub const BATCHES: usize = 20;
/// Shows the base corpus never mentions; their rows arrive only as deltas.
pub const NEW_SHOWS: usize = 40;
/// Rows per new show.
pub const ROWS_PER_NEW_SHOW: usize = 6;
/// Structured rows held out of the base: the rest of the stream after the
/// new shows' rows, drawn uniformly from sources 1 to 19.
pub const HELD_OUT_ROWS: usize = BATCH_SIZE * BATCHES - NEW_SHOWS * ROWS_PER_NEW_SHOW;
/// Extent size the 887-fragment harness uses (2 GiB × 1/20000).
pub const EXTENT_SIZE: usize = 107_374;
/// Extent size of the file-backed workload: small enough that every shard
/// of the `instance` collection flushes several extents to disk (at the
/// harness size each shard's share fits in its resident tail extent).
pub const FILE_EXTENT_SIZE: usize = 16 * 1024;

/// Everything a workload feeds the system.
pub struct Inputs {
    /// The structured sources, held-out rows removed.
    pub sources: Vec<GeneratedSource>,
    /// The web-text corpus.
    pub corpus: WebTextCorpus,
    /// Delta batches, in arrival order, in global-schema spelling.
    pub batches: Vec<Vec<Record>>,
    /// Raw input bytes of the base corpus (fragment text plus structured
    /// cell text), the denominator of `storage.bytes_per_input_byte`.
    pub input_bytes: u64,
}

impl Inputs {
    /// Generate the inputs for `seed`. The same seed gives the same inputs.
    pub fn generate(seed: u64) -> Inputs {
        // The structured sources are those of the criterion cells for every
        // seed, so the amount of pair-scoring work barely moves between
        // seeds; the seed varies the web text (seed 55930 = 0xDA7A gives
        // the cells' corpus), which rows are held out, the new shows and
        // the read order.
        let mut sources = ftables::generate(
            &FtablesConfig {
                seed: CELL_SEED ^ 0xF7AB,
                ..Default::default()
            },
            1000,
        );
        let corpus = WebTextCorpus::generate(&WebTextConfig {
            num_fragments: FRAGMENTS,
            seed,
            zipf_exponent: 0.7,
            background_mentions: 3,
            padding_sentences: 2,
        });

        let mut rng = StdRng::seed_from_u64(seed ^ 0x0DE1_7A5E);
        // Source 0 keeps every row: it carries the pinned Table VI Matilda row.
        let mut rows: Vec<(usize, usize)> = sources
            .iter()
            .enumerate()
            .skip(1)
            .flat_map(|(s, source)| (0..source.records.len()).map(move |r| (s, r)))
            .collect();
        shuffle(&mut rows, &mut rng);
        rows.truncate(HELD_OUT_ROWS);
        rows.sort_unstable();
        let mut held_out: Vec<Record> = Vec::new();
        for (s, source) in sources.iter_mut().enumerate() {
            let picked: Vec<usize> = rows.iter().filter(|p| p.0 == s).map(|p| p.1).collect();
            if picked.is_empty() {
                continue;
            }
            let all = std::mem::take(&mut source.records);
            for (i, r) in all.into_iter().enumerate() {
                if picked.binary_search(&i).is_ok() {
                    held_out.push(to_global(&r, source));
                } else {
                    source.records.push(r);
                }
            }
        }
        held_out.extend(new_show_rows(&mut rng));
        // Batches mix joining rows and new-show rows.
        shuffle(&mut held_out, &mut rng);
        let batches = held_out
            .chunks(BATCH_SIZE)
            .map(<[Record]>::to_vec)
            .collect();

        let text_bytes: usize = corpus.fragments.iter().map(|f| f.text.len()).sum();
        let cell_bytes: usize = sources
            .iter()
            .flat_map(|s| s.records.iter())
            .flat_map(|r| r.iter())
            .map(|(k, v)| k.len() + v.to_text().len())
            .sum();
        Inputs {
            sources,
            corpus,
            batches,
            input_bytes: (text_bytes + cell_bytes) as u64,
        }
    }

    /// The base plan: every structured source plus the web text.
    pub fn base_plan(&self) -> PipelinePlan<'_> {
        let mut plan = PipelinePlan::new();
        for s in &self.sources {
            plan = plan.structured(&s.name, &s.records);
        }
        plan.webtext(self.parser(), self.fragments())
    }

    /// The domain parser over the corpus gazetteer.
    pub fn parser(&self) -> DomainParser {
        DomainParser::with_gazetteer(self.corpus.gazetteer.clone())
    }

    /// `(text, label)` pairs for the text ingest job.
    pub fn fragments(&self) -> Vec<(&str, &str)> {
        self.corpus
            .fragments
            .iter()
            .map(|f| (f.text.as_str(), f.kind.label()))
            .collect()
    }

    /// Held-out records across all batches.
    pub fn held_out_records(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }

    /// Structured records left in the base corpus.
    pub fn base_structured_records(&self) -> usize {
        self.sources.iter().map(|s| s.records.len()).sum()
    }
}

/// Seeded Fisher-Yates shuffle.
fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.random_range(0..=i);
        v.swap(i, j);
    }
}

/// Rename a source row's attributes to their global-schema spelling using
/// the generator's ground-truth mapping.
fn to_global(r: &Record, source: &GeneratedSource) -> Record {
    let mut out = Record::new(r.source, r.id);
    for (attr, value) in r.iter() {
        let name = source.mapping.get(attr).copied().unwrap_or(attr);
        out.set(name.to_uppercase(), value.clone());
    }
    out
}

/// Rows for shows absent from the base corpus. Titles are built from
/// syllables that no catalogue show uses, so these rows open new clusters.
fn new_show_rows(rng: &mut StdRng) -> Vec<Record> {
    const SYLLABLES: [&str; 12] = [
        "ka", "lo", "mir", "ven", "dra", "zu", "pel", "tor", "sa", "qui", "ben", "rho",
    ];
    let word = |rng: &mut StdRng| {
        let mut w: String = (0..3)
            .map(|_| SYLLABLES[rng.random_range(0..SYLLABLES.len())])
            .collect();
        w[..1].make_ascii_uppercase();
        w
    };
    let mut rows = Vec::with_capacity(NEW_SHOWS * ROWS_PER_NEW_SHOW);
    for show in 0..NEW_SHOWS {
        let title = format!("{} {}", word(rng), word(rng));
        for row in 0..ROWS_PER_NEW_SHOW {
            let (theater, addr) = names::THEATERS[rng.random_range(0..names::THEATERS.len())];
            let name = if rng.random_bool(0.3) {
                dirt::case_damage(rng, &title)
            } else {
                title.clone()
            };
            let amount = f64::from(rng.random_range(30u32..160));
            let price = dirt::money_variant(rng, amount);
            rows.push(Record::from_pairs(
                SourceId(3000),
                RecordId((show * ROWS_PER_NEW_SHOW + row) as u64),
                vec![
                    ("SHOW_NAME", Value::from(name)),
                    ("THEATER", Value::from(format!("{theater} {addr}"))),
                    ("CHEAPEST_PRICE", Value::from(price)),
                ],
            ));
        }
    }
    rows
}
