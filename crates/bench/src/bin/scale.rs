//! Scale benchmark for the out-of-core segment store: stream-build code
//! databases at several sizes (10k / 100k / 1M by default), load each one
//! through the store-backed sharded index, and measure every stage in
//! items per second. Writes `BENCH_scale.json` at the workspace root
//! (schema `uhscm-bench-scale/2`).
//!
//! Per size, six phases:
//!
//! 1. **generate+encode** — stream latents chunk by chunk through the
//!    hashing network (the memory high-water mark is one chunk),
//! 2. **store write** — append the packed chunk codes to the checksummed
//!    segment store,
//! 3. **index load** — stream the segments back into a `GenesisBuilder`
//!    (one index band per segment, no full-database concatenation),
//! 4. **query** — top-k searches against the store-backed index,
//! 5. **query layers** — the same queries taken apart into the raw Hamming
//!    scan over every segment, the bucket top-k select over every segment
//!    (its own scan included), and the merge of one list per worker band;
//!    the ROADMAP target is top-k qps within 1.5x of `raw_scan_qps`,
//! 6. **sampled eval** — seeded query-subsampled MAP with its 95% CI,
//!    the tractable stand-in for exhaustive MAP at million-item scale.
//!
//! The peak-allocation proxy comes from the `uhscm-obs` registry: the
//! largest single segment payload the store reader/writer ever touched —
//! the store's whole claim is that this, not the database size, bounds
//! its memory. At sizes up to 100k the run also cross-checks the
//! store-backed top-k against an in-memory `ShardedIndex` at shard counts
//! {1, 2, 4} and reports the verdict.
//!
//! Usage: `scale [--sizes 10000,100000,1000000]`

use std::path::Path;
use std::time::Instant;

use serde::Serialize;
use uhscm_data::{share_mask, DatasetConfig, DatasetKind, LatentStream};
use uhscm_eval::bitcode::hamming_scan;
use uhscm_eval::{merge_top_n, sample_indices, sampled_map, select_top_n, BitCodes, HammingRanker};
use uhscm_linalg::par;
use uhscm_nn::Mlp;
use uhscm_obs::registry;
use uhscm_serve::{GenesisBuilder, ShardedIndex};
use uhscm_store::{store_path, StoreReader, StoreWriter};

const SCHEMA: &str = "uhscm-bench-scale/2";
const SEED: u64 = 2023;
const KIND: DatasetKind = DatasetKind::Cifar10Like;
const DIM: usize = 64;
const BITS: usize = 64;
const CHUNK: usize = 16_384;
const TOP_K: usize = 100;
const N_QUERIES: usize = 128;
const SAMPLE: usize = 32;
const QUERY_ROUNDS: usize = 3;
/// Identity cross-check cap: above this the in-memory oracle build is
/// skipped (the contract is already pinned at smaller sizes and by
/// `uhscm db verify`).
const VERIFY_CAP: usize = 100_000;

#[derive(Serialize)]
struct SizeReport {
    items: usize,
    segments: u64,
    store_bytes: u64,
    generate_encode_items_per_sec: f64,
    store_write_items_per_sec: f64,
    index_load_items_per_sec: f64,
    queries_per_sec: f64,
    /// Raw `hamming_scan` over every segment, ns per query: the floor any
    /// top-k search pays.
    scan_ns_per_query: f64,
    /// One `select_top_n` over every segment with the bound carried
    /// across them, ns per query. Includes the select's own scan, so
    /// `select - scan` is what selection adds.
    select_ns_per_query: f64,
    /// `merge_top_n` over one top-k list per worker band (as
    /// `Generation::search` splits segments), ns per query.
    merge_ns_per_query: f64,
    /// `1e9 / scan_ns_per_query`.
    raw_scan_qps: f64,
    sampled_map: f64,
    sampled_map_ci_low: f64,
    sampled_map_ci_high: f64,
    sampled_queries: usize,
    query_population: usize,
    /// Largest single segment payload the writer buffered (bytes) — the
    /// write-side peak-allocation proxy from the obs registry.
    peak_write_segment_bytes: f64,
    /// Largest single segment payload the reader materialized (bytes).
    peak_read_segment_bytes: f64,
    /// `Some(true)` when the store-backed top-k matched the in-memory
    /// index bitwise at shards {1,2,4}; `None` above the verify cap.
    store_matches_memory: Option<bool>,
}

#[derive(Serialize)]
struct ScaleBench {
    schema: &'static str,
    seed: u64,
    dim: usize,
    bits: usize,
    chunk: usize,
    top_k: usize,
    sizes: Vec<SizeReport>,
}

fn histogram_max(name: &str) -> f64 {
    registry::snapshot().histograms.get(name).map(|h| h.max).unwrap_or(0.0)
}

fn rate(items: usize, secs: f64) -> f64 {
    items as f64 / secs.max(1e-9)
}

/// Per-query ns of the three search layers — raw scan, bucket select,
/// merge — over `segments`, each query timed through all three in turn so
/// host drift hits every layer alike.
fn layer_ns(queries: &BitCodes, segments: &[(u32, BitCodes)]) -> (f64, f64, f64) {
    let bands = || segments.iter().map(|(offset, codes)| (*offset, codes));
    let workers = par::partition(segments.len(), par::Parallelism::effective().threads());
    let mut dists = vec![0u32; segments.iter().map(|(_, c)| c.len()).max().unwrap_or(0)];
    let (mut scan, mut select, mut merge) = (0.0, 0.0, 0.0);
    for _ in 0..QUERY_ROUNDS {
        for qi in 0..queries.len() {
            let t = Instant::now();
            for (_, codes) in segments {
                hamming_scan::scan_into(queries, qi, codes, &mut dists[..codes.len()]);
                std::hint::black_box(&dists);
            }
            scan += t.elapsed().as_secs_f64();
            let t = Instant::now();
            std::hint::black_box(select_top_n(queries, qi, bands(), TOP_K, |_| false));
            select += t.elapsed().as_secs_f64();
            let lists: Vec<Vec<(u32, u32)>> = workers
                .iter()
                .map(|w| {
                    let band = segments[w.clone()].iter().map(|(o, c)| (*o, c));
                    select_top_n(queries, qi, band, TOP_K, |_| false)
                })
                .collect();
            let t = Instant::now();
            std::hint::black_box(merge_top_n(&lists, TOP_K));
            merge += t.elapsed().as_secs_f64();
        }
    }
    let per_query = 1e9 / (QUERY_ROUNDS * queries.len()).max(1) as f64;
    (scan * per_query, select * per_query, merge * per_query)
}

fn bench_size(items: usize, dir: &Path, model: &Mlp) -> SizeReport {
    let config = DatasetConfig { latent_dim: DIM, ..DatasetConfig::default() };
    std::fs::create_dir_all(dir).expect("create store dir");
    let file = store_path(dir);

    // Phases 1+2: stream-generate, encode, and write — one chunk resident.
    let mut stream = LatentStream::new(KIND, &config, items, SEED);
    let mut writer = StoreWriter::create(&file, BITS).expect("create store");
    let mut db_masks: Vec<u32> = Vec::with_capacity(items);
    let mut gen_secs = 0.0;
    let mut write_secs = 0.0;
    loop {
        let t0 = Instant::now();
        let Some(chunk) = stream.next_chunk(CHUNK) else { break };
        let codes = BitCodes::from_real(&model.infer(&chunk.latents));
        gen_secs += t0.elapsed().as_secs_f64();
        db_masks.extend_from_slice(&chunk.label_masks);
        let t1 = Instant::now();
        writer.append(&codes).expect("append segment");
        write_secs += t1.elapsed().as_secs_f64();
    }
    let t = Instant::now();
    let summary = writer.finish().expect("finish store");
    write_secs += t.elapsed().as_secs_f64();

    // Phase 3: stream the store back into a store-backed genesis index.
    let t = Instant::now();
    let mut reader = StoreReader::open(&file).expect("open store");
    let mut genesis = GenesisBuilder::new(reader.bits());
    while let Some(segment) = reader.next_segment().expect("read segment") {
        genesis.push(segment);
    }
    let store_index = genesis.finish();
    let load_secs = t.elapsed().as_secs_f64();

    // Fresh queries from a disjoint seeded stream, encoded by the same model.
    let mut qstream = LatentStream::new(KIND, &config, N_QUERIES, SEED ^ 0x9e37_79b9_7f4a_7c15);
    let qchunk = qstream.next_chunk(N_QUERIES).expect("query chunk");
    let qcodes = BitCodes::from_real(&model.infer(&qchunk.latents));
    let q_masks = qchunk.label_masks;

    // Phase 4: query throughput against the store-backed index.
    let t = Instant::now();
    let mut hits = 0usize;
    for _ in 0..QUERY_ROUNDS {
        for qi in 0..qcodes.len() {
            hits += store_index.search(&qcodes, qi, TOP_K).len();
        }
    }
    let query_secs = t.elapsed().as_secs_f64();
    assert!(hits >= QUERY_ROUNDS * qcodes.len().min(items), "queries returned no hits");

    // Phase 5: the query layers over the store's own segments.
    let mut segments: Vec<(u32, BitCodes)> = Vec::new();
    let mut reader = StoreReader::open(&file).expect("reopen store");
    let mut offset = 0u32;
    while let Some(segment) = reader.next_segment().expect("read segment") {
        let len = segment.len() as u32;
        segments.push((offset, segment));
        offset += len;
    }
    let (scan_ns, select_ns, merge_ns) = layer_ns(&qcodes, &segments);
    drop(segments);

    // Identity cross-check against the in-memory index (small sizes only).
    let full = StoreReader::open(&file).expect("reopen store").read_all().expect("read all");
    let store_matches_memory = if items <= VERIFY_CAP {
        let mut ok = true;
        for shards in [1usize, 2, 4] {
            let mem_index = ShardedIndex::new(&full, shards);
            for qi in 0..qcodes.len() {
                if store_index.search(&qcodes, qi, TOP_K) != mem_index.search(&qcodes, qi, TOP_K) {
                    eprintln!(
                        "scale: MISMATCH store vs memory at {items} items, \
                         shards {shards}, query {qi}"
                    );
                    ok = false;
                }
            }
        }
        Some(ok)
    } else {
        None
    };

    // Phase 6: sampled MAP over a seeded query subsample.
    let ranker = HammingRanker::new(full);
    let sample = sample_indices(qcodes.len(), SAMPLE.min(qcodes.len()), SEED);
    let rel = move |qi: usize, di: usize| share_mask(q_masks[qi], db_masks[di]);
    let est = sampled_map(&ranker, &qcodes, &rel, TOP_K, &sample);

    SizeReport {
        items,
        segments: summary.segments,
        store_bytes: summary.bytes,
        generate_encode_items_per_sec: rate(items, gen_secs),
        store_write_items_per_sec: rate(items, write_secs),
        index_load_items_per_sec: rate(items, load_secs),
        queries_per_sec: rate(QUERY_ROUNDS * qcodes.len(), query_secs),
        scan_ns_per_query: scan_ns,
        select_ns_per_query: select_ns,
        merge_ns_per_query: merge_ns,
        raw_scan_qps: 1e9 / scan_ns.max(1e-9),
        sampled_map: est.estimate,
        sampled_map_ci_low: est.ci_low,
        sampled_map_ci_high: est.ci_high,
        sampled_queries: est.sample_size,
        query_population: est.population,
        peak_write_segment_bytes: histogram_max("store.write.segment_bytes"),
        peak_read_segment_bytes: histogram_max("store.read.segment_bytes"),
        store_matches_memory,
    }
}

fn parse_sizes(args: &[String]) -> Vec<usize> {
    let mut sizes = vec![10_000, 100_000, 1_000_000];
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sizes" => {
                let csv = args.get(i + 1).expect("--sizes needs a comma-separated list");
                sizes = csv
                    .split(',')
                    .map(|s| s.trim().parse::<usize>().expect("--sizes expects numbers"))
                    .filter(|&n| n > 0)
                    .collect();
                assert!(!sizes.is_empty(), "--sizes must name at least one size");
                i += 2;
            }
            other => panic!("unknown argument '{other}' (usage: scale [--sizes CSV])"),
        }
    }
    sizes
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sizes = parse_sizes(&args);

    // Metrics on, trace stream discarded: scale only reads the registry.
    uhscm_obs::enable_with_writer(Box::new(std::io::sink()));

    let mut rng = uhscm_linalg::rng::seeded(SEED);
    let model = Mlp::hashing_network(DIM, &[DIM.div_ceil(2).max(1)], BITS, &mut rng);

    let scratch = std::env::temp_dir().join(format!("uhscm-scale-{}", std::process::id()));
    let mut reports = Vec::with_capacity(sizes.len());
    for &items in &sizes {
        eprintln!("scale: {items} items (chunk {CHUNK}, {BITS} bits)");
        let dir = scratch.join(format!("db-{items}"));
        let report = bench_size(items, &dir, &model);
        eprintln!(
            "scale: {items} items -> gen+encode {:.0}/s, write {:.0}/s, load {:.0}/s, \
             query {:.0}/s (raw scan {:.0}/s; scan {:.0} ns, select {:.0} ns, merge {:.0} ns), \
             sampled MAP {:.4} [{:.4}, {:.4}]",
            report.generate_encode_items_per_sec,
            report.store_write_items_per_sec,
            report.index_load_items_per_sec,
            report.queries_per_sec,
            report.raw_scan_qps,
            report.scan_ns_per_query,
            report.select_ns_per_query,
            report.merge_ns_per_query,
            report.sampled_map,
            report.sampled_map_ci_low,
            report.sampled_map_ci_high,
        );
        assert!(
            report.store_matches_memory != Some(false),
            "store-backed index diverged from the in-memory oracle"
        );
        reports.push(report);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let report = ScaleBench {
        schema: SCHEMA,
        seed: SEED,
        dim: DIM,
        bits: BITS,
        chunk: CHUNK,
        top_k: TOP_K,
        sizes: reports,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(|root| root.join("BENCH_scale.json"));
    match path {
        Some(path) => match std::fs::write(&path, json + "\n") {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        },
        None => eprintln!("warning: cannot locate the workspace root"),
    }
}
