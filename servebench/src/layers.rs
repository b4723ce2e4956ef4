//! The traced run: per-layer numbers.
//!
//! 1. The nominal stream runs over loopback on two servers, one with
//!    tracing off and one with `uhscm_obs` on, in alternating slices: the
//!    registry gives the batch and admission counters, the two latency
//!    medians the tracing ratio. Then, with tracing off, the rate ladder
//!    gives `qps_at_slo`.
//! 2. The same request stream is replayed in-process through each layer's
//!    public functions, with spans recorded around every call (name, start,
//!    end, parent, request id) and written out at the end. A layer's self
//!    time is its span's duration minus the time its child spans cover.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use uhscm_eval::bitcode::hamming_scan;
use uhscm_eval::{merge_top_n, BitCodes, HammingRanker};
use uhscm_linalg::Matrix;
use uhscm_obs::registry;
use uhscm_serve::{
    decode_request, encode_frame, encode_request, encode_response, Engine, FrameReader, Generation,
    QueryRequest, Request, Response,
};

use crate::e2e::{self, Inputs, Phase};
use crate::setup::Fixture;
use crate::spans::Spans;
use crate::spec::{Spec, REPLAY_WRITES};
use crate::stats::{median, percentile};
use crate::traffic::{OpKind, OpRecord, PhaseLog, PlannedOp, Shape};
use crate::Metric;

/// Queries timed at genesis and at the final generation for the
/// search-growth ratio.
const GROWTH_QUERIES: usize = 100;
/// Batches timed for the mean-batch-size encode cost.
const BATCH_SAMPLES: usize = 50;
/// Slices the traced run's loopback stream is cut into (see `run`).
const TRACE_SLICES: usize = 10;

/// Per-name self times (ns) summed per request, over the requests of one
/// kind.
struct Layers {
    by_name: BTreeMap<&'static str, BTreeMap<u64, u64>>,
}

impl Layers {
    /// The spans of requests whose root span is named `root` (`"query"`
    /// or `"mutation"`): layers such as `protocol.decode` serve both, at
    /// very different costs.
    fn from_spans(spans: &Spans, root: &str) -> Layers {
        let own = spans.self_times();
        let ids: BTreeSet<u64> =
            spans.spans.iter().filter(|s| s.name == root).map(|s| s.request).collect();
        let mut by_name: BTreeMap<&'static str, BTreeMap<u64, u64>> = BTreeMap::new();
        for (s, t) in spans.spans.iter().zip(own) {
            if ids.contains(&s.request) {
                *by_name.entry(s.name).or_default().entry(s.request).or_default() += t;
            }
        }
        Layers { by_name }
    }

    /// Per-request self time of `name` (µs), in request order.
    fn per_request(&self, name: &str) -> Vec<f64> {
        self.by_name
            .get(name)
            .map_or_else(Vec::new, |m| m.values().map(|&ns| ns as f64 / 1e3).collect())
    }

    /// Median per-request self time of `name` (µs).
    fn median_us(&self, name: &str) -> f64 {
        median(&self.per_request(name)).unwrap_or(0.0)
    }

    /// Median over requests of the summed self time of `names` (µs).
    fn median_sum_us(&self, names: &[&str]) -> f64 {
        let mut sums: BTreeMap<u64, u64> = BTreeMap::new();
        for name in names {
            for (req, ns) in self.by_name.get(name).into_iter().flatten() {
                *sums.entry(*req).or_default() += ns;
            }
        }
        median(&sums.values().map(|&ns| ns as f64 / 1e3).collect::<Vec<_>>()).unwrap_or(0.0)
    }

    /// Median over requests of the self time of `total` minus that of
    /// `parts` (µs).
    fn median_rest_us(&self, total: &str, parts: &[&str]) -> f64 {
        let Some(totals) = self.by_name.get(total) else { return 0.0 };
        let rests: Vec<f64> = totals
            .iter()
            .map(|(req, &ns)| {
                let covered: u64 =
                    parts.iter().filter_map(|p| self.by_name.get(p).and_then(|m| m.get(req))).sum();
                (ns as f64 - covered as f64) / 1e3
            })
            .collect();
        median(&rests).unwrap_or(0.0)
    }
}

/// What the replay measured besides span times.
#[derive(Default)]
struct ReplayCounts {
    queries: usize,
    mutations: usize,
    request_bytes: Vec<f64>,
    response_bytes: Vec<f64>,
    scanned: u64,
    passed: u64,
    codes: Vec<BitCodes>,
}

/// Replay `ops` in-process through the layers, recording spans.
fn replay(
    spec: &Spec,
    fixture: &Fixture,
    inputs: &mut Inputs,
    ops: &[PlannedOp],
    spans: &mut Spans,
) -> Result<(ReplayCounts, Engine, Arc<Generation>, Arc<Generation>), String> {
    let fresh_engine = || {
        Engine::with_vocab_index(fixture.model.clone(), Vec::new(), fixture.fresh_index()?)
            .map_err(|e| format!("engine: {e}"))
    };
    let engine = fresh_engine()?;
    // Read-only workloads replay their mutations on an engine of their
    // own, so the queries see the index their loopback runs searched.
    let side = if spec.read_only() { Some(fresh_engine()?) } else { None };
    let writer = side.as_ref().unwrap_or(&engine);
    let mirror = fixture.fresh_index()?;
    let segments = fixture.genesis_bands()?;
    let genesis = engine.snapshot().generation;
    let mut offset = 0u32;
    let mut dists: Vec<Vec<u32>> = segments.iter().map(|s| vec![0; s.len()]).collect();
    let bands: Vec<(u32, HammingRanker)> = segments
        .into_iter()
        .map(|s| {
            let band_offset = offset;
            offset += s.len() as u32;
            (band_offset, HammingRanker::new(s))
        })
        .collect();
    let mut counts = ReplayCounts::default();

    for (i, op) in ops.iter().enumerate() {
        let id = i as u64;
        if matches!(op.kind, OpKind::Query { .. }) && counts.queries >= spec.replay_queries {
            continue;
        }
        let request = match op.kind {
            OpKind::Query { row } => Request::Query(QueryRequest {
                id,
                features: inputs.queries.row_at(row).to_vec(),
                top_k: spec.top_k,
                deadline_ms: None,
            }),
            OpKind::Insert { first_row, n } => Request::Insert {
                id,
                rows: (first_row..first_row + n)
                    .map(|r| inputs.inserts.row_at(r).to_vec())
                    .collect(),
            },
            OpKind::Remove { index } => Request::Remove { id, index },
        };
        let frame =
            encode_frame(&encode_request(&request)).map_err(|e| format!("encode_frame: {e}"))?;

        let kind = if matches!(request, Request::Query(_)) { "query" } else { "mutation" };
        let root = spans.open(kind, None, id);
        let decoded = spans.timed("protocol.decode", Some(root), id, || {
            let mut frames = FrameReader::new();
            frames.push_bytes(&frame);
            match frames.next_frame() {
                Ok(Some(body)) => decode_request(&body),
                _ => Err("incomplete frame".to_string()),
            }
        })?;
        let (response, query_code) = match decoded {
            Request::Query(q) => {
                let snap = engine.snapshot();
                let batch = Matrix::from_vec(1, q.features.len(), q.features);
                let code = spans.timed("nn.encode", Some(root), id, || snap.encode(&batch));
                let hits = spans.timed("shard.search", Some(root), id, || {
                    snap.generation.search(&code, 0, q.top_k)
                });
                let response = Response::Hits {
                    id,
                    hits,
                    generation: snap.generation.seq(),
                    bundle: snap.bundle.version,
                };
                (response, Some(code))
            }
            Request::Insert { id, rows } => {
                let (commit, bundle) = spans
                    .timed("engine.insert_rows", Some(root), id, || writer.insert_rows(&rows))?;
                let response = Response::Inserted {
                    id,
                    generation: commit.generation,
                    first_index: u64::from(commit.first_index),
                    count: commit.count as u64,
                    live: commit.live as u64,
                    bundle,
                };
                let flat: Vec<f64> = rows.iter().flatten().copied().collect();
                let codes = BitCodes::from_real(&fixture.model.infer(&Matrix::from_vec(
                    rows.len(),
                    spec.dim,
                    flat,
                )));
                spans.timed("shard.insert", None, id, || mirror.insert(&codes));
                (response, None)
            }
            Request::Remove { id, index } => {
                let commit = spans
                    .timed("engine.remove_index", Some(root), id, || writer.remove_index(index))?;
                let response = Response::Removed {
                    id,
                    generation: commit.generation,
                    removed: commit.removed,
                    live: commit.live as u64,
                };
                spans.timed("shard.remove", None, id, || mirror.remove(index as usize));
                (response, None)
            }
            other => return Err(format!("unexpected replayed request {other:?}")),
        };
        let out = spans
            .timed("protocol.encode", Some(root), id, || encode_frame(&encode_response(&response)))
            .map_err(|e| format!("encode_frame: {e}"))?;
        spans.close(root);

        let Some(code) = query_code else {
            counts.mutations += 1;
            continue;
        };
        counts.queries += 1;
        counts.request_bytes.push(frame.len() as f64);
        counts.response_bytes.push(out.len() as f64);

        // The search again, one public call per step over the genesis
        // bands: scan, per-band top-k select (which scans again), merge.
        let d = spans.open("decompose", None, id);
        let mut lists = Vec::with_capacity(bands.len());
        for ((band_offset, ranker), dist) in bands.iter().zip(&mut dists) {
            spans.timed("band.scan", Some(d), id, || {
                hamming_scan::scan_into(&code, 0, ranker.database(), dist)
            });
            let list = spans.timed("band.rank", Some(d), id, || {
                ranker.rank_top_n_with_dist(&code, 0, spec.top_k)
            });
            lists.push(list.into_iter().map(|(dd, j)| (dd, j + band_offset)).collect::<Vec<_>>());
        }
        let merged = spans.timed("shard.merge", Some(d), id, || merge_top_n(&lists, spec.top_k));
        spans.close(d);
        if let Response::Hits { hits, generation: 0, .. } = &response {
            if *hits != merged {
                return Err(format!(
                    "replayed query {id}: shard search and per-band merge disagree"
                ));
            }
        }
        let kth = merged.last().map_or(0, |h| h.0);
        counts.scanned += dists.iter().map(|v| v.len() as u64).sum::<u64>();
        counts.passed += dists.iter().flatten().filter(|&&dd| dd <= kth).count() as u64;
        if counts.codes.len() < GROWTH_QUERIES {
            counts.codes.push(code);
        }
    }
    let last = writer.snapshot().generation;
    Ok((counts, engine, genesis, last))
}

/// `Generation::search` time at the final generation over the time at
/// genesis, for the same queries (alternating, medians).
fn search_growth(genesis: &Generation, last: &Generation, codes: &[BitCodes], top_k: usize) -> f64 {
    let (mut at_genesis, mut at_last) = (Vec::new(), Vec::new());
    for code in codes {
        let t = Instant::now();
        std::hint::black_box(genesis.search(code, 0, top_k));
        at_genesis.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(last.search(code, 0, top_k));
        at_last.push(t.elapsed().as_secs_f64());
    }
    median(&at_last).unwrap_or(0.0) / median(&at_genesis).unwrap_or(1.0).max(1e-12)
}

/// `EngineSnapshot::encode` cost per query at batch size `b` (µs).
fn encode_per_query_us(engine: &Engine, inputs: &mut Inputs, rows: usize, b: usize) -> f64 {
    let snap = engine.snapshot();
    let groups = (rows / b).clamp(1, BATCH_SAMPLES);
    let mut per_query = Vec::with_capacity(groups);
    for g in 0..groups {
        let start = (g * b) % rows.saturating_sub(b).max(1);
        let batch = inputs.queries.rows_matrix(start..start + b);
        let t = Instant::now();
        std::hint::black_box(snap.encode(&batch));
        per_query.push(t.elapsed().as_secs_f64() * 1e6 / b as f64);
    }
    median(&per_query).unwrap_or(0.0)
}

pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    work_dir: &Path,
    spans_file: &Path,
) -> Result<e2e::Report, String> {
    if uhscm_obs::enabled() {
        return Err("the traced run starts with tracing off (unset UHSCM_TRACE)".to_string());
    }
    let (fixture, plain_server, setups) = e2e::set_up(spec, seed, work_dir, 1, 0.0)?;
    let st = setups[0];
    let mut inputs = Inputs::new(spec, seed);
    // The nominal stream runs over loopback for half the measuring time on
    // each of two servers over the same genesis database, one untraced and
    // one with `uhscm_obs` on. The stream is cut into slices that the two
    // servers take in turn, so slow spells of the machine fall on both
    // alike; each server still sees the whole stream in order, and the
    // tracing ratio is a ratio of medians over slices.
    let nominal = inputs.plan(
        &e2e::nominal_shape(spec, seconds / 2.0),
        e2e::NOMINAL_SALT,
        fixture.genesis_len,
    );
    let traced_server = fixture.fresh_server()?;
    registry::reset();
    let n = nominal.ops.len();
    let mut records: [Vec<OpRecord>; 2] = [Vec::new(), Vec::new()];
    let mut slice_p50s: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for slice in 0..TRACE_SLICES {
        let range = n * slice / TRACE_SLICES..n * (slice + 1) / TRACE_SLICES;
        // Untraced first in even slices, traced first in odd ones, so
        // neither side always follows the other.
        let sides = if slice % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in sides {
            let traced = side == 1;
            let server = if traced { &traced_server } else { &plain_server };
            if traced {
                uhscm_obs::enable_with_writer(Box::new(std::io::sink()));
            }
            let log =
                inputs.drive_range(spec, &nominal, range.clone(), server, e2e::nominal_limits());
            if traced {
                uhscm_obs::disable();
            }
            let log = log?;
            let latencies: Vec<f64> = log
                .records
                .iter()
                .zip(&nominal.ops[range.clone()])
                .filter(|(rec, op)| e2e::is_query(&op.kind) && rec.attempted() && !rec.failed())
                .map(|(rec, _)| rec.latency())
                .collect();
            slice_p50s[side].extend(median(&latencies));
            records[side].extend(log.records);
        }
    }
    plain_server.shutdown();
    traced_server.shutdown();
    let registry_view = registry::snapshot();
    let trace_ratio = median(&slice_p50s[1]).ok_or("no traced query answered")?
        / median(&slice_p50s[0]).ok_or("no untraced query answered")?;

    let mut gate = e2e::Gate::new(&fixture, seed)?;
    let mut summaries = Vec::new();
    for (label, records) in ["untraced", "traced"].into_iter().zip(records) {
        let log = PhaseLog { records, aborted: false };
        let phase = Phase { label: label.to_string(), plan: nominal.clone(), log };
        summaries.push(gate.close(spec, &fixture, &mut inputs, phase, spec.oracle_sample)?);
    }
    if let Some(first) = summaries.iter().find_map(|s| s.first_failure.clone()) {
        return Err(format!("operation failed at the nominal rate: {first}"));
    }
    let (qps_at_slo, probes) = e2e::ladder(spec, &fixture, &mut inputs, &mut gate, &mut summaries)?;
    let plain = &summaries[0];

    // The replay: the nominal stream, and for read-only workloads a run of
    // mutations on an engine of their own.
    let mut ops = nominal.ops;
    if spec.read_only() {
        let writes = Shape {
            rate: spec.rate,
            count: REPLAY_WRITES,
            query_conns: spec.query_conns,
            write_share: 1.0,
            insert_rows: spec.insert_rows,
        };
        ops.extend(inputs.plan(&writes, e2e::NOMINAL_SALT, fixture.genesis_len).ops);
    }
    let mut spans = Spans::new();
    let (counts, engine, genesis, last) = replay(spec, &fixture, &mut inputs, &ops, &mut spans)?;
    let growth = search_growth(&genesis, &last, &counts.codes, spec.top_k);
    spans.write_jsonl(spans_file).map_err(|e| format!("writing {}: {e}", spans_file.display()))?;
    let _ = std::fs::remove_file(&fixture.store_file);

    let layers = Layers::from_spans(&spans, "query");
    let writes = Layers::from_spans(&spans, "mutation");
    let rtt_us = median(&plain.query_rtt).ok_or("no query answered")? * 1e6;
    let server_side = layers.median_sum_us(&[
        "protocol.decode",
        "nn.encode",
        "shard.search",
        "protocol.encode",
        "query",
    ]);
    let batch = registry_view.histograms.get("serve.batch.size");
    let batch_mean = batch.map_or(1.0, |h| h.mean()).max(1.0);
    let requests = registry_view.counters.get("serve.requests").copied().unwrap_or(0);
    let shed = registry_view.counters.get("serve.shed").copied().unwrap_or(0);
    let items = fixture.genesis_len as f64;
    let words = spec.bits.div_ceil(64) as f64;
    let scan_us = layers.median_sum_us(&["band.scan"]);
    let replayed_rows = counts.queries.max(1);
    let b = batch_mean.round() as usize;
    let (attempted, failed) = e2e::tally(&summaries);
    let checked: usize = summaries.iter().map(|s| s.checked).sum();
    println!(
        "# {}: {} queries and {} mutations replayed, {probes} ladder probes, \
         {checked} loopback responses checked, spans in {}",
        spec.name,
        counts.queries,
        counts.mutations,
        spans_file.display()
    );

    let metrics = vec![
        Metric::new("protocol.decode_us", layers.median_us("protocol.decode"), "us"),
        Metric::new("protocol.encode_us", layers.median_us("protocol.encode"), "us"),
        Metric::new("protocol.request_bytes", mean(&counts.request_bytes), "bytes"),
        Metric::new("protocol.response_bytes", mean(&counts.response_bytes), "bytes"),
        Metric::new("batch.size_mean", batch_mean, "count"),
        Metric::new("batch.admit_frac", 1.0 - shed as f64 / requests.max(1) as f64, "ratio"),
        Metric::new("server.wait_us", rtt_us - server_side, "us"),
        Metric::new("nn.encode_us_b1", layers.median_us("nn.encode"), "us"),
        Metric::new(
            "nn.encode_us_bmean",
            encode_per_query_us(&engine, &mut inputs, replayed_rows, b),
            "us",
        ),
        Metric::new("scan.us_per_query", scan_us, "us"),
        Metric::new("scan.gcodes_per_s", items / scan_us.max(1e-9) / 1e3, "Gcodes/s"),
        Metric::new("scan.bytes_per_query", items * words * 8.0, "bytes"),
        Metric::new(
            "select.us_per_query",
            layers.median_rest_us("band.rank", &["band.scan"]),
            "us",
        ),
        Metric::new(
            "select.pass_frac",
            counts.passed as f64 / counts.scanned.max(1) as f64,
            "ratio",
        ),
        Metric::new("shard.search_us", layers.median_us("shard.search"), "us"),
        Metric::new("shard.merge_us", layers.median_us("shard.merge"), "us"),
        Metric::new(
            "shard.unattributed_us",
            layers.median_rest_us("shard.search", &["band.rank", "shard.merge"]),
            "us",
        ),
        Metric::new("shard.segments", last.num_segments() as f64, "count"),
        Metric::new("shard.tombstones", (last.total_len() - last.live_len()) as f64, "count"),
        Metric::new("shard.search_growth", growth, "ratio"),
        Metric::new("shard.insert_us", writes.median_us("shard.insert"), "us"),
        Metric::new("shard.remove_us", writes.median_us("shard.remove"), "us"),
        Metric::new("engine.insert_rows_us", writes.median_us("engine.insert_rows"), "us"),
        Metric::new("store.write_items_per_s", items / st.write.max(1e-9), "1/s"),
        Metric::new("store.load_items_per_s", items / st.load.max(1e-9), "1/s"),
        Metric::new("store.bytes_per_item", st.store_bytes as f64 / items, "bytes"),
        Metric::new("ingest.encode_items_per_s", items / st.encode.max(1e-9), "1/s"),
        Metric::new("obs.trace_ratio", trace_ratio, "ratio"),
        Metric::new("ladder.qps_at_slo", qps_at_slo, "1/s"),
        Metric::new(
            "bench.gen_lag_p99_ms",
            percentile(&plain.lags, 99.0).unwrap_or(0.0) * 1e3,
            "ms",
        ),
    ];
    Ok(e2e::Report { metrics, attempted: attempted + counts.queries + counts.mutations, failed })
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}
