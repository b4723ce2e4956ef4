//! The end-to-end run (tracing off): set-up time, query latency at the
//! nominal rate, peak memory, and the correctness gate.
//! Also the rate ladder behind `qps_at_slo`, which the traced run
//! measures (see `layers`).

use std::collections::BTreeSet;
use std::ops::Range;
use std::path::Path;

use rand::rngs::StdRng;
use uhscm_eval::HammingRanker;
use uhscm_linalg::rng::{sample_without_replacement, seeded};
use uhscm_serve::Server;

use crate::oracle;
use crate::setup::{self, Fixture, Rows};
use crate::spec::Spec;
use crate::stats::{beyond, blocked_percentile, median, peak_rss_mb, percentile};
use crate::traffic::{self, Cursors, OpKind, OpRecord, Outcome, PhaseLog, Plan, Shape, StopRules};
use crate::Metric;

/// Set-ups per run; `setup_s` is their median. Quick set-ups repeat until
/// `SETUP_BUDGET_S` of set-up time is spent (at most `MAX_SETUP_REPS`
/// times), so a 20 ms set-up is not judged on three samples.
const SETUP_REPS: usize = 3;
const MAX_SETUP_REPS: usize = 25;
const SETUP_BUDGET_S: f64 = 3.0;
/// Planned length of one ladder probe (s): long enough for several
/// windows of ~100 queries at `scan-1m`'s capacity.
const PROBE_SECS: f64 = 1.5;
const MIN_PROBE_OPS: usize = 100;
/// Probes above `MAX_PROBE_OPS / PROBE_SECS` ops/s run shorter, so memory
/// for their inputs stays bounded.
const MAX_PROBE_OPS: usize = 20_000;
/// Most operations a probe keeps in flight: below the server's 256-deep
/// admission queue, so a probe never causes shedding. A backlog that
/// would grow past it waits in the generator and shows as latency.
const MAX_IN_FLIGHT: usize = 200;
/// A probe's queries are split into this many consecutive windows (of at
/// least `MIN_WINDOW` queries each); the probe's p99 is the median of the
/// windows' p99s, so one scheduling stall cannot fail a probe on its own.
const PROBE_WINDOWS: usize = 10;
const MIN_WINDOW: usize = 100;
/// Tries a rung gets: it fails only if every try fails, so one stall of
/// the whole machine cannot fail it on its own.
const ATTEMPTS: u64 = 2;
/// Consecutive blocks the nominal phase is split into; latency metrics
/// are medians over blocks (see `stats::blocked_percentile`).
const NOMINAL_BLOCKS: usize = 5;
/// Sampled workloads check `oracle_sample` responses of the nominal phase
/// and this many times fewer of each probe.
const PROBE_SAMPLE_DIVISOR: usize = 8;

/// Salts for the schedule of each phase.
pub const NOMINAL_SALT: u64 = 0x6e6f_6d69_6e61_6c00;
const PROBE_SALT: u64 = 0x7072_6f62_6500_0000;
const SAMPLE_SALT: u64 = 0x7361_6d70_6c65_0000;

/// One phase as it ran, until the oracle has checked it.
pub struct Phase {
    pub label: String,
    pub plan: Plan,
    pub log: PhaseLog,
}

impl Phase {
    /// `f` of every answered operation whose kind matches `want`.
    fn answered(&self, want: fn(&OpKind) -> bool, f: fn(&OpRecord) -> f64) -> Vec<f64> {
        self.log
            .records
            .iter()
            .zip(&self.plan.ops)
            .filter(|(rec, op)| want(&op.kind) && rec.attempted() && !rec.failed())
            .map(|(rec, _)| f(rec))
            .collect()
    }
}

/// What is kept of a phase once the oracle has checked it. Times in s.
pub struct Summary {
    pub query_latency: Vec<f64>,
    /// Sent → answer read, for queries.
    pub query_rtt: Vec<f64>,
    /// How late each operation was sent.
    pub lags: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    pub first_failure: Option<String>,
    pub aborted: bool,
    /// Query responses the oracle compared.
    pub checked: usize,
}

/// The correctness gate of one run: a ranker over the genesis database
/// read back from the store. It is built once the measured phase is over,
/// so its copy of the database never counts towards the peak memory.
pub struct Gate {
    ranker: HammingRanker,
    rng: StdRng,
}

impl Gate {
    pub fn new(fixture: &Fixture, seed: u64) -> Result<Gate, String> {
        let ranker = HammingRanker::new(fixture.materialize()?);
        Ok(Gate { ranker, rng: seeded(seed ^ SAMPLE_SALT) })
    }

    /// Check `phase` against the oracle — every query response, or a
    /// seeded sample of `sample` of them — and keep only its timings.
    ///
    /// # Errors
    ///
    /// The first mismatch.
    pub fn close(
        &mut self,
        spec: &Spec,
        fixture: &Fixture,
        inputs: &mut Inputs,
        phase: Phase,
        sample: Option<usize>,
    ) -> Result<Summary, String> {
        let only = sample.map(|n| {
            let answered: Vec<usize> = (0..phase.log.records.len())
                .filter(|&op| matches!(phase.log.records[op].outcome, Outcome::Hits { .. }))
                .collect();
            let take = n.min(answered.len());
            sample_without_replacement(&mut self.rng, answered.len(), take)
                .into_iter()
                .map(|i| answered[i])
                .collect::<BTreeSet<usize>>()
        });
        let checked = oracle::check_phase(
            &self.ranker,
            &fixture.model,
            &phase.plan,
            &phase.log,
            spec.top_k,
            &mut inputs.queries,
            &mut inputs.inserts,
            only.as_ref(),
        )
        .map_err(|e| format!("oracle mismatch in the {} phase: {e}", phase.label))?;
        let records = &phase.log.records;
        Ok(Summary {
            query_latency: phase.answered(is_query, OpRecord::latency),
            query_rtt: phase.answered(is_query, |r| r.done - r.sent),
            lags: records.iter().filter(|r| r.attempted()).map(|r| r.sent - r.due).collect(),
            attempted: records.iter().filter(|r| r.attempted()).count(),
            failed: records.iter().filter(|r| r.failed()).count(),
            first_failure: records
                .iter()
                .position(OpRecord::failed)
                .map(|i| format!("{} op {i}: {:?}", phase.label, records[i].outcome)),
            aborted: phase.log.aborted,
            checked,
        })
    }
}

pub fn is_query(kind: &OpKind) -> bool {
    matches!(kind, OpKind::Query { .. })
}

/// Inputs shared by every phase of one run.
pub struct Inputs {
    pub seed: u64,
    pub cursors: Cursors,
    pub queries: Rows,
    pub inserts: Rows,
}

impl Inputs {
    pub fn new(spec: &Spec, seed: u64) -> Inputs {
        Inputs {
            seed,
            cursors: Cursors::default(),
            queries: Rows::queries(spec, seed),
            inserts: Rows::inserts(spec, seed),
        }
    }

    /// Schedule a phase of `shape` with the schedule salt `salt`.
    pub fn plan(&mut self, shape: &Shape, salt: u64, genesis_len: usize) -> Plan {
        traffic::plan(shape, self.seed ^ salt, genesis_len, &mut self.cursors)
    }

    /// Run `plan` against `server`.
    pub fn drive(
        &mut self,
        spec: &Spec,
        plan: &Plan,
        server: &Server,
        stop: StopRules,
    ) -> Result<PhaseLog, String> {
        self.drive_range(spec, plan, 0..plan.ops.len(), server, stop)
    }

    /// Run operations `range` of `plan` against `server`.
    pub fn drive_range(
        &mut self,
        spec: &Spec,
        plan: &Plan,
        range: Range<usize>,
        server: &Server,
        stop: StopRules,
    ) -> Result<PhaseLog, String> {
        traffic::drive(
            server.local_addr(),
            plan,
            range,
            spec.top_k,
            &mut self.queries,
            &mut self.inserts,
            stop,
        )
    }
}

/// The traffic mix of `spec` at `rate` for `count` operations.
pub fn shape(spec: &Spec, rate: f64, count: usize) -> Shape {
    Shape {
        rate,
        count,
        query_conns: spec.query_conns,
        write_share: spec.write_share,
        insert_rows: spec.insert_rows,
    }
}

/// The nominal phase: `seconds` at the nominal rate.
pub fn nominal_shape(spec: &Spec, seconds: f64) -> Shape {
    shape(spec, spec.rate, ((spec.rate * seconds).round() as usize).max(1))
}

/// Limits of the nominal phase: only the in-flight cap.
pub fn nominal_limits() -> StopRules {
    StopRules { max_in_flight: MAX_IN_FLIGHT, slo: f64::INFINITY, late_budget: usize::MAX }
}

/// Set up `reps` times, or more until `budget_s` seconds of set-up time
/// are spent (at most `MAX_SETUP_REPS`), and keep the last fixture and
/// server running. Each set-up starts after the previous server has shut
/// down and its store file is gone.
pub fn set_up(
    spec: &Spec,
    seed: u64,
    work_dir: &Path,
    reps: usize,
    budget_s: f64,
) -> Result<(Fixture, Server, Vec<setup::SetupTimes>), String> {
    let mut times: Vec<setup::SetupTimes> = Vec::with_capacity(reps);
    let mut rep = 0;
    loop {
        let (fixture, server, t) = setup::build(spec, seed, work_dir, rep)?;
        times.push(t);
        rep += 1;
        let spent: f64 = times.iter().map(|t| t.total).sum();
        if rep >= MAX_SETUP_REPS.max(reps) || (rep >= reps && spent >= budget_s) {
            return Ok((fixture, server, times));
        }
        server.shutdown();
        let _ = std::fs::remove_file(&fixture.store_file);
    }
}

/// One ladder probe at `rate` on a fresh server: passes when no operation
/// fails and the query p99 (median over windows) is within the limit. A
/// growing backlog fails it through latency: every later query waits.
fn probe(
    spec: &Spec,
    fixture: &Fixture,
    inputs: &mut Inputs,
    rate: f64,
    salt: u64,
    gate: &mut Gate,
    summaries: &mut Vec<Summary>,
) -> Result<bool, String> {
    let count = ((rate * PROBE_SECS).round() as usize).clamp(MIN_PROBE_OPS, MAX_PROBE_OPS);
    // A fresh server has seen no query yet, so each probe may reuse the
    // input rows of earlier probes without a repeat reaching one server.
    inputs.cursors = Cursors::default();
    let plan = inputs.plan(&shape(spec, rate, count), salt, fixture.genesis_len);
    let queries = plan.ops.iter().filter(|op| is_query(&op.kind)).count();
    let slo = spec.slo_ms / 1e3;
    let stop = StopRules { max_in_flight: MAX_IN_FLIGHT, slo, late_budget: queries / 2 };
    let server = fixture.fresh_server()?;
    let log = inputs.drive(spec, &plan, &server, stop);
    server.shutdown();
    let phase = Phase { label: format!("probe@{rate:.1}"), plan, log: log? };
    let sample = spec.oracle_sample.map(|n| n / PROBE_SAMPLE_DIVISOR);
    let summary = gate.close(spec, fixture, inputs, phase, sample)?;
    let p99 = windowed_p99(&summary.query_latency).unwrap_or(f64::INFINITY);
    let pass = !summary.aborted && summary.failed == 0 && p99 <= slo;
    println!(
        "# probe {rate:.1} ops/s: {} ({} ops sent, p99 {:.3} ms{})",
        if pass { "pass" } else { "fail" },
        summary.attempted,
        p99 * 1e3,
        if summary.aborted { ", stopped early" } else { "" }
    );
    summaries.push(summary);
    Ok(pass)
}

/// A probe's p99: the median of its windows' p99s (see `PROBE_WINDOWS`).
fn windowed_p99(latencies: &[f64]) -> Option<f64> {
    blocked_percentile(latencies, 99.0, (latencies.len() / MIN_WINDOW).clamp(1, PROBE_WINDOWS))
}

/// `qps_at_slo`: the highest rung that passes, by bisection over the fixed
/// geometric ladder; a rung gets up to `ATTEMPTS` tries. Returns the rate
/// and the probes made, whose summaries join `summaries`.
pub fn ladder(
    spec: &Spec,
    fixture: &Fixture,
    inputs: &mut Inputs,
    gate: &mut Gate,
    summaries: &mut Vec<Summary>,
) -> Result<(f64, usize), String> {
    let rungs = spec.rungs();
    let (mut lo, mut hi) = (-1i64, rungs.len() as i64);
    let mut probes = 0usize;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let rate = rungs[mid as usize];
        let mut pass = false;
        for attempt in 0..ATTEMPTS {
            probes += 1;
            let salt = PROBE_SALT ^ ((mid as u64) << 8) ^ attempt;
            if probe(spec, fixture, inputs, rate, salt, gate, summaries)? {
                pass = true;
                break;
            }
        }
        if pass {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    if lo < 0 {
        return Err(format!(
            "the lowest ladder rung ({} ops/s) misses the {} ms limit",
            rungs[0], spec.slo_ms
        ));
    }
    Ok((rungs[lo as usize], probes))
}

/// Totals over all phases: (attempted, failed).
pub fn tally(summaries: &[Summary]) -> (usize, usize) {
    summaries.iter().fold((0, 0), |(a, f), p| (a + p.attempted, f + p.failed))
}

/// What the end-to-end run reports.
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
}

pub fn run(spec: &Spec, seed: u64, seconds: f64, work_dir: &Path) -> Result<Report, String> {
    if uhscm_obs::enabled() {
        return Err("the end-to-end run needs tracing off (unset UHSCM_TRACE)".to_string());
    }
    let (fixture, server, setups) = set_up(spec, seed, work_dir, SETUP_REPS, SETUP_BUDGET_S)?;
    let setup_s = median(&setups.iter().map(|t| t.total).collect::<Vec<_>>()).unwrap_or(0.0);
    println!(
        "# set-up times (s): {}",
        setups.iter().map(|t| format!("{:.3}", t.total)).collect::<Vec<_>>().join(", ")
    );
    let mut inputs = Inputs::new(spec, seed);
    let plan = inputs.plan(&nominal_shape(spec, seconds), NOMINAL_SALT, fixture.genesis_len);
    let log = inputs.drive(spec, &plan, &server, nominal_limits());
    // The peak so far: set-up's store loads and the server, never the
    // oracle's copy of the database, which is made only now.
    let peak_rss = peak_rss_mb().ok_or("VmHWM is not readable")?;
    server.shutdown();

    let mut gate = Gate::new(&fixture, seed)?;
    let nominal = Phase { label: "nominal".to_string(), plan, log: log? };
    let summaries = vec![gate.close(spec, &fixture, &mut inputs, nominal, spec.oracle_sample)?];
    if let Some(first) = summaries.iter().find_map(|s| s.first_failure.clone()) {
        return Err(format!("operation failed at the nominal rate: {first}"));
    }
    let _ = std::fs::remove_file(&fixture.store_file);

    let nominal = &summaries[0];
    let query_lat = &nominal.query_latency;
    let lag_p99 = percentile(&nominal.lags, 99.0).unwrap_or(0.0);
    let query_p50 =
        blocked_percentile(query_lat, 50.0, NOMINAL_BLOCKS).ok_or("no query was answered")?;
    let query_p75 =
        blocked_percentile(query_lat, 75.0, NOMINAL_BLOCKS).ok_or("no query was answered")?;
    let query_p90 = percentile(query_lat, 90.0).ok_or("no query was answered")?;
    let query_p99 = percentile(query_lat, 99.0).ok_or("no query was answered")?;
    let (attempted, failed) = tally(&summaries);
    let checked: usize = summaries.iter().map(|s| s.checked).sum();
    println!(
        "# {}: {} queries at {} ops/s nominal ({} beyond p75; p90 {:.3} ms; \
         p99 {:.3} ms, {} beyond), \
         {checked} responses checked against the oracle, generator lag p99 {:.3} ms",
        spec.name,
        query_lat.len(),
        spec.rate,
        beyond(query_lat.len(), 75.0),
        query_p90 * 1e3,
        query_p99 * 1e3,
        beyond(query_lat.len(), 99.0),
        lag_p99 * 1e3
    );
    // The generator's lag against each latency the run reports, at the same
    // percentile over the same blocks: a run whose reported latency is
    // half generator lag is not a measurement of the server.
    for (name, p, reported) in [("p50", 50.0, query_p50), ("p75", 75.0, query_p75)] {
        let lag = blocked_percentile(&nominal.lags, p, NOMINAL_BLOCKS).unwrap_or(0.0);
        if lag >= 0.5 * reported {
            return Err(format!(
                "generator lag {name} {:.3} ms is comparable to the query {name} {:.3} ms; \
                 result withheld",
                lag * 1e3,
                reported * 1e3
            ));
        }
    }
    // The printed p99 is not a reported metric; its lag is flagged only.
    // Timer wake-ups of an idle vCPU alone can make the lag tail several ms.
    if lag_p99 >= 0.5 * query_p99 {
        println!(
            "# flagged: generator lag p99 {:.3} ms is comparable to the query p99 {:.3} ms",
            lag_p99 * 1e3,
            query_p99 * 1e3
        );
    }
    let metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("query_p50_ms", query_p50 * 1e3, "ms"),
        Metric::new("query_p75_ms", query_p75 * 1e3, "ms"),
        Metric::new("peak_rss_mb", peak_rss, "MB"),
    ];
    Ok(Report { metrics, attempted, failed })
}
