//! The three workloads: database shape, traffic shape and latency limit.
//!
//! The traffic shapes are assumptions (the repository has no recorded
//! production traffic); README.md says why each one was chosen.

/// One workload's fixed parameters. Only the seed varies between runs.
pub struct Spec {
    pub name: &'static str,
    /// Database codes built at set-up.
    pub items: usize,
    pub bits: usize,
    /// Feature width (the hashing network's input).
    pub dim: usize,
    /// Store segment size: `items / chunk` rounded up is the segment count.
    pub chunk: usize,
    pub top_k: usize,
    /// Nominal offered rate, all operations together (ops/s).
    pub rate: f64,
    /// Connections carrying queries (1 or 2).
    pub query_conns: usize,
    /// Share of operations that are mutations (half inserts, half
    /// removes), sent on their own connection. Zero for read-only
    /// workloads.
    pub write_share: f64,
    /// Rows per insert frame.
    pub insert_rows: usize,
    /// Query p99 limit for the rate ladder (ms).
    pub slo_ms: f64,
    /// Rung the rate ladder is anchored at (ops/s); it reaches
    /// `RUNGS_BELOW_ANCHOR` rungs further down.
    pub ladder_anchor: f64,
    /// The ladder's top rung is the first at or above this rate.
    pub ladder_hi: f64,
    /// Query responses checked against the oracle; `None` checks all.
    pub oracle_sample: Option<usize>,
    /// In-process replay cap of the traced run (queries).
    pub replay_queries: usize,
    /// Shrunk for the benchmark's own tests (`--smoke`).
    pub smoke: bool,
}

/// Geometric step between ladder rungs (5%).
pub const LADDER_STEP: f64 = 1.05;

/// Rungs the ladder reaches below its anchor: 14 steps of 5% halve the
/// rate, so the lowest rung is a quarter of the nominal rate and a slow
/// spell of the machine does not leave every rung failing.
pub const RUNGS_BELOW_ANCHOR: i32 = 14;

/// Mutations the traced run replays in-process on read-only workloads
/// (their traffic has none), on an engine of their own, so every workload
/// reports the write-path layers.
pub const REPLAY_WRITES: usize = 200;

pub const NAMES: [&str; 3] = ["scan-1m", "wire-small", "mutate-100k"];

/// The workload called `name`; `smoke` shrinks the database so a whole run
/// takes a few seconds (used by the benchmark's own tests).
pub fn by_name(name: &str, smoke: bool) -> Option<Spec> {
    let mut spec = match name {
        "scan-1m" => Spec {
            name: "scan-1m",
            items: 1_000_000,
            bits: 64,
            dim: 64,
            chunk: 16_384,
            top_k: 100,
            rate: 50.0,
            query_conns: 1,
            write_share: 0.0,
            insert_rows: 16,
            slo_ms: 50.0,
            ladder_anchor: 25.0,
            ladder_hi: 5_000.0,
            oracle_sample: Some(64),
            replay_queries: 150,
            smoke: false,
        },
        "wire-small" => Spec {
            name: "wire-small",
            items: 4_096,
            bits: 32,
            dim: 64,
            chunk: 2_048,
            top_k: 10,
            rate: 2_000.0,
            query_conns: 2,
            write_share: 0.0,
            insert_rows: 16,
            slo_ms: 5.0,
            ladder_anchor: 1_000.0,
            ladder_hi: 200_000.0,
            oracle_sample: None,
            replay_queries: 4_000,
            smoke: false,
        },
        "mutate-100k" => Spec {
            name: "mutate-100k",
            items: 100_000,
            bits: 64,
            dim: 64,
            chunk: 16_384,
            top_k: 100,
            rate: 100.0,
            query_conns: 1,
            write_share: 0.10,
            insert_rows: 16,
            slo_ms: 25.0,
            ladder_anchor: 50.0,
            ladder_hi: 10_000.0,
            oracle_sample: None,
            replay_queries: 1_000,
            smoke: false,
        },
        _ => return None,
    };
    if smoke {
        spec.smoke = true;
        spec.items = (spec.items / 100).max(2_000);
        spec.chunk = spec.items.div_ceil(3);
        spec.replay_queries = spec.replay_queries.min(50);
    }
    Some(spec)
}

impl Spec {
    /// Rates of the ladder, lowest first.
    pub fn rungs(&self) -> Vec<f64> {
        let mut rungs = Vec::new();
        for k in -RUNGS_BELOW_ANCHOR.. {
            let rate = self.ladder_anchor * LADDER_STEP.powi(k);
            rungs.push(rate);
            if rate >= self.ladder_hi {
                break;
            }
        }
        rungs
    }

    /// Whether the measured phases carry no mutations.
    pub fn read_only(&self) -> bool {
        self.write_share <= 0.0
    }
}
