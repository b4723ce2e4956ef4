//! Set-up: build the code database the way `uhscm db build` does (in a
//! child process), load it back the way `serve --db-store` does, and start
//! the real server.
//!
//! `LatentStream` → `Mlp::infer` → `StoreWriter` in store-sized chunks,
//! then `StoreReader` → `GenesisBuilder` → `Engine::with_vocab_index` →
//! `Server::start`. Set-up ends when the server has answered its first
//! query over loopback.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use uhscm_data::{DatasetConfig, DatasetKind, LatentStream};
use uhscm_eval::BitCodes;
use uhscm_linalg::Matrix;
use uhscm_nn::Mlp;
use uhscm_serve::{
    decode_response, encode_request, read_frame_blocking, write_frame, Engine, FrameReader,
    GenesisBuilder, QueryRequest, Request, Response, ServeConfig, Server,
};
use uhscm_store::{StoreReader, StoreWriter};

use crate::spec::Spec;

/// Salts that split one workload seed into disjoint input streams.
const QUERY_SALT: u64 = 0x9e37_79b9_7f4a_7c15;
const INSERT_SALT: u64 = 0x5851_f42d_4c95_7f2d;
const WARMUP_SALT: u64 = 0x2545_f491_4f6c_dd1d;

/// What set-up leaves behind: the model and the store file, from which
/// the oracle and any later fresh server read the genesis database back.
/// No copy of the codes is kept beside the server's own.
pub struct Fixture {
    pub model: Mlp,
    pub store_file: PathBuf,
    pub genesis_len: usize,
}

/// Wall time of each set-up stage (seconds).
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    /// From the start of the workload to the first answered query.
    pub total: f64,
    /// `LatentStream::next_chunk` + `Mlp::infer` + `BitCodes::from_real`.
    pub encode: f64,
    /// `StoreWriter::append` + `finish`.
    pub write: f64,
    /// `StoreReader::next_segment` + `GenesisBuilder::push`.
    pub load: f64,
    /// Store file size.
    pub store_bytes: u64,
}

fn dataset_config(spec: &Spec) -> DatasetConfig {
    DatasetConfig { latent_dim: spec.dim, ..DatasetConfig::default() }
}

/// Rows generated per step of a [`Rows`] stream: small, so a step taken
/// while the generator is on the clock costs well under a millisecond.
const ROW_CHUNK: usize = 16;

/// A seeded stream of feature rows, read in order: the same generator as
/// the database on a disjoint seed, so no row repeats a database item or a
/// row of another stream. Only the current step's rows are held, so memory
/// does not grow with the run.
pub struct Rows {
    config: DatasetConfig,
    seed: u64,
    stream: LatentStream,
    chunk: Matrix,
    /// Index of `chunk`'s first row.
    start: usize,
}

impl Rows {
    pub fn new(spec: &Spec, seed: u64, salt: u64) -> Rows {
        let config = dataset_config(spec);
        let stream = Rows::restart_stream(&config, seed ^ salt);
        Rows { config, seed: seed ^ salt, stream, chunk: Matrix::zeros(0, spec.dim), start: 0 }
    }

    fn restart_stream(config: &DatasetConfig, seed: u64) -> LatentStream {
        LatentStream::new(DatasetKind::Cifar10Like, config, usize::MAX / 2, seed)
    }

    /// Fresh query vectors (never repeated to one server).
    pub fn queries(spec: &Spec, seed: u64) -> Rows {
        Rows::new(spec, seed, QUERY_SALT)
    }

    /// Feature rows for insert frames.
    pub fn inserts(spec: &Spec, seed: u64) -> Rows {
        Rows::new(spec, seed, INSERT_SALT)
    }

    /// Row `i`. Reading is cheap in nondecreasing order; a row before the
    /// current step restarts the stream from its first row.
    pub fn row_at(&mut self, i: usize) -> &[f64] {
        if i < self.start {
            self.stream = Rows::restart_stream(&self.config, self.seed);
            self.chunk = Matrix::zeros(0, self.chunk.cols());
            self.start = 0;
        }
        while i >= self.start + self.chunk.rows() {
            let next = self.start + self.chunk.rows();
            let want = (i + 1 - next).clamp(ROW_CHUNK, 64 * ROW_CHUNK);
            let Some(chunk) = self.stream.next_chunk(want) else { break };
            self.start = chunk.start;
            self.chunk = chunk.latents;
        }
        self.chunk.row(i - self.start)
    }

    /// Rows `range` as one matrix.
    pub fn rows_matrix(&mut self, range: std::ops::Range<usize>) -> Matrix {
        let cols = self.config.latent_dim;
        let n = range.len();
        let mut flat = Vec::with_capacity(n * cols);
        for i in range {
            flat.extend_from_slice(self.row_at(i));
        }
        Matrix::from_vec(n, cols, flat)
    }
}

/// The hashing network of the workload: a function of the seed alone, so
/// the store builder and the server encode with the same weights.
fn model_for(spec: &Spec, seed: u64) -> Mlp {
    let mut rng = uhscm_linalg::rng::seeded(seed);
    Mlp::hashing_network(spec.dim, &[spec.dim.div_ceil(2).max(1)], spec.bits, &mut rng)
}

/// The store-building step, run in a process of its own (see [`build`]):
/// `LatentStream` → `Mlp::infer` → `BitCodes::from_real` → `StoreWriter`
/// in store-sized chunks, as `uhscm db build` does. Returns the stage
/// times; `load` and `total` are left at zero.
pub fn build_store(spec: &Spec, seed: u64, store_file: &Path) -> Result<SetupTimes, String> {
    let mut times = SetupTimes::default();
    let model = model_for(spec, seed);
    let mut stream =
        LatentStream::new(DatasetKind::Cifar10Like, &dataset_config(spec), spec.items, seed);
    let mut writer =
        StoreWriter::create(store_file, spec.bits).map_err(|e| format!("store create: {e}"))?;
    loop {
        let t = Instant::now();
        let Some(chunk) = stream.next_chunk(spec.chunk) else { break };
        let codes = BitCodes::from_real(&model.infer(&chunk.latents));
        times.encode += t.elapsed().as_secs_f64();
        let t = Instant::now();
        writer.append(&codes).map_err(|e| format!("store append: {e}"))?;
        times.write += t.elapsed().as_secs_f64();
    }
    let t = Instant::now();
    let summary = writer.finish().map_err(|e| format!("store finish: {e}"))?;
    times.write += t.elapsed().as_secs_f64();
    times.store_bytes = std::fs::metadata(store_file).map(|m| m.len()).unwrap_or(summary.bytes);
    Ok(times)
}

/// The line [`build_store`]'s process prints for its parent.
pub fn store_times_line(times: &SetupTimes) -> String {
    format!("store-built {} {} {}", times.encode, times.write, times.store_bytes)
}

fn parse_store_times(stdout: &str) -> Option<SetupTimes> {
    let line = stdout.lines().find_map(|l| l.strip_prefix("store-built "))?;
    let mut fields = line.split_whitespace();
    let encode = fields.next()?.parse().ok()?;
    let write = fields.next()?.parse().ok()?;
    let store_bytes = fields.next()?.parse().ok()?;
    Some(SetupTimes { encode, write, store_bytes, ..SetupTimes::default() })
}

/// Build, load and start once, timing every stage.
///
/// The store is built by a child process (this binary with
/// `--build-store`), as `uhscm db build` and `uhscm serve --db-store` are
/// two processes: the ingest path's transient buffers then never count
/// towards the serving process's memory. This process loads the store
/// (`StoreReader` → `GenesisBuilder` → `Engine::with_vocab_index`) and
/// starts the server.
pub fn build(
    spec: &Spec,
    seed: u64,
    work_dir: &Path,
    rep: usize,
) -> Result<(Fixture, Server, SetupTimes), String> {
    let started = Instant::now();
    let store_file = work_dir.join(format!("segments-{rep}.uhss"));
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut child = Command::new(exe);
    child.arg("--build-store").arg(&store_file).args(["--workload", spec.name]);
    child.args(["--seed", &seed.to_string()]);
    if spec.smoke {
        child.arg("--smoke");
    }
    let out = child.output().map_err(|e| format!("starting the store builder: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut times =
        parse_store_times(&stdout).filter(|_| out.status.success()).ok_or_else(|| {
            format!(
                "the store builder failed ({}): {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            )
        })?;

    let model = model_for(spec, seed);
    let t = Instant::now();
    let index = load_index(&store_file, None)?;
    times.load = t.elapsed().as_secs_f64();
    let genesis_len = index.total_len();

    let engine = Engine::with_vocab_index(model.clone(), Vec::new(), index)
        .map_err(|e| format!("engine: {e}"))?;
    let server =
        Server::start(engine, &ServeConfig::default()).map_err(|e| format!("server start: {e}"))?;
    let c = Instant::now();
    let warmup_vec = Rows::new(spec, seed, WARMUP_SALT).row_at(0).to_vec();
    let off_clock = c.elapsed();
    first_query(&server, warmup_vec, spec.top_k)?;
    times.total = (started.elapsed() - off_clock).as_secs_f64();

    Ok((Fixture { model, store_file, genesis_len }, server, times))
}

/// `StoreReader::next_segment` → `GenesisBuilder::push`, as
/// `serve --db-store` loads a store; `bands` also receives a copy of every
/// segment.
fn load_index(
    store_file: &Path,
    mut bands: Option<&mut Vec<BitCodes>>,
) -> Result<uhscm_serve::ShardedIndex, String> {
    let mut reader = StoreReader::open(store_file).map_err(|e| format!("store open: {e}"))?;
    let mut genesis = GenesisBuilder::new(reader.bits());
    while let Some(segment) = reader.next_segment().map_err(|e| format!("store read: {e}"))? {
        if let Some(bands) = bands.as_deref_mut() {
            bands.push(segment.clone());
        }
        genesis.push(segment);
    }
    Ok(genesis.finish())
}

/// One blocking query on a throwaway connection; set-up is over when it
/// is answered.
fn first_query(server: &Server, features: Vec<f64>, top_k: usize) -> Result<(), String> {
    let mut stream =
        TcpStream::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(30))).map_err(|e| format!("socket: {e}"))?;
    let _ = stream.set_nodelay(true);
    let req = Request::Query(QueryRequest { id: 0, features, top_k, deadline_ms: None });
    write_frame(&mut stream, &encode_request(&req)).map_err(|e| format!("first query: {e}"))?;
    let mut frames = FrameReader::new();
    let body =
        read_frame_blocking(&mut stream, &mut frames).map_err(|e| format!("first reply: {e}"))?;
    match decode_response(&body) {
        Ok(Response::Hits { .. }) => Ok(()),
        other => Err(format!("first query was not answered with hits: {other:?}")),
    }
}

impl Fixture {
    /// A fresh server over the genesis database (generation 0).
    pub fn fresh_server(&self) -> Result<Server, String> {
        let engine = Engine::with_vocab_index(self.model.clone(), Vec::new(), self.fresh_index()?)
            .map_err(|e| format!("engine: {e}"))?;
        Server::start(engine, &ServeConfig::default()).map_err(|e| format!("server start: {e}"))
    }

    /// A fresh genesis index, loaded from the store.
    pub fn fresh_index(&self) -> Result<uhscm_serve::ShardedIndex, String> {
        load_index(&self.store_file, None)
    }

    /// The genesis bands (one per store segment), read back from the store.
    pub fn genesis_bands(&self) -> Result<Vec<BitCodes>, String> {
        let mut bands = Vec::new();
        load_index(&self.store_file, Some(&mut bands))?;
        Ok(bands)
    }

    /// The whole genesis database, read back from the store file.
    pub fn materialize(&self) -> Result<BitCodes, String> {
        StoreReader::open(&self.store_file)
            .and_then(StoreReader::read_all)
            .map_err(|e| format!("store read-back: {e}"))
    }
}
