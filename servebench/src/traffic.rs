//! Open-loop traffic: a seeded arrival schedule and a single-threaded
//! generator that sends each operation when it is due, whatever the state of
//! earlier ones, over at most two non-blocking loopback connections.
//!
//! Every operation is timed from when it was *due*, so a stall that
//! delays later sends is charged to them. The generator also records how late
//! it sent each operation (generator lag), which bounds how far its own
//! timing can be trusted.

use std::collections::{BTreeSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::time::{Duration, Instant};

use rand::Rng;
use uhscm_serve::{
    decode_response, encode_frame, encode_request, FrameReader, QueryRequest, Request, Response,
};

use crate::setup::Rows;

/// A request that is not answered within this long counts as failed.
const OP_TIMEOUT: Duration = Duration::from_secs(10);
/// Busy-wait (yielding) this long after any socket activity or before a
/// due send; past it the generator sleeps between polls (~60 µs granularity).
const SPIN_WINDOW: Duration = Duration::from_micros(250);
/// Delay before the first operation is due, so it is not late.
const START_LEAD: Duration = Duration::from_millis(5);
/// Request frames encoded ahead of the next send. They are encoded while
/// the generator has nothing due, one at a time, so the frames of a run
/// are never all held at once.
const LOOKAHEAD: usize = 64;

/// What an operation does.
#[derive(Clone, Copy, Debug)]
pub enum OpKind {
    /// A query with feature row `row` of the query pool.
    Query { row: usize },
    /// An insert of pool rows `first_row..first_row + n` of the insert pool.
    Insert { first_row: usize, n: usize },
    /// A remove of a live global index.
    Remove { index: u64 },
}

/// One scheduled operation.
#[derive(Clone, Copy, Debug)]
pub struct PlannedOp {
    /// Seconds after the phase start at which it is due.
    pub due: f64,
    /// Connection it is sent on.
    pub conn: usize,
    pub kind: OpKind,
}

/// A phase's schedule.
#[derive(Clone)]
pub struct Plan {
    pub ops: Vec<PlannedOp>,
    pub conns: usize,
}

/// Mix and shape of one phase's traffic.
pub struct Shape {
    /// Offered rate, all operations (ops/s).
    pub rate: f64,
    /// Operations to schedule.
    pub count: usize,
    /// Connections carrying queries.
    pub query_conns: usize,
    /// Share of mutations (sent on one extra connection).
    pub write_share: f64,
    /// Rows per insert.
    pub insert_rows: usize,
}

/// Row cursors shared by the phases that run against one server, so no
/// query vector or insert row reaches a server twice.
#[derive(Default)]
pub struct Cursors {
    pub query_row: usize,
    pub insert_row: usize,
}

/// Evenly spaced arrivals at `shape.rate` (a paced open loop: the
/// schedule ignores answers, but bursts are not modelled, which keeps
/// tail latency a property of the server rather than of the arrival
/// draw). Every `1 / write_share`-th arrival is a mutation, inserts and
/// removes alternating, so every seed commits the same number of each;
/// the rest are queries, round-robin over the query connections. Removes
/// pick a uniformly random index that is live in the server's predicted
/// state: inserts on one connection commit in order, so the index space
/// after each insert is known in advance.
pub fn plan(shape: &Shape, seed: u64, genesis_len: usize, cursors: &mut Cursors) -> Plan {
    let mut rng = uhscm_linalg::rng::seeded(seed);
    let mut ops = Vec::with_capacity(shape.count);
    let mut total = genesis_len as u64;
    let mut removed: BTreeSet<u64> = BTreeSet::new();
    let mut round_robin = 0usize;
    let period =
        if shape.write_share > 0.0 { (1.0 / shape.write_share).round() as usize } else { 0 };
    let mut mutations = 0usize;
    for i in 0..shape.count {
        let due = (i + 1) as f64 / shape.rate;
        let kind = if period > 0 && (i + 1) % period == 0 {
            mutations += 1;
            if mutations % 2 == 1 {
                let first_row = cursors.insert_row;
                cursors.insert_row += shape.insert_rows;
                total += shape.insert_rows as u64;
                OpKind::Insert { first_row, n: shape.insert_rows }
            } else {
                let mut index = rng.gen_range(0..total);
                while removed.contains(&index) {
                    index = rng.gen_range(0..total);
                }
                removed.extend([index]);
                OpKind::Remove { index }
            }
        } else {
            let row = cursors.query_row;
            cursors.query_row += 1;
            OpKind::Query { row }
        };
        let conn = match kind {
            OpKind::Query { .. } => {
                round_robin += 1;
                (round_robin - 1) % shape.query_conns.max(1)
            }
            _ => shape.query_conns,
        };
        ops.push(PlannedOp { due, conn, kind });
    }
    let conns = ops.iter().map(|op| op.conn + 1).max().unwrap_or(1);
    Plan { ops, conns }
}

/// How an operation ended.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// Not sent (the phase stopped early).
    Unsent,
    /// Sent, no answer yet.
    Pending,
    /// A hit list, kept as its [`hits_digest`] so a run's records stay
    /// small, and the generation it was ranked at.
    Hits {
        digest: u64,
        generation: u64,
    },
    Inserted {
        generation: u64,
        first_index: u64,
        count: u64,
    },
    Removed {
        generation: u64,
        removed: bool,
    },
    /// Answered with an error reason (refused or rejected).
    Error {
        reason: String,
    },
    /// No answer within the timeout.
    TimedOut,
}

/// 64-bit FNV-1a over the little-endian bytes of every `(distance,
/// index)` pair. Two lists that differ in a single pair always differ in
/// their digest: each step is a bijection of the running state.
pub fn hits_digest(hits: &[(u32, u32)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(d, i) in hits {
        for byte in d.to_le_bytes().into_iter().chain(i.to_le_bytes()) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    // The length, so a list and its prefix differ too.
    (h ^ hits.len() as u64).wrapping_mul(0x0100_0000_01b3)
}

/// One operation as it happened. Times are seconds after the phase start.
#[derive(Clone, Debug)]
pub struct OpRecord {
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    pub outcome: Outcome,
}

impl OpRecord {
    /// Latency from when it was due to when its answer was read.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    pub fn attempted(&self) -> bool {
        self.outcome != Outcome::Unsent
    }

    pub fn failed(&self) -> bool {
        matches!(self.outcome, Outcome::Error { .. } | Outcome::TimedOut | Outcome::Pending)
    }
}

/// What happened in one phase.
pub struct PhaseLog {
    pub records: Vec<OpRecord>,
    /// The phase stopped sending early (too many queries over the limit).
    pub aborted: bool,
}

/// Limits on a phase.
#[derive(Clone, Copy)]
pub struct StopRules {
    /// Hold due sends while this many operations are in flight, so the
    /// generator's catch-up after a stall of the whole machine never
    /// overruns the server's admission queue; held operations are still
    /// timed from when they were due, so a growing backlog shows as
    /// latency.
    pub max_in_flight: usize,
    /// Query latency limit (s), and how many queries may exceed it before
    /// the phase has failed anyway and stops sending.
    pub slo: f64,
    pub late_budget: usize,
}

struct Conn {
    stream: TcpStream,
    outbox: Vec<u8>,
    written: usize,
    frames: FrameReader,
}

fn io_err(what: &str, e: io::Error) -> String {
    format!("{what}: {e}")
}

/// The request `op` stands for, with its feature rows.
pub fn request_for(
    op: &PlannedOp,
    id: u64,
    top_k: usize,
    queries: &mut Rows,
    inserts: &mut Rows,
) -> Request {
    match op.kind {
        OpKind::Query { row } => Request::Query(QueryRequest {
            id,
            features: queries.row_at(row).to_vec(),
            top_k,
            deadline_ms: None,
        }),
        OpKind::Insert { first_row, n } => Request::Insert {
            id,
            rows: (first_row..first_row + n).map(|r| inserts.row_at(r).to_vec()).collect(),
        },
        OpKind::Remove { index } => Request::Remove { id, index },
    }
}

/// Request frames for a run of operations, encoded in order on demand.
struct Framer<'a> {
    plan: &'a Plan,
    top_k: usize,
    queries: &'a mut Rows,
    inserts: &'a mut Rows,
    /// Encoded frames of operations `next..encoded`.
    ready: VecDeque<Vec<u8>>,
    encoded: usize,
    end: usize,
}

impl Framer<'_> {
    /// Encode the next operation's frame; false once all are encoded.
    fn encode_ahead(&mut self) -> io::Result<bool> {
        if self.encoded == self.end {
            return Ok(false);
        }
        let op = &self.plan.ops[self.encoded];
        let request = request_for(op, self.encoded as u64, self.top_k, self.queries, self.inserts);
        self.ready.push_back(encode_frame(&encode_request(&request))?);
        self.encoded += 1;
        Ok(true)
    }

    /// The frame of the next operation to send.
    fn pop_frame(&mut self) -> io::Result<Vec<u8>> {
        if self.ready.is_empty() {
            self.encode_ahead()?;
        }
        self.ready.pop_front().ok_or_else(|| io::Error::other("no frame left to send"))
    }
}

fn outcome_of(resp: Response) -> (u64, Outcome) {
    match resp {
        Response::Hits { id, hits, generation, .. } => {
            (id, Outcome::Hits { digest: hits_digest(&hits), generation })
        }
        Response::Inserted { id, generation, first_index, count, .. } => {
            (id, Outcome::Inserted { generation, first_index, count })
        }
        Response::Removed { id, generation, removed, .. } => {
            (id, Outcome::Removed { generation, removed })
        }
        Response::Error { id, reason, detail } => {
            (id, Outcome::Error { reason: format!("{} ({detail})", reason.as_str()) })
        }
        other => (u64::MAX, Outcome::Error { reason: format!("unexpected response {other:?}") }),
    }
}

/// Run operations `range` of `plan` against the server at `addr`, the
/// first of them due as the first of the plan is. Request ids are plan
/// indices; the log holds the records of `range` only.
///
/// # Errors
///
/// Socket failures and undecodable frames: the run cannot be trusted.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    addr: SocketAddr,
    plan: &Plan,
    range: Range<usize>,
    top_k: usize,
    queries: &mut Rows,
    inserts: &mut Rows,
    stop: StopRules,
) -> Result<PhaseLog, String> {
    let mut conns = Vec::with_capacity(plan.conns);
    for _ in 0..plan.conns {
        let stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
        let _ = stream.set_nodelay(true);
        stream.set_nonblocking(true).map_err(|e| io_err("set_nonblocking", e))?;
        conns.push(Conn { stream, outbox: Vec::new(), written: 0, frames: FrameReader::new() });
    }
    let ops = &plan.ops[range.clone()];
    let shift = ops.first().map_or(0.0, |op| op.due - plan.ops[0].due);
    let mut framer = Framer {
        plan,
        top_k,
        queries,
        inserts,
        ready: VecDeque::with_capacity(LOOKAHEAD),
        encoded: range.start,
        end: range.end,
    };
    // The first frames are encoded before the clock starts.
    while framer.ready.len() < LOOKAHEAD
        && framer.encode_ahead().map_err(|e| io_err("encode", e))?
    {}
    let n = ops.len();
    let mut records: Vec<OpRecord> = ops
        .iter()
        .map(|op| OpRecord { due: op.due - shift, sent: 0.0, done: 0.0, outcome: Outcome::Unsent })
        .collect();
    let mut buf = vec![0u8; 1 << 16];
    let start = Instant::now() + START_LEAD;
    let mut next = 0usize;
    let mut oldest = 0usize;
    let mut in_flight = 0usize;
    let mut late = 0usize;
    let mut aborted = false;
    let mut last_activity = Instant::now();

    loop {
        let mut progressed = false;
        let now = Instant::now();
        let elapsed = now.saturating_duration_since(start).as_secs_f64();

        // Send everything that is due.
        while next < n && !aborted && in_flight < stop.max_in_flight && records[next].due <= elapsed
        {
            let frame = framer.pop_frame().map_err(|e| io_err("encode", e))?;
            let c = &mut conns[ops[next].conn];
            c.outbox.extend_from_slice(&frame);
            let rec = &mut records[next];
            rec.sent = Instant::now().saturating_duration_since(start).as_secs_f64();
            rec.outcome = Outcome::Pending;
            next += 1;
            in_flight += 1;
            progressed = true;
        }

        // Flush and read every connection.
        for c in &mut conns {
            while c.written < c.outbox.len() {
                match c.stream.write(&c.outbox[c.written..]) {
                    Ok(0) => return Err("server closed the connection".to_string()),
                    Ok(k) => c.written += k,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(io_err("write", e)),
                }
            }
            if c.written == c.outbox.len() {
                c.outbox.clear();
                c.written = 0;
            }
            loop {
                match c.stream.read(&mut buf) {
                    Ok(0) => return Err("server closed the connection".to_string()),
                    Ok(k) => {
                        let read_at = Instant::now().saturating_duration_since(start).as_secs_f64();
                        c.frames.push_bytes(&buf[..k]);
                        progressed = true;
                        while let Some(body) =
                            c.frames.next_frame().map_err(|e| format!("bad frame: {e}"))?
                        {
                            let resp = decode_response(&body)
                                .map_err(|e| format!("undecodable response: {e}"))?;
                            let (id, outcome) = outcome_of(resp);
                            let at = usize::try_from(id)
                                .ok()
                                .and_then(|i| i.checked_sub(range.start))
                                .filter(|&i| i < n);
                            let Some(rec) = at.and_then(|i| records.get_mut(i)) else {
                                return Err(format!("response with unknown id {id}: {outcome:?}"));
                            };
                            if rec.outcome != Outcome::Pending {
                                return Err(format!("second response for id {id}"));
                            }
                            rec.done = read_at;
                            if matches!(plan.ops[id as usize].kind, OpKind::Query { .. })
                                && rec.done - rec.due > stop.slo
                            {
                                late += 1;
                            }
                            rec.outcome = outcome;
                            in_flight -= 1;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(io_err("read", e)),
                }
            }
        }
        if progressed {
            last_activity = Instant::now();
        }

        while oldest < next && records[oldest].outcome != Outcome::Pending {
            oldest += 1;
        }
        if next == n && in_flight == 0 {
            break;
        }
        let now = Instant::now();
        let elapsed = now.saturating_duration_since(start).as_secs_f64();
        if late > stop.late_budget {
            aborted = true;
        }
        if aborted && in_flight == 0 {
            break;
        }
        if oldest < next && elapsed - records[oldest].due > OP_TIMEOUT.as_secs_f64() {
            for rec in &mut records {
                if rec.outcome == Outcome::Pending {
                    rec.outcome = Outcome::TimedOut;
                }
            }
            break;
        }

        if !progressed {
            let due_soon =
                next < n && !aborted && records[next].due - elapsed < SPIN_WINDOW.as_secs_f64();
            // Nothing due yet: encode one more frame ahead, then poll again.
            if !due_soon
                && !aborted
                && framer.ready.len() < LOOKAHEAD
                && framer.encode_ahead().map_err(|e| io_err("encode", e))?
            {
                continue;
            }
            let active = in_flight > 0 && now.duration_since(last_activity) < SPIN_WINDOW;
            if due_soon || active {
                std::thread::yield_now();
            } else if in_flight > 0 || aborted {
                std::thread::sleep(Duration::from_micros(1));
            } else if next < n {
                let wait = records[next].due - elapsed - SPIN_WINDOW.as_secs_f64();
                std::thread::sleep(Duration::from_secs_f64(wait.clamp(1e-6, 1e-3)));
            }
        }
    }
    Ok(PhaseLog { records, aborted })
}
