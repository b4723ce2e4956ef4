//! The correctness gate: every checked response must equal, bit for bit,
//! what an oracle that never touches the server computes.
//!
//! The oracle encodes each query's features with the model itself and
//! ranks the database read back from the store. For a phase with
//! mutations it rebuilds the database at every generation from the
//! mutation receipts alone (as the swap-boundary test does): receipts must
//! carry gapless generation numbers, and each query is compared against a
//! linear scan over the live codes at the generation its response reports.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

use uhscm_eval::{BitCodes, HammingRanker};
use uhscm_linalg::Matrix;
use uhscm_nn::Mlp;

use crate::setup::Rows;
use crate::traffic::{hits_digest, OpKind, Outcome, PhaseLog, Plan};

/// Rows the oracle encodes per `Mlp::infer` call.
const ENCODE_BATCH: usize = 256;

/// One committed mutation, reconstructed from its receipt.
enum Event {
    Insert { first_index: usize, op: usize },
    Remove { index: usize },
}

/// Codes of rows `rows` of `source` (read in the given order), encoded by
/// `model` in batches.
fn encode_rows(model: &Mlp, source: &mut Rows, rows: &[usize]) -> Result<BitCodes, String> {
    let mut codes = BitCodes::from_words(0, model.output_dim(), Vec::new())?;
    for batch in rows.chunks(ENCODE_BATCH) {
        let mut flat = Vec::new();
        for &r in batch {
            flat.extend_from_slice(source.row_at(r));
        }
        let cols = flat.len() / batch.len();
        codes.extend(&BitCodes::from_real(&model.infer(&Matrix::from_vec(
            batch.len(),
            cols,
            flat,
        ))));
    }
    Ok(codes)
}

/// Top-`k` `(distance, index)` over the live codes of `db`, ascending by
/// distance then index, by a plain popcount scan.
fn linear_top_k(db: &BitCodes, live: &[bool], q: &[u64], k: usize) -> Vec<(u32, u32)> {
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); db.bits() + 1];
    for (i, &alive) in live.iter().enumerate() {
        if alive {
            let d: u32 = db.code(i).iter().zip(q).map(|(a, b)| (a ^ b).count_ones()).sum();
            buckets[d as usize].push(i as u32);
        }
    }
    buckets
        .iter()
        .enumerate()
        .flat_map(|(d, idx)| idx.iter().map(move |&i| (d as u32, i)))
        .take(k)
        .collect()
}

/// Committed mutations in generation order, checked for gaps and against
/// the index space the schedule predicted.
fn timeline(plan: &Plan, log: &PhaseLog, genesis_len: usize) -> Result<Vec<(u64, Event)>, String> {
    let mut events = Vec::new();
    for (op, rec) in log.records.iter().enumerate() {
        match (&plan.ops[op].kind, &rec.outcome) {
            (OpKind::Insert { n, .. }, Outcome::Inserted { generation, first_index, count }) => {
                if *count != *n as u64 {
                    return Err(format!("insert op {op}: receipt counts {count} rows, sent {n}"));
                }
                events
                    .push((*generation, Event::Insert { first_index: *first_index as usize, op }));
            }
            (OpKind::Remove { index }, Outcome::Removed { generation, removed }) => {
                if !removed {
                    return Err(format!(
                        "remove op {op}: live index {index} reported already dead"
                    ));
                }
                events.push((*generation, Event::Remove { index: *index as usize }));
            }
            (OpKind::Query { .. }, _) => {}
            (_, Outcome::Unsent | Outcome::Error { .. } | Outcome::TimedOut | Outcome::Pending) => {
            }
            (kind, outcome) => return Err(format!("op {op} ({kind:?}) answered with {outcome:?}")),
        }
    }
    events.sort_by_key(|(g, _)| *g);
    let mut total = genesis_len;
    for (k, (generation, event)) in events.iter().enumerate() {
        if *generation != k as u64 + 1 {
            return Err(format!(
                "mutation receipts skip or repeat a generation: #{} committed as generation {generation}",
                k + 1
            ));
        }
        if let Event::Insert { first_index, op } = event {
            if *first_index != total {
                return Err(format!("insert op {op}: first index {first_index}, expected {total}"));
            }
            if let OpKind::Insert { n, .. } = plan.ops[*op].kind {
                total += n;
            }
        }
    }
    Ok(events)
}

/// Check one phase's responses; `log` holds a record for every operation
/// of `plan`. `only` restricts the check to those op indices. Generation-0
/// queries are ranked by `ranker` (over the genesis database), later ones
/// by a linear scan over the database rebuilt from the receipts. Returns
/// how many query responses were checked.
///
/// # Errors
///
/// The first mismatch, gap or inconsistency, described.
#[allow(clippy::too_many_arguments)]
pub fn check_phase(
    ranker: &HammingRanker,
    model: &Mlp,
    plan: &Plan,
    log: &PhaseLog,
    top_k: usize,
    queries: &mut Rows,
    inserts: &mut Rows,
    only: Option<&BTreeSet<usize>>,
) -> Result<usize, String> {
    let base = ranker.database();
    let events = timeline(plan, log, base.len())?;
    // (generation, op, row), in op order, so query rows stream forward.
    let mut checks: Vec<(u64, usize, usize)> = Vec::new();
    for (op, rec) in log.records.iter().enumerate() {
        if let (OpKind::Query { row }, Outcome::Hits { generation, .. }) =
            (&plan.ops[op].kind, &rec.outcome)
        {
            if only.is_none_or(|set| set.contains(&op)) {
                checks.push((*generation, op, *row));
            }
        }
    }
    if let Some(&(generation, op, _)) = checks.iter().max() {
        if generation > events.len() as u64 {
            return Err(format!("query op {op} reports generation {generation}, never committed"));
        }
    }
    let rows: Vec<usize> = checks.iter().map(|c| c.2).collect();
    let query_codes = encode_rows(model, queries, &rows)?;
    let mut inserted: BTreeMap<usize, BitCodes> = BTreeMap::new();
    for (_, event) in &events {
        if let Event::Insert { op, .. } = event {
            if let OpKind::Insert { first_row, n } = plan.ops[*op].kind {
                let rows: Vec<usize> = (first_row..first_row + n).collect();
                inserted.extend([(*op, encode_rows(model, inserts, &rows)?)]);
            }
        }
    }
    // Check in generation order, applying each receipt before the
    // queries that report its generation.
    let mut order: Vec<(u64, usize, usize)> =
        checks.iter().enumerate().map(|(qi, &(generation, op, _))| (generation, op, qi)).collect();
    order.sort_unstable();

    let mut db = Cow::Borrowed(base);
    let mut live = vec![true; base.len()];
    let mut applied = 0usize;
    for &(generation, op, qi) in &order {
        while applied < events.len() && events[applied].0 <= generation {
            match &events[applied].1 {
                Event::Insert { op: ins, .. } => {
                    db.to_mut().extend(&inserted[ins]);
                    live.resize(db.len(), true);
                }
                Event::Remove { index } => live[*index] = false,
            }
            applied += 1;
        }
        let expected = if generation == 0 {
            ranker.rank_top_n_with_dist(&query_codes, qi, top_k)
        } else {
            linear_top_k(&db, &live, query_codes.code(qi), top_k)
        };
        let Outcome::Hits { digest, .. } = log.records[op].outcome else { unreachable!() };
        if digest != hits_digest(&expected) {
            return Err(format!(
                "query op {op} at generation {generation}: the response's {top_k} hits differ \
                 from the oracle's, which begin {:?}",
                &expected[..expected.len().min(4)]
            ));
        }
    }
    Ok(checks.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use crate::traffic::{OpRecord, PlannedOp};

    struct Case {
        model: Mlp,
        ranker: HammingRanker,
        queries: Rows,
        inserts: Rows,
        plan: Plan,
        log: PhaseLog,
        /// The hit list behind each query's digest (empty for mutations).
        hits: Vec<Vec<(u32, u32)>>,
    }

    fn record(due: f64, outcome: Outcome) -> OpRecord {
        OpRecord { due, sent: due, done: due, outcome }
    }

    /// A tiny database, four queries and two mutations, with every
    /// response filled in from the oracle's own linear scan.
    fn honest_case() -> Case {
        let spec = spec::by_name("wire-small", true).expect("workload");
        let mut rng = uhscm_linalg::rng::seeded(7);
        let model = Mlp::hashing_network(spec.dim, &[spec.dim / 2], 8, &mut rng);
        let mut pool = Rows::new(&spec, 7, 1);
        let base = encode_rows(&model, &mut pool, &(0..200).collect::<Vec<_>>()).expect("codes");
        let mut queries = Rows::queries(&spec, 7);
        let mut inserts = Rows::inserts(&spec, 7);
        let kinds = [
            OpKind::Query { row: 0 },
            OpKind::Query { row: 1 },
            OpKind::Insert { first_row: 0, n: 4 },
            OpKind::Query { row: 2 },
            OpKind::Remove { index: 3 },
            OpKind::Query { row: 3 },
        ];
        let ops: Vec<PlannedOp> = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| PlannedOp { due: i as f64, conn: 0, kind })
            .collect();
        let plan = Plan { ops, conns: 1 };

        // Expected answers straight from the oracle's own scan.
        let mut db = base.clone();
        let mut live = vec![true; db.len()];
        let mut records = Vec::new();
        let mut hit_lists = Vec::new();
        let mut generation = 0;
        for op in &plan.ops {
            let outcome = match op.kind {
                OpKind::Query { row } => {
                    let code = encode_rows(&model, &mut queries, &[row]).expect("code");
                    let hits = linear_top_k(&db, &live, code.code(0), 10);
                    let digest = hits_digest(&hits);
                    hit_lists.push(hits);
                    Outcome::Hits { digest, generation }
                }
                OpKind::Insert { first_row, n } => {
                    let rows: Vec<usize> = (first_row..first_row + n).collect();
                    let first_index = db.len() as u64;
                    db.extend(&encode_rows(&model, &mut inserts, &rows).expect("codes"));
                    live.resize(db.len(), true);
                    generation += 1;
                    Outcome::Inserted { generation, first_index, count: n as u64 }
                }
                OpKind::Remove { index } => {
                    live[index as usize] = false;
                    generation += 1;
                    Outcome::Removed { generation, removed: true }
                }
            };
            if !matches!(op.kind, OpKind::Query { .. }) {
                hit_lists.push(Vec::new());
            }
            records.push(record(op.due, outcome));
        }
        let ranker = HammingRanker::new(base);
        let log = PhaseLog { records, aborted: false };
        Case { model, ranker, queries, inserts, plan, log, hits: hit_lists }
    }

    fn run(case: &mut Case) -> Result<usize, String> {
        check_phase(
            &case.ranker,
            &case.model,
            &case.plan,
            &case.log,
            10,
            &mut case.queries,
            &mut case.inserts,
            None,
        )
    }

    #[test]
    fn honest_responses_pass() {
        // Generation-0 answers go through the ranker, later ones through
        // the rebuilt database: both agree with the linear scan.
        let mut case = honest_case();
        assert_eq!(run(&mut case), Ok(4));
        // Checking again restarts the row streams and still passes.
        assert_eq!(run(&mut case), Ok(4));
    }

    #[test]
    fn one_corrupted_hit_pair_is_rejected() {
        for (op, field) in [(0usize, 0usize), (1, 1), (3, 1), (5, 0)] {
            let mut case = honest_case();
            // The response as received, with one pair corrupted.
            let mut hits = case.hits[op].clone();
            let victim = hits.len() / 2;
            if field == 0 {
                hits[victim].0 += 1;
            } else {
                hits[victim].1 ^= 1;
            }
            let Outcome::Hits { digest, .. } = &mut case.log.records[op].outcome else { panic!() };
            *digest = hits_digest(&hits);
            let err = run(&mut case).expect_err("a corrupted hit pair must fail the check");
            assert!(err.contains(&format!("query op {op}")), "{err}");
        }
    }

    #[test]
    fn generation_gap_is_rejected() {
        let mut case = honest_case();
        if let Outcome::Removed { generation, .. } = &mut case.log.records[4].outcome {
            *generation += 1;
        }
        let err = run(&mut case).expect_err("a gap must fail the check");
        assert!(err.contains("generation"), "{err}");
    }

    #[test]
    fn generation_never_committed_is_rejected() {
        let mut case = honest_case();
        if let Outcome::Hits { generation, .. } = &mut case.log.records[0].outcome {
            *generation = 9;
        }
        assert!(run(&mut case).is_err());
    }
}
