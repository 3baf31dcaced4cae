//! The measured loop (shared by the untraced and the traced run), the
//! correctness oracle, and the end-to-end report of one untraced run.

use crate::metrics::{median, percentile};
use crate::recipe::{Cycle, Rig, Transport, WorkloadSpec};
use crate::trace::{QueryOp, Tracer};
use bgpq_engine::{QueryAnswer, QueryRequest, QueryResponse, StrategyKind};
use bgpq_net::QueryOutcome;
use bgpq_serve::Update;
use std::time::Instant;

/// Ops attempted and failed. A failed op is an `Err`, a wire error or
/// rejection, an answer that differs from its reference, or a query the
/// caches served against its cold/hot label.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// Row count plus an order-independent hash of the rows: equal digests mean
/// equal answers for every purpose of this benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub rows: u64,
    pub hash: u64,
}

impl Digest {
    /// Folds rows of node ids (one id per pattern node, in pattern order).
    pub fn of_rows<R: IntoIterator<Item = u32>>(rows: impl IntoIterator<Item = R>) -> Digest {
        let mut digest = Digest::default();
        for row in rows {
            // FNV-1a per row; rows are summed so their order does not matter.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for id in row {
                h = (h ^ u64::from(id)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            digest.rows += 1;
            digest.hash = digest.hash.wrapping_add(h);
        }
        digest
    }

    pub fn of_answer(answer: &QueryAnswer) -> Digest {
        match answer {
            QueryAnswer::Matches(set) => {
                Digest::of_rows(set.iter().map(|m| m.assignment().iter().map(|v| v.0)))
            }
            QueryAnswer::Simulation(rel) => {
                Digest::of_rows(rel.pairs().map(|(u, v)| [u.index() as u32, v.0]))
            }
        }
    }
}

/// What one query op returned, by transport.
pub enum QueryOut {
    Local(QueryResponse),
    Wire(QueryOutcome),
}

impl QueryOut {
    pub fn digest(&self) -> Digest {
        match self {
            QueryOut::Local(response) => Digest::of_answer(&response.answer),
            QueryOut::Wire(outcome) => {
                Digest::of_rows(outcome.matches.iter().map(|row| row.iter().map(|b| b.id)))
            }
        }
    }

    /// The engine's own end-to-end time for the op.
    pub fn engine_nanos(&self) -> u64 {
        match self {
            QueryOut::Local(response) => response.stats.total_nanos,
            QueryOut::Wire(outcome) => outcome.done.stats.total_nanos,
        }
    }

    pub fn snapshot_version(&self) -> u64 {
        match self {
            QueryOut::Local(response) => response.stats.snapshot_version,
            QueryOut::Wire(outcome) => outcome.header.snapshot_version,
        }
    }
}

impl Rig {
    /// Issues query `q` through `transport` and waits for the whole answer.
    pub fn query(&mut self, transport: Transport, q: usize) -> Result<QueryOut, String> {
        match transport {
            Transport::InProcess => self
                .server
                .execute(&self.queries[q].request)
                .map(QueryOut::Local)
                .map_err(|e| e.to_string()),
            Transport::Wire => self
                .net
                .as_mut()
                .ok_or("this rig has no TCP front end")?
                .client
                .query(&self.queries[q].spec)
                .map(QueryOut::Wire)
                .map_err(|e| e.to_string()),
        }
    }

    /// Commits one batch through `transport`.
    pub fn commit(&mut self, transport: Transport, updates: &[Update]) -> Result<(), String> {
        match transport {
            Transport::InProcess => self
                .server
                .commit(updates)
                .map(drop)
                .map_err(|e| e.to_string()),
            Transport::Wire => self
                .net
                .as_mut()
                .ok_or("this rig has no TCP front end")?
                .client
                .update(updates)
                .map(drop)
                .map_err(|e| e.to_string()),
        }
    }

    fn cache_counters(&self) -> (u64, u64) {
        let stats = self.server.snapshot().engine().stats();
        (stats.fragment_cache_hits, stats.fragment_cache_misses)
    }
}

/// Raw nanosecond samples of one pass over a script, one per recorded op in
/// script order: two passes over the same script line up op by op.
/// `hot_engine` and `answers` run parallel to `hot` and `cold`.
#[derive(Default)]
pub struct Samples {
    pub cold: Vec<u64>,
    pub hot: Vec<u64>,
    /// The engine's own time for each hot op.
    pub hot_engine: Vec<u64>,
    pub commit: Vec<u64>,
    /// The answer of each cold op.
    pub answers: Vec<Digest>,
}

/// Replays `script` on `rig` with one closed-loop client. With `warm_up`
/// the first cycle runs but is not recorded. Every query answer of a hot
/// round must equal the cold round's answer of the same cycle, and every
/// round must be served by the fragment cache as labelled (all misses when
/// cold, all hits when hot). A `tracer` adds spans and shadow re-runs
/// around each op, outside the timed calls.
pub fn run_cycles(
    rig: &mut Rig,
    transport: Transport,
    script: &[Cycle],
    warm_up: bool,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) -> Samples {
    let mut samples = Samples::default();
    for (c, cycle) in script.iter().enumerate() {
        let recorded = !(warm_up && c == 0);

        let base = tracer.as_ref().map(|_| rig.server.snapshot());
        let t0 = Instant::now();
        let committed = rig.commit(transport, &cycle.updates);
        let nanos = t0.elapsed().as_nanos() as u64;
        tally.attempted += 1;
        tally.failed += u64::from(committed.is_err());
        if recorded {
            samples.commit.push(nanos);
        }
        if let (Some(tracer), Some(base)) = (tracer.as_deref_mut(), base) {
            tracer.after_commit(rig, transport, &base, &cycle.updates, t0, nanos, tally);
        }

        let mut cold_answers = vec![Digest::default(); rig.queries.len()];
        for (round, order) in cycle.rounds.iter().enumerate() {
            let cold = round == 0;
            let (hits_before, misses_before) = rig.cache_counters();
            let mut ops = Vec::new();
            for &q in order {
                let q = usize::from(q);
                let t0 = Instant::now();
                let out = rig.query(transport, q);
                let nanos = t0.elapsed().as_nanos() as u64;
                tally.attempted += 1;
                // A failed op keeps its place, so passes stay aligned.
                let (digest, engine_nanos) = match &out {
                    Ok(out) => (out.digest(), out.engine_nanos()),
                    Err(_) => (Digest::default(), 0),
                };
                let wrong = !cold && digest != cold_answers[q];
                tally.failed += u64::from(out.is_err() || wrong);
                if cold {
                    cold_answers[q] = digest;
                }
                if recorded && cold {
                    samples.cold.push(nanos);
                    samples.answers.push(digest);
                } else if recorded {
                    samples.hot.push(nanos);
                    samples.hot_engine.push(engine_nanos);
                }
                if tracer.is_some() && out.is_ok() {
                    ops.push(QueryOp {
                        q,
                        started: t0,
                        nanos,
                        engine_nanos,
                        digest,
                    });
                }
            }
            if let Some(tracer) = tracer.as_deref_mut() {
                tracer.after_round(rig, transport, cold, &ops, tally);
            }
            let (hits, misses) = rig.cache_counters();
            let as_labelled = if cold {
                misses - misses_before
            } else {
                hits - hits_before
            };
            tally.failed += (order.len() as u64).saturating_sub(as_labelled);
        }
    }
    samples
}

/// The correctness oracle: on one pinned snapshot, every query's answer
/// through `transport` must equal the same snapshot's answer under forced
/// `StrategyKind::IndexSeeded` (whole-graph matching, no fragment).
pub fn oracle(rig: &mut Rig, transport: Transport, tally: &mut Tally) {
    let pinned = rig.server.snapshot();
    for q in 0..rig.queries.len() {
        tally.attempted += 1;
        let reference = QueryRequest::build(rig.queries[q].pattern.clone())
            .strategy(StrategyKind::IndexSeeded)
            .finish();
        let agrees = match (rig.query(transport, q), pinned.execute(&reference)) {
            (Ok(out), Ok(reference)) => {
                out.snapshot_version() == pinned.version()
                    && out.digest() == Digest::of_answer(&reference.answer)
            }
            _ => false,
        };
        tally.failed += u64::from(!agrees);
    }
}

/// The outcome of one run: metric values in table order plus the context
/// needed to read them.
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Free-form `(key, value)` context: cycle counts, sample counts, cores.
    pub detail: Vec<(&'static str, f64)>,
}

/// The quickest repetition of each op. `passes` are replays of one script,
/// each on a system set up afresh, so sample `i` of every pass times the same
/// op in the same state; `op_of[i]` names that op (the hot rounds of a cycle
/// repeat the same ops, so several samples of a pass share one). The program
/// does the same work in every repetition; what differs is what the shared
/// host took away — a stolen time slice, a cold cache, a busy neighbour —
/// and that only ever adds time. The minimum is therefore the least
/// disturbed measurement of the op itself, while a slower program is slower
/// in every repetition.
fn quickest<'a>(passes: impl Iterator<Item = &'a [u64]>, op_of: &[usize]) -> Vec<u64> {
    let ops = op_of.iter().max().map_or(0, |&last| last + 1);
    let mut quickest = vec![u64::MAX; ops];
    for pass in passes {
        for (&op, &nanos) in op_of.iter().zip(pass) {
            quickest[op] = quickest[op].min(nanos);
        }
    }
    quickest
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Fewest episodes of a run, however long they take.
pub const MIN_EPISODES: usize = 3;

/// One untraced run. An episode sets the system up afresh and replays the
/// run's script on it: a discarded warm-up cycle, then `cycles` measured
/// ones. Episodes repeat until the next one would not fit into `seconds`
/// (counted from the start of the run), and at least `min_episodes` times.
/// The oracle runs at version 0 of the first episode and at the final
/// version of the last. `setup_s` is the median of the set-ups; every timing
/// is a percentile over the script's ops of each op's quickest repetition.
pub fn end_to_end(
    spec: &'static WorkloadSpec,
    seed: u64,
    cycles: usize,
    min_episodes: usize,
    seconds: u64,
) -> Result<Report, String> {
    let started = Instant::now();
    let with_net = spec.transport == Transport::Wire;
    let mut tally = Tally::default();
    let mut setup_times = Vec::new();
    let mut passes: Vec<Samples> = Vec::new();
    let mut script = Vec::new();
    let mut last: Option<Rig> = None;
    let mut longest_s = 0.0f64;
    while passes.len() < min_episodes
        || started.elapsed().as_secs_f64() + longest_s <= seconds as f64
    {
        let episode = Instant::now();
        // Release the previous system first, so the peak stays one system's.
        drop(last.take());
        let mut rig = Rig::setup(spec, with_net)?;
        setup_times.push(rig.stages.total_s);
        if passes.is_empty() {
            oracle(&mut rig, spec.transport, &mut tally);
        }
        script = rig.script(seed, cycles + 1);
        let pass = run_cycles(&mut rig, spec.transport, &script, true, &mut tally, None);
        // The same op on the same state must give the same answer.
        if let Some(first) = passes.first() {
            let differing = first.answers.iter().zip(&pass.answers);
            tally.failed += differing.filter(|(a, b)| a != b).count() as u64;
        }
        passes.push(pass);
        last = Some(rig);
        longest_s = longest_s.max(episode.elapsed().as_secs_f64());
    }
    let mut rig = last.expect("at least one episode ran");
    oracle(&mut rig, spec.transport, &mut tally);

    // The op each sample of a pass times: (measured cycle, query) for
    // queries, the cycle for commits.
    let queries = rig.queries.len();
    let op_ids = |rounds: fn(&Cycle) -> &[Vec<u16>]| -> Vec<usize> {
        let measured = script[1..].iter().enumerate();
        measured
            .flat_map(|(c, cycle)| {
                let in_order = rounds(cycle).iter().flatten();
                in_order.map(move |&q| c * queries + usize::from(q))
            })
            .collect()
    };
    let (cold_ops, hot_ops) = (op_ids(|c| &c.rounds[..1]), op_ids(|c| &c.rounds[1..]));
    let commit_ops: Vec<usize> = (0..cycles).collect();
    let mut cold = quickest(passes.iter().map(|p| &p.cold[..]), &cold_ops);
    let mut hot = quickest(passes.iter().map(|p| &p.hot[..]), &hot_ops);
    let mut commit = quickest(passes.iter().map(|p| &p.commit[..]), &commit_ops);
    // One episode's queries over their summed quickest times: every (cycle,
    // query) once cold, then `H` times hot.
    let h = spec.hot_rounds as u64;
    let query_nanos = cold.iter().sum::<u64>() + h * hot.iter().sum::<u64>();
    let queries_per_s = (cold_ops.len() + hot_ops.len()) as f64 / (query_nanos as f64 / 1e9);
    let us = |ops: &mut Vec<u64>, p: f64| percentile(ops, p) / 1e3;
    let metrics = vec![
        ("setup_s", "s", median(&setup_times)),
        ("query_cold_p50_us", "us", us(&mut cold, 0.5)),
        ("query_cold_p90_us", "us", us(&mut cold, 0.9)),
        ("query_hot_p50_us", "us", us(&mut hot, 0.5)),
        ("query_hot_p90_us", "us", us(&mut hot, 0.9)),
        ("commit_p50_us", "us", us(&mut commit, 0.5)),
        ("queries_per_s", "1/s", queries_per_s),
        ("peak_rss_mb", "MB", peak_rss_mb()?),
    ];
    let episodes = passes.len();
    let snapshot = rig.server.snapshot();
    let detail = vec![
        ("seed", seed as f64),
        (
            "cores",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
        ),
        ("episodes", episodes as f64),
        ("cycles_per_episode", cycles as f64),
        ("hot_rounds", spec.hot_rounds as f64),
        ("queries_per_round", queries as f64),
        // Cold ops, commits and set-ups are repeated once per episode, hot
        // ops `H` times per episode.
        ("cold_ops", cold.len() as f64),
        ("hot_ops", hot.len() as f64),
        ("hot_repetitions", (episodes * spec.hot_rounds) as f64),
        ("commit_ops", commit.len() as f64),
        ("graph_nodes", snapshot.graph().live_node_count() as f64),
        ("graph_edges", snapshot.graph().edge_count() as f64),
        ("run_s", started.elapsed().as_secs_f64()),
    ];
    Ok(Report {
        tally,
        metrics,
        detail,
    })
}
