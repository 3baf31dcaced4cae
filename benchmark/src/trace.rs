//! The traced run: spans around every op, shadow re-runs of each layer
//! through its narrowest public function, and probes of the layers a
//! single-process script does not reach on its own.
//!
//! Everything here times the program from outside: the measured call is one
//! span, and *shadow* spans re-run the same pipeline stage by stage on the
//! same snapshot, checking that the shadow answer equals the measured one.
//! End-to-end metrics never come from a traced run.

use crate::measure::{oracle, run_cycles, Digest, Report, Samples, Tally};
use crate::metrics::{mean, median, percentile, PER_LAYER};
use crate::recipe::{Rig, Transport, WorkloadSpec};
use bgpq_engine::{
    apply_deltas, bounded_subgraph_match_prefetched, fetch_candidate_sets, parse_pattern,
    plan_for_indices, CandidateSet, EngineStats, FragmentView, GraphAccess, GraphDelta, LookupMemo,
    QueryPlan, Semantics, Vf2Config,
};
use bgpq_net::frame::{read_frame, write_frame};
use bgpq_net::{Request, Response, DEFAULT_MAX_FRAME_BYTES, PROTOCOL_VERSION};
use bgpq_serve::{ServerStats, Snapshot, Update, WorkerPool};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

/// One recorded interval. Spans of one op share `op`; `parent` is the id of
/// the span that caused this one (0 for a root). Every op has two roots:
/// `op.*`, filled by the measured call, and `shadow.*`, whose children are
/// the stage-by-stage re-run. Times are nanoseconds since the tracer was
/// created.
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store; written out once, when the run ends.
struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    ops: u32,
}

impl Recorder {
    fn push(
        &mut self,
        parent: u32,
        op: u32,
        name: &'static str,
        start: Instant,
        nanos: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns: start_ns + nanos,
        });
        id
    }

    /// Records a new op's measured call, timed by the caller: the `op.*`
    /// root and, filling it, the call itself. Returns the op id.
    fn measured(
        &mut self,
        root: &'static str,
        call: &'static str,
        start: Instant,
        nanos: u64,
    ) -> u32 {
        self.ops += 1;
        let id = self.push(0, self.ops, root, start, nanos);
        self.push(id, self.ops, call, start, nanos);
        self.ops
    }

    /// Opens, now, the `shadow.*` root of `op`; returns `(op, id)`.
    fn open_shadow(&mut self, op: u32, name: &'static str) -> (u32, u32) {
        (op, self.push(0, op, name, Instant::now(), 0))
    }

    fn close(&mut self, (_, id): (u32, u32)) {
        let end = Instant::now().duration_since(self.epoch).as_nanos() as u64;
        self.spans[id as usize - 1].end_ns = end;
    }

    /// Runs and records a shadow stage; returns its result and nanoseconds.
    fn time<R>(
        &mut self,
        (op, parent): (u32, u32),
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let start = Instant::now();
        let result = f();
        let nanos = start.elapsed().as_nanos() as u64;
        self.push(parent, op, name, start, nanos);
        (result, nanos)
    }
}

/// One query op as the measured loop saw it.
pub struct QueryOp {
    pub q: usize,
    pub started: Instant,
    pub nanos: u64,
    /// The engine's own end-to-end time for the op.
    pub engine_nanos: u64,
    pub digest: Digest,
}

/// Records spans and per-layer samples for the ops of one traced segment.
pub struct Tracer {
    rec: Recorder,
    /// Raw per-op samples by name: nanoseconds, counts or ratios.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// The shadow plan and candidate sets of each query at the current
    /// version: made on the cold op, reused by the hot ops' shadows.
    shadow: Vec<Option<(QueryPlan, CandidateSet)>>,
    server_before: ServerStats,
    engine_start: EngineStats,
    commits: u64,
}

impl Tracer {
    pub fn new(rig: &Rig) -> Tracer {
        Tracer {
            rec: Recorder {
                epoch: Instant::now(),
                spans: Vec::new(),
                ops: 0,
            },
            samples: BTreeMap::new(),
            shadow: (0..rig.queries.len()).map(|_| None).collect(),
            server_before: rig.server.stats(),
            engine_start: rig.server.snapshot().engine().stats(),
            commits: 0,
        }
    }

    fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Shadows one commit on `base`, the snapshot it built on: clone the
    /// graph, clone the indices, replay the batch, maintain the indices.
    /// The shadow's maintenance counters must equal the server's.
    #[allow(clippy::too_many_arguments)]
    pub fn after_commit(
        &mut self,
        rig: &Rig,
        transport: Transport,
        base: &Snapshot,
        updates: &[Update],
        started: Instant,
        nanos: u64,
        tally: &mut Tally,
    ) {
        let call = match transport {
            Transport::InProcess => "serve.commit",
            Transport::Wire => "net.update",
        };
        let op = self.rec.measured("op.commit", call, started, nanos);
        let root = self.rec.open_shadow(op, "shadow.commit");
        let (mut graph, clone_ns) = self.rec.time(root, "graph.clone", || base.graph().clone());
        let (mut indices, index_clone_ns) = self
            .rec
            .time(root, "access.index_clone", || base.indices().clone());
        let mut deltas = Vec::with_capacity(updates.len());
        for update in updates {
            match update {
                Update::AddNode { label, value } => {
                    deltas.push(GraphDelta::InsertNode(
                        graph.insert_node(label, value.clone()),
                    ));
                }
                Update::AddEdge { src, dst } => {
                    if graph.insert_edge(*src, *dst) == Ok(true) {
                        deltas.push(GraphDelta::InsertEdge(*src, *dst));
                    }
                }
                other => unreachable!("the script only adds nodes and edges: {other:?}"),
            }
        }
        let (maintenance, apply_ns) = self.rec.time(root, "access.apply_deltas", || {
            apply_deltas(&mut indices, &graph, &deltas)
        });
        self.rec.close(root);

        let now = rig.server.stats();
        let before = std::mem::replace(&mut self.server_before, now.clone());
        let commit_ns = (now.commit_nanos - before.commit_nanos) as f64;
        let maintain_ns = (now.delta_apply_nanos - before.delta_apply_nanos) as f64;
        let touched = now.nodes_touched - before.nodes_touched;
        let refreshed = now.contributions_refreshed - before.contributions_refreshed;
        if maintenance.touched_nodes as u64 != touched
            || maintenance.refreshed_contributions as u64 != refreshed
        {
            tally.failed += 1;
        }
        self.commits += 1;
        self.sample("serve.commit", commit_ns);
        self.sample("graph.clone", clone_ns as f64);
        self.sample("access.index_clone", index_clone_ns as f64);
        self.sample("access.apply_deltas", apply_ns as f64);
        self.sample("access.refreshed", refreshed as f64);
        self.sample("access.nodes_touched", touched as f64);
        self.sample(
            "serve.commit_clone_share",
            (commit_ns - maintain_ns) / commit_ns,
        );
        self.sample(
            "trace.commit_coverage",
            100.0 * (clone_ns + index_clone_ns + apply_ns) as f64 / commit_ns,
        );
        self.shadow.iter_mut().for_each(|s| *s = None);
    }

    /// Shadows one finished round, op by op in issue order. Deferring the
    /// shadows to the end of the round puts the same 31 other queries
    /// between a query's previous touch and its shadow as stood before its
    /// measured call, so the shadow meets the CPU caches as cold as the call
    /// did; re-running right after the call would find them warm.
    pub fn after_round(
        &mut self,
        rig: &Rig,
        transport: Transport,
        cold: bool,
        ops: &[QueryOp],
        tally: &mut Tally,
    ) {
        for op in ops {
            self.shadow_query(rig, transport, cold, op, tally);
        }
    }

    /// One op's two root spans, sharing its op id: the measured call, and
    /// the shadow re-run on the same snapshot — (cold only) fingerprint,
    /// plan, fetch; then view build and match. The shadow answer must equal
    /// the measured one.
    fn shadow_query(
        &mut self,
        rig: &Rig,
        transport: Transport,
        cold: bool,
        op: &QueryOp,
        tally: &mut Tally,
    ) {
        let (measured, shadow) = if cold {
            ("op.query_cold", "shadow.query_cold")
        } else {
            ("op.query_hot", "shadow.query_hot")
        };
        let call = match transport {
            Transport::InProcess => "engine.execute",
            Transport::Wire => "net.query",
        };
        let id = self.rec.measured(measured, call, op.started, op.nanos);
        let root = self.rec.open_shadow(id, shadow);

        let snapshot = rig.server.snapshot();
        let (graph, indices) = (snapshot.graph(), snapshot.indices());
        let pattern = &rig.queries[op.q].pattern;
        let mut staged_ns = 0;
        if cold {
            let (_, fingerprint_ns) = self.rec.time(root, "pattern.fingerprint", || {
                black_box(pattern.fingerprint())
            });
            let (plan, plan_ns) = self.rec.time(root, "core.plan", || {
                plan_for_indices(pattern, indices, Semantics::Isomorphism)
            });
            let Ok(plan) = plan else {
                tally.failed += 1;
                return self.rec.close(root);
            };
            let (fetched, fetch_ns) = self.rec.time(root, "core.fetch", || {
                fetch_candidate_sets(&plan, pattern, graph, indices, &mut LookupMemo::new())
            });
            staged_ns = plan_ns + fetch_ns;
            self.sample("pattern.fingerprint", fingerprint_ns as f64);
            self.sample("core.plan", plan_ns as f64);
            self.sample("core.fetch", fetch_ns as f64);
            self.sample("access.index_lookups", fetched.stats.index_lookups as f64);
            self.sample(
                "core.predicate_filtered",
                fetched.stats.predicate_filtered as f64,
            );
            self.shadow[op.q] = Some((plan, fetched));
        }
        let Some((plan, fetched)) = self.shadow[op.q].as_ref() else {
            tally.failed += 1;
            return self.rec.close(root);
        };
        let arenas = snapshot.engine().arena_pool();
        let (_, view_ns) = self.rec.time(root, "graph.view_build", || {
            arenas.with_any(|arena| {
                black_box(FragmentView::induced(graph, &fetched.all_nodes, arena).edge_count())
            })
        });
        let ((matches, fetch_stats, vf2), match_ns) = self.rec.time(root, "matching.match", || {
            arenas.with_any(|arena| {
                bounded_subgraph_match_prefetched(
                    pattern,
                    graph,
                    fetched,
                    Vf2Config::default(),
                    arena,
                )
            })
        });
        self.rec.close(root);
        let shadow = Digest::of_rows(matches.iter().map(|m| m.assignment().iter().map(|v| v.0)));
        if shadow != op.digest {
            tally.failed += 1;
        }

        // In process the measured call *is* the engine; over the wire the
        // engine's time is what the `done` frame reports.
        let engine_ns = match transport {
            Transport::InProcess => op.nanos,
            Transport::Wire => op.engine_nanos,
        } as f64;
        let utilization = fetch_stats.fragment_nodes as f64 / plan.worst_case_nodes().max(1) as f64;
        // `match_ns` covers the prefetched executor, which builds its own view.
        self.sample("graph.view_build", view_ns as f64);
        self.sample("matching.match", match_ns.saturating_sub(view_ns) as f64);
        self.sample("matching.steps", vf2.steps as f64);
        self.sample("matching.answers", op.digest.rows as f64);
        if cold {
            self.sample("engine.execute_cold", engine_ns);
            self.sample("core.fragment_nodes", fetch_stats.fragment_nodes as f64);
            self.sample("core.fetch_utilization", utilization);
            self.sample(
                "engine.cold_overhead",
                engine_ns - (staged_ns + match_ns) as f64,
            );
            self.sample(
                "trace.cold_coverage",
                100.0 * (staged_ns + match_ns) as f64 / engine_ns,
            );
        } else {
            self.sample("engine.execute_hot", engine_ns);
            self.sample("engine.overhead", engine_ns - match_ns as f64);
            self.sample("trace.hot_coverage", 100.0 * match_ns as f64 / engine_ns);
        }
    }

    /// Folds the segment's samples into layer metrics.
    fn finish(&mut self, rig: &Rig, layers: &mut BTreeMap<&'static str, f64>) {
        let micros = [
            ("pattern.fingerprint_us", "pattern.fingerprint"),
            ("core.plan_us", "core.plan"),
            ("core.fetch_us", "core.fetch"),
            ("graph.view_build_us", "graph.view_build"),
            ("matching.match_us", "matching.match"),
            ("engine.execute_cold_us", "engine.execute_cold"),
            ("engine.execute_hot_us", "engine.execute_hot"),
            ("engine.overhead_us", "engine.overhead"),
            ("engine.cold_overhead_us", "engine.cold_overhead"),
            ("serve.commit_us", "serve.commit"),
            ("graph.clone_us", "graph.clone"),
            ("access.index_clone_us", "access.index_clone"),
            ("access.apply_deltas_us", "access.apply_deltas"),
        ];
        for (metric, samples) in micros {
            layers.insert(metric, median(&self.samples[samples]) / 1e3);
        }
        let medians = [
            ("serve.commit_clone_share", "serve.commit_clone_share"),
            ("trace.cold_coverage_pct", "trace.cold_coverage"),
            ("trace.hot_coverage_pct", "trace.hot_coverage"),
            ("trace.commit_coverage_pct", "trace.commit_coverage"),
        ];
        for (metric, samples) in medians {
            layers.insert(metric, median(&self.samples[samples]));
        }
        let averages = [
            ("core.fragment_nodes", "core.fragment_nodes"),
            ("core.fetch_utilization", "core.fetch_utilization"),
            ("access.index_lookups_per_query", "access.index_lookups"),
            (
                "core.predicate_filtered_per_query",
                "core.predicate_filtered",
            ),
            ("matching.steps_per_query", "matching.steps"),
            ("matching.answers_per_query", "matching.answers"),
            ("access.refreshed_per_commit", "access.refreshed"),
            ("access.nodes_touched_per_commit", "access.nodes_touched"),
        ];
        for (metric, samples) in averages {
            layers.insert(metric, mean(&self.samples[samples]));
        }
        let start = &self.engine_start;
        let end = rig.server.snapshot().engine().stats();
        let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
        layers.insert(
            "engine.plan_cache_hit_ratio",
            ratio(
                end.plan_cache_hits - start.plan_cache_hits,
                end.plan_cache_misses - start.plan_cache_misses,
            ),
        );
        layers.insert(
            "engine.fragment_cache_hit_ratio",
            ratio(
                end.fragment_cache_hits - start.fragment_cache_hits,
                end.fragment_cache_misses - start.fragment_cache_misses,
            ),
        );
        layers.insert(
            "engine.invalidations_per_commit",
            (end.fragment_cache_invalidations - start.fragment_cache_invalidations) as f64
                / self.commits.max(1) as f64,
        );
    }

    fn write_spans(&self, workload: &str) -> Result<(), String> {
        let dir = std::path::Path::new("benchmark/out");
        let path = dir.join(format!("trace_{workload}.jsonl"));
        let write = || -> std::io::Result<()> {
            std::fs::create_dir_all(dir)?;
            let mut file = BufWriter::new(std::fs::File::create(&path)?);
            for s in &self.rec.spans {
                writeln!(
                    file,
                    "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                    s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
                )?;
            }
            file.flush()
        };
        write().map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// `parse_pattern` on each query's wire text, interner clone included, as
/// the TCP front end does per request.
fn probe_parse(rig: &Rig, layers: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let snapshot = rig.server.snapshot();
    let mut nanos = Vec::new();
    for _ in 0..5 {
        for query in &rig.queries {
            let t0 = Instant::now();
            let parsed = parse_pattern(&query.text, snapshot.graph().interner().clone());
            nanos.push(t0.elapsed().as_nanos() as f64);
            let parsed = parsed.map_err(|e| format!("wire text does not parse: {e}"))?;
            if parsed.fingerprint() != query.pattern.fingerprint() {
                return Err("wire text parses to a different pattern".into());
            }
        }
    }
    layers.insert("pattern.parse_us", median(&nanos) / 1e3);
    Ok(())
}

/// `WorkerPool::submit` + `recv` of a hot query, minus a direct `execute`.
fn probe_pool(rig: &Rig, layers: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let pool = WorkerPool::new(Arc::clone(&rig.server), 2);
    let (mut direct, mut pooled) = (Vec::new(), Vec::new());
    for round in 0..4 {
        for query in &rig.queries {
            let t0 = Instant::now();
            let a = rig.server.execute(&query.request);
            let direct_ns = t0.elapsed().as_nanos() as f64;
            let t0 = Instant::now();
            let b = pool.submit(query.request.clone()).recv();
            let pooled_ns = t0.elapsed().as_nanos() as f64;
            match (a, b) {
                (Ok(a), Ok(Ok(b))) if a.answer == b.answer => {}
                _ => return Err("the worker pool and a direct call disagree".into()),
            }
            // Round 0 warms the caches at the current version.
            if round > 0 {
                direct.push(direct_ns);
                pooled.push(pooled_ns);
            }
        }
    }
    pool.shutdown();
    layers.insert(
        "serve.pool_roundtrip_us",
        (median(&pooled) - median(&direct)) / 1e3,
    );
    Ok(())
}

/// A hand-rolled client loop over a plain `TcpStream`, timing the net
/// layer's public pieces one by one on hot queries, plus `Client::ping`.
fn probe_wire(rig: &mut Rig, layers: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let net = rig
        .net
        .as_mut()
        .ok_or("the traced run needs the TCP front end")?;
    let io = |e: std::io::Error| format!("probe connection: {e}");
    let stream = TcpStream::connect(net.handle.local_addr()).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(io)?);
    let mut writer = BufWriter::new(stream);
    let mut send = |request: &Request| -> Result<(u64, u64, u64), String> {
        let t0 = Instant::now();
        let payload = request.encode()?;
        let encode_ns = t0.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        let bytes = write_frame(&mut writer, &payload).map_err(io)?;
        Ok((encode_ns, t0.elapsed().as_nanos() as u64, bytes))
    };
    let mut receive = || -> Result<(Response, u64, u64, u64), String> {
        let t0 = Instant::now();
        let (payload, bytes) =
            read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES).map_err(|e| e.to_string())?;
        let read_ns = t0.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        let response = Response::decode(&payload)?;
        Ok((response, read_ns, t0.elapsed().as_nanos() as u64, bytes))
    };

    send(&Request::Hello {
        protocol: PROTOCOL_VERSION,
        client: "benchmark-probe".into(),
    })?;
    if !matches!(receive()?.0, Response::HelloAck { .. }) {
        return Err("probe handshake was not acknowledged".into());
    }
    let mut per_query: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for round in 0..4 {
        for query in &rig.queries {
            let (encode_ns, write_ns, bytes_out) = send(&Request::Query(query.spec.clone()))?;
            let (mut read_ns, mut decode_ns, mut bytes_in) = (0, 0, 0);
            let (mut frames, mut rows) = (0u64, 0u64);
            loop {
                let (response, read, decode, bytes) = receive()?;
                frames += 1;
                decode_ns += decode;
                bytes_in += bytes;
                match response {
                    // Reading the header is mostly waiting for the server to
                    // compute the answer, not framing work: left out.
                    Response::Answer(_) => {}
                    Response::MatchRows(chunk) => {
                        read_ns += read;
                        rows += chunk.len() as u64;
                    }
                    Response::Done(_) => {
                        read_ns += read;
                        break;
                    }
                    other => return Err(format!("unexpected frame in an answer: {other:?}")),
                }
            }
            if round > 0 {
                for (name, value) in [
                    ("net.request_encode_us", encode_ns as f64 / 1e3),
                    ("net.frame_write_us", write_ns as f64 / 1e3),
                    ("net.frame_read_us", read_ns as f64 / 1e3),
                    ("net.response_decode_us", decode_ns as f64 / 1e3),
                    ("net.bytes_out_per_query", bytes_out as f64),
                    ("net.bytes_in_per_query", bytes_in as f64),
                    ("net.frames_per_answer", frames as f64),
                    ("net.rows_per_answer", rows as f64),
                ] {
                    per_query.entry(name).or_default().push(value);
                }
            }
        }
    }
    send(&Request::Goodbye)?;
    if !matches!(receive()?.0, Response::GoodbyeAck) {
        return Err("probe goodbye was not acknowledged".into());
    }
    for (name, values) in per_query {
        let timing = name.ends_with("_us");
        layers.insert(
            name,
            if timing {
                median(&values)
            } else {
                mean(&values)
            },
        );
    }

    let mut pings = Vec::new();
    for _ in 0..200 {
        let t0 = Instant::now();
        net.client.ping().map_err(|e| format!("ping: {e}"))?;
        pings.push(t0.elapsed().as_nanos() as f64);
    }
    layers.insert("net.ping_rtt_us", median(&pings) / 1e3);
    let gate = net.handle.gate_stats();
    layers.insert(
        "net.rejected",
        (gate.rejected_overloaded + gate.rejected_draining) as f64,
    );
    Ok(())
}

/// Read-only wire tails and the wire's own share of a hot query, from
/// untraced wire samples.
fn wire_tails(samples: &Samples, layers: &mut BTreeMap<&'static str, f64>) {
    let mut hot = samples.hot.clone();
    let overhead: Vec<f64> = hot
        .iter()
        .zip(&samples.hot_engine)
        .map(|(&seen, &engine)| seen as f64 - engine as f64)
        .collect();
    layers.insert("net.wire_overhead_us", median(&overhead) / 1e3);
    layers.insert("net.query_hot_p90_us", percentile(&mut hot, 0.9) / 1e3);
    layers.insert("net.query_hot_p99_us", percentile(&mut hot, 0.99) / 1e3);
}

fn hot_p50(samples: &Samples) -> f64 {
    percentile(&mut samples.hot.clone(), 0.5)
}

/// Cycles per segment of a traced run: eight commits and a few thousand
/// queries give steady medians within seconds on every workload.
pub const TRACED_CYCLES: usize = 8;

/// One traced run on one set-up, each segment `cycles` long: an untraced
/// segment on the workload's own transport (the overhead baseline), the
/// traced segment, an untraced wire segment (the workload's own when it is
/// a wire one), then the probes. Writes `benchmark/out/trace_<workload>.jsonl`.
pub fn per_layer(spec: &'static WorkloadSpec, seed: u64, cycles: usize) -> Result<Report, String> {
    let mut rig = Rig::setup(spec, true)?;
    let mut tally = Tally::default();
    oracle(&mut rig, spec.transport, &mut tally);

    let script = rig.script(seed, cycles + 1);
    let untraced = run_cycles(&mut rig, spec.transport, &script, true, &mut tally, None);

    let mut tracer = Tracer::new(&rig);
    let script = rig.script(seed.wrapping_add(1), cycles);
    let traced = run_cycles(
        &mut rig,
        spec.transport,
        &script,
        false,
        &mut tally,
        Some(&mut tracer),
    );

    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    tracer.finish(&rig, &mut layers);
    tracer.write_spans(spec.name)?;
    layers.insert(
        "trace.overhead_pct",
        100.0 * (hot_p50(&traced) / hot_p50(&untraced) - 1.0),
    );

    match spec.transport {
        Transport::Wire => wire_tails(&untraced, &mut layers),
        Transport::InProcess => {
            let script = rig.script(seed.wrapping_add(2), cycles);
            let wire = run_cycles(&mut rig, Transport::Wire, &script, false, &mut tally, None);
            wire_tails(&wire, &mut layers);
        }
    }
    probe_parse(&rig, &mut layers)?;
    probe_pool(&rig, &mut layers)?;
    probe_wire(&mut rig, &mut layers)?;
    oracle(&mut rig, spec.transport, &mut tally);

    layers.insert("workload.stream_build_s", rig.stages.stream_build_s);
    layers.insert("access.discover_s", rig.stages.discover_s);
    layers.insert("access.index_build_s", rig.stages.index_build_s);
    layers.insert("access.index_entries", rig.stages.index_entries as f64);

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = layers
                .remove(name)
                .ok_or(format!("{name} was not measured"))?;
            Ok((name, unit, value))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let detail = vec![
        ("seed", seed as f64),
        (
            "cores",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
        ),
        ("cycles_per_segment", cycles as f64),
        ("spans", tracer.rec.spans.len() as f64),
        ("traced_ops", f64::from(tracer.rec.ops)),
    ];
    Ok(Report {
        tally,
        metrics,
        detail,
    })
}
