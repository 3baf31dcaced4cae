//! A minimal worker pool executing requests against pinned snapshots.
//!
//! Nothing on the request path uses it: the network front end runs an
//! admitted query on the session thread that read it, because the hand-off
//! to a pool thread and back cost more than the bounded query it carried.
//! The pool stays only because the `benchmark/` package measures that very
//! hand-off (`serve.pool_roundtrip_us`); it goes when that metric does.
//!
//! Each worker pins the **current** snapshot per request (so long-lived
//! workers pick up new versions as the writer publishes them) and replies
//! through a per-request channel. The workspace is dependency-free,
//! so the queue is a `std::sync::mpsc` channel shared behind a mutex — job
//! *pickup* is serialized, execution is parallel, which is the right
//! trade-off for queries that cost orders of magnitude more than a channel
//! receive.

use crate::server::Server;
use bgpq_engine::{BgpqError, QueryRequest, QueryResponse};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;

/// The outcome a worker sends back for one request.
pub type PoolResult = Result<QueryResponse, BgpqError>;

struct Job {
    request: QueryRequest,
    reply: mpsc::Sender<PoolResult>,
}

/// A fixed-size pool of worker threads serving queries from a shared
/// [`Server`].
///
/// ```
/// use bgpq_engine::{AccessConstraint, AccessSchema, QueryRequest};
/// use bgpq_graph::{GraphBuilder, Value};
/// use bgpq_pattern::{PatternBuilder, Predicate};
/// use bgpq_serve::{Server, WorkerPool};
/// use std::sync::Arc;
///
/// let mut b = GraphBuilder::new();
/// let y = b.add_node("year", Value::Int(2012));
/// let m = b.add_node("movie", Value::str("Argo"));
/// b.add_edge(y, m).unwrap();
/// let graph = b.build();
/// let year = graph.interner().get("year").unwrap();
/// let movie = graph.interner().get("movie").unwrap();
/// let schema = AccessSchema::from_constraints([
///     AccessConstraint::global(year, 10),
///     AccessConstraint::unary(year, movie, 5),
/// ]);
/// let server = Arc::new(Server::new(graph, &schema));
///
/// let pool = WorkerPool::new(Arc::clone(&server), 2);
/// let mut pb = PatternBuilder::with_interner(server.snapshot().graph().interner().clone());
/// let pm = pb.node("movie", Predicate::always());
/// let py = pb.node("year", Predicate::always());
/// pb.edge(py, pm);
/// let reply = pool.submit(QueryRequest::build(pb.build()).finish());
/// let response = reply.recv().unwrap().unwrap();
/// assert_eq!(response.answer.len(), 1);
/// assert_eq!(pool.shutdown(), 1);
/// ```
pub struct WorkerPool {
    jobs: Option<mpsc::Sender<Job>>,
    workers: Vec<thread::JoinHandle<u64>>,
}

impl WorkerPool {
    /// Spawns `workers` threads serving queries from `server`.
    ///
    /// # Panics
    /// Panics when `workers` is zero.
    pub fn new(server: Arc<Server>, workers: usize) -> Self {
        assert!(workers > 0, "a pool needs at least one worker");
        let (jobs, queue) = mpsc::channel::<Job>();
        let queue = Arc::new(Mutex::new(queue));
        let workers = (0..workers)
            .map(|_| {
                let server = Arc::clone(&server);
                let queue = Arc::clone(&queue);
                thread::spawn(move || {
                    let mut served = 0u64;
                    loop {
                        // Hold the queue lock only for the receive: the next
                        // worker can pick a job up while this one executes.
                        let job = queue.lock().expect("job queue poisoned").recv();
                        let Ok(job) = job else {
                            break; // all senders dropped: shutdown
                        };
                        let result = server.execute(&job.request);
                        served += 1;
                        // The caller may have dropped its receiver.
                        let _ = job.reply.send(result);
                    }
                    served
                })
            })
            .collect();
        WorkerPool {
            jobs: Some(jobs),
            workers,
        }
    }

    /// Enqueues one request; the returned channel yields its result. Each
    /// request is executed against the snapshot that is current when a
    /// worker picks it up.
    pub fn submit(&self, request: QueryRequest) -> mpsc::Receiver<PoolResult> {
        let (reply, result) = mpsc::channel();
        self.jobs
            .as_ref()
            .expect("pool is shutting down")
            .send(Job { request, reply })
            .expect("workers outlive the job sender");
        result
    }

    /// Drains the queue, joins every worker and returns the total number of
    /// requests served.
    pub fn shutdown(mut self) -> u64 {
        self.jobs.take();
        self.workers
            .drain(..)
            .map(|w| w.join().expect("worker panicked"))
            .sum()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.jobs.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}
