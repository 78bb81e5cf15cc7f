//! The load generator: N concurrent clients hammering one daemon.
//!
//! Each client dials its own connection, generates one deterministic
//! layered DAG (seeded by `seed + client`), and submits it `jobs`
//! times with a bounded pipeline window — mimicking a fleet of
//! analysis frontends resubmitting instances for different what-if
//! runs.
//!
//! Since PR 9 the clients are *resilient*: every submission carries an
//! idempotency key, reads run under a timeout, and both wire failures
//! (reset, stall, eviction) and retryable typed errors (`overloaded`,
//! `shutting-down`) trigger reconnect/resubmit under capped exponential
//! backoff instead of killing the run. Latency is measured from the
//! *first* send of a job to its terminal response, so retries fatten
//! the tail honestly rather than being dropped; retry/reconnect/give-up
//! counts are reported separately so the p50/p99 summary stays
//! interpretable.

use crate::client::{Client, ClientConfig};
use crate::net::Bind;
use crate::protocol::{kind, JobSpec, Request, Response};
use rigid_dag::gen::{self, TaskSampler};
use rigid_dag::{format, StableHasher};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Load-generation parameters.
#[derive(Clone, Debug)]
pub struct LoadgenOptions {
    /// Daemon address.
    pub bind: Bind,
    /// Concurrent client connections.
    pub clients: usize,
    /// Jobs submitted per client.
    pub jobs: usize,
    /// Approximate task count per generated instance.
    pub n: usize,
    /// Platform size of generated instances.
    pub procs: u32,
    /// Scheduler to request.
    pub scheduler: String,
    /// Base seed; client `i` uses `seed + i`.
    pub seed: u64,
    /// Pipeline window: in-flight jobs per client. Keep below the
    /// daemon's `queue_depth` or submissions bounce as `overloaded`
    /// (bounces are retried, but they cost round trips).
    pub window: usize,
    /// Send a `Shutdown` request after the run.
    pub shutdown: bool,
    /// Per-`recv` read timeout; a stalled daemon (or a slowloris'd
    /// wire) becomes a reconnect instead of a hang.
    pub read_timeout: Duration,
    /// Total attempts per job (first submission included) before the
    /// client gives up on it.
    pub max_attempts: u32,
    /// Base backoff before a retry; attempt `k` waits
    /// `base * 2^(k-1)`, capped at [`LoadgenOptions::backoff_cap`].
    pub backoff_base: Duration,
    /// Upper bound on any single backoff sleep.
    pub backoff_cap: Duration,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            bind: Bind::Unix(std::path::PathBuf::from("catbatch.sock")),
            clients: 4,
            jobs: 25,
            n: 100,
            procs: 16,
            scheduler: "catbatch".into(),
            seed: 42,
            window: 32,
            shutdown: false,
            read_timeout: Duration::from_secs(30),
            max_attempts: 8,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(500),
        }
    }
}

/// Aggregate loadgen outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadgenReport {
    /// Jobs submitted (logical jobs, not wire attempts).
    pub jobs: u64,
    /// Jobs answered with a result.
    pub ok: u64,
    /// Jobs answered with a terminal typed error.
    pub errors: u64,
    /// Jobs abandoned after `max_attempts` (not in `errors`).
    pub gave_up: u64,
    /// Resubmissions: wire-failure replays plus retryable bounces.
    pub retries: u64,
    /// Connections re-dialed after a reset, stall, or eviction.
    pub reconnects: u64,
    /// Wall-clock of the whole run, milliseconds.
    pub elapsed_ms: f64,
    /// `ok / elapsed`.
    pub jobs_per_sec: f64,
    /// Median per-job latency (first send → terminal), milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-job latency, milliseconds.
    pub p99_ms: f64,
}

/// One client's raw outcome.
struct ClientOutcome {
    ok: u64,
    errors: u64,
    gave_up: u64,
    retries: u64,
    reconnects: u64,
    latencies_ms: Vec<f64>,
}

/// One logical job moving through the retry machinery.
struct Flight {
    spec: JobSpec,
    /// Stamped at the first send; latency is measured from here across
    /// every retry.
    first_sent: Option<Instant>,
    /// Wire attempts so far.
    attempts: u32,
}

/// Quantile by the nearest-rank rule over a sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs the load, blocking until every client is done.
pub fn run(options: &LoadgenOptions) -> Result<LoadgenReport, String> {
    assert!(options.window >= 1, "window must be at least 1");
    assert!(options.max_attempts >= 1, "at least one attempt per job");
    let started = Instant::now();
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..options.clients)
            .map(|c| scope.spawn(move || one_client(c, options)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen client panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;

    if options.shutdown {
        let mut c = Client::connect(&options.bind)
            .map_err(|e| format!("shutdown connection failed: {e}"))?;
        c.call(&Request::Shutdown { flush: true })
            .map_err(|e| format!("shutdown request failed: {e}"))?;
    }

    let mut latencies: Vec<f64> = outcomes
        .iter()
        .flat_map(|o| o.latencies_ms.iter().copied())
        .collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let ok: u64 = outcomes.iter().map(|o| o.ok).sum();
    let errors: u64 = outcomes.iter().map(|o| o.errors).sum();
    Ok(LoadgenReport {
        jobs: (options.clients * options.jobs) as u64,
        ok,
        errors,
        gave_up: outcomes.iter().map(|o| o.gave_up).sum(),
        retries: outcomes.iter().map(|o| o.retries).sum(),
        reconnects: outcomes.iter().map(|o| o.reconnects).sum(),
        elapsed_ms,
        jobs_per_sec: if elapsed_ms > 0.0 {
            ok as f64 / (elapsed_ms / 1e3)
        } else {
            0.0
        },
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
    })
}

/// Idempotency key for one logical job: a stable hash of the run seed
/// and the job id, unique per logical job yet identical across every
/// resubmission of it.
fn idem_key(seed: u64, job_id: u64) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(seed);
    h.write_u64(job_id);
    h.finish()
}

fn backoff(options: &LoadgenOptions, attempt: u32) {
    let shift = attempt.saturating_sub(1).min(16);
    let sleep = options
        .backoff_base
        .saturating_mul(1u32 << shift)
        .min(options.backoff_cap);
    if !sleep.is_zero() {
        std::thread::sleep(sleep);
    }
}

fn one_client(index: usize, options: &LoadgenOptions) -> Result<ClientOutcome, String> {
    // ~n tasks: layered() draws each layer's width uniformly in
    // [1, width], so width = n/layers * 2 targets n in expectation.
    let layers = (options.n / 10).max(1);
    let width = (2 * options.n / layers).max(1);
    let inst = gen::layered(
        options.seed + index as u64,
        layers,
        width,
        &TaskSampler::default_mix(),
        options.procs,
    );
    let text = format::write(&inst);

    let mut outcome = ClientOutcome {
        ok: 0,
        errors: 0,
        gave_up: 0,
        retries: 0,
        reconnects: 0,
        latencies_ms: Vec::new(),
    };
    let mut queue: VecDeque<Flight> = (0..options.jobs)
        .map(|j| {
            // Unique across clients and (re)submissions of one run.
            let id = (index as u64) * 1_000_000 + j as u64 + 1;
            Flight {
                spec: JobSpec {
                    id,
                    scheduler: options.scheduler.clone(),
                    instance: text.clone(),
                    gantt: false,
                    trace: false,
                    idem: Some(idem_key(options.seed, id)),
                    deadline_ms: None,
                },
                first_sent: None,
                attempts: 0,
            }
        })
        .collect();
    let mut inflight: VecDeque<Flight> = VecDeque::new();
    let config = ClientConfig {
        read_timeout: Some(options.read_timeout),
    };
    let mut client: Option<Client> = None;
    let mut dial_failures = 0u32;

    // Moves every in-flight job back to the head of the send queue
    // (order preserved — idempotency keys make the replays safe).
    let requeue = |inflight: &mut VecDeque<Flight>,
                   queue: &mut VecDeque<Flight>,
                   outcome: &mut ClientOutcome| {
        while let Some(mut f) = inflight.pop_back() {
            f.attempts += 1;
            outcome.retries += 1;
            queue.push_front(f);
        }
    };

    while !(queue.is_empty() && inflight.is_empty()) {
        // Jobs whose attempt budget is spent are abandoned up front.
        while queue
            .front()
            .is_some_and(|f| f.attempts >= options.max_attempts)
        {
            queue.pop_front();
            outcome.gave_up += 1;
        }
        let conn = match &mut client {
            Some(c) => c,
            None => match Client::connect_with(&options.bind, config) {
                Ok(c) => {
                    dial_failures = 0;
                    client.insert(c)
                }
                Err(e) => {
                    dial_failures += 1;
                    if dial_failures > 30 {
                        return Err(format!(
                            "client {index}: daemon unreachable after {dial_failures} dials: {e}"
                        ));
                    }
                    backoff(options, dial_failures);
                    continue;
                }
            },
        };

        // Fill the pipeline window.
        let mut send_failed = false;
        while inflight.len() < options.window {
            let Some(mut flight) = queue.pop_front() else {
                break;
            };
            if flight.attempts >= options.max_attempts {
                outcome.gave_up += 1;
                continue;
            }
            flight.first_sent.get_or_insert_with(Instant::now);
            if conn.send(&Request::Submit(flight.spec.clone())).is_err() {
                queue.push_front(flight);
                send_failed = true;
                break;
            }
            inflight.push_back(flight);
        }
        if send_failed {
            client = None;
            outcome.reconnects += 1;
            requeue(&mut inflight, &mut queue, &mut outcome);
            continue;
        }
        if inflight.is_empty() {
            continue;
        }

        // Responses arrive strictly in submission order, so the front
        // of `inflight` owns the next frame — except an eviction
        // notice, which is unsolicited and voids the whole pipeline.
        match conn.recv() {
            Ok(Response::Error(err)) if err.kind == kind::EVICTED => {
                client = None;
                outcome.reconnects += 1;
                requeue(&mut inflight, &mut queue, &mut outcome);
            }
            Ok(resp) => {
                let mut flight = inflight
                    .pop_front()
                    .ok_or_else(|| format!("client {index}: response with nothing in flight"))?;
                let first_sent = flight.first_sent.expect("in-flight jobs have been sent");
                match resp {
                    Response::Result(_) => {
                        outcome.ok += 1;
                        outcome
                            .latencies_ms
                            .push(first_sent.elapsed().as_secs_f64() * 1e3);
                    }
                    Response::Error(err) if err.retryable => {
                        flight.attempts += 1;
                        outcome.retries += 1;
                        if flight.attempts >= options.max_attempts {
                            outcome.gave_up += 1;
                        } else {
                            backoff(options, flight.attempts);
                            queue.push_back(flight);
                        }
                    }
                    Response::Error(_) => {
                        outcome.errors += 1;
                        outcome
                            .latencies_ms
                            .push(first_sent.elapsed().as_secs_f64() * 1e3);
                    }
                    other => return Err(format!("client {index}: unexpected reply {other:?}")),
                }
            }
            Err(_) => {
                // Timeout, reset, torn frame: the connection is toast.
                client = None;
                outcome.reconnects += 1;
                requeue(&mut inflight, &mut queue, &mut outcome);
            }
        }
    }
    Ok(outcome)
}
