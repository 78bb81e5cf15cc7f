//! The daemon phase: an in-process `Daemon` (2 workers, journal on)
//! serving a seeded mix of small (~100-task) and large (~2000-task)
//! layered-DAG jobs over 2 connections, in bursts of two kinds.
//! Closed-loop bursts keep a fixed pipeline window full on each
//! connection (saturation throughput); open-loop bursts send on a seeded
//! Poisson schedule at a fixed rate and time each job from its due send
//! time (latency).

use crate::report::{median, percentile, Report};
use crate::trace::{Recorder, SpanId};
use crate::workload::{derive, layered_near, Workload};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use rigid_dag::format;
use rigid_dag::gen::seeded_rng;
use rigid_serve::protocol::{kind, read_frame, write_frame};
use rigid_serve::{
    run_one, Bind, Conn, Daemon, JobRecord, JobSpec, Request, Response, ServeJournal, ServeOptions,
};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Distinct small and large instances in the job pool.
const SMALL: usize = 48;
const LARGE: usize = 8;
/// One job in this many is large.
const LARGE_ONE_IN: u32 = 10;
/// Client connections, and the daemon's worker count.
const CONNECTIONS: usize = 2;
const WORKERS: usize = 2;
/// Closed-loop pipeline window per connection.
const WINDOW: usize = 8;
/// How long a connection waits for an overdue response before giving
/// up on every job still in flight.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// The distinct instances jobs are drawn from, with the answer
/// `run_one` gives for each.
pub struct Pool {
    specs: Vec<JobSpec>,
    /// Each request frame's body after `{"Submit":{"id":0`, so a job is
    /// sent without re-encoding its instance text.
    tails: Vec<String>,
    answers: Vec<Response>,
}

impl Pool {
    /// Generates the pool for `seed`. Returns it with the generation
    /// time in seconds (the rest is computing the expected answers).
    pub fn build<S: Workload>(seed: u64, report: &mut Report) -> (Pool, f64) {
        let t = Instant::now();
        let texts: Vec<String> = (0..SMALL + LARGE)
            .map(|i| {
                let inst = if i < SMALL {
                    layered_near(seed, &format!("serve-small-{i}"), 10, 100, 5)
                } else {
                    layered_near(seed, &format!("serve-large-{i}"), 200, 2000, 20)
                };
                format::write(&inst)
            })
            .collect();
        let gen_s = t.elapsed().as_secs_f64();
        let mut pool = Pool {
            specs: Vec::new(),
            tails: Vec::new(),
            answers: Vec::new(),
        };
        for text in texts {
            let spec = JobSpec {
                id: 0,
                scheduler: S::SERVE_NAME.to_string(),
                instance: text,
                gantt: false,
                trace: false,
                idem: None,
                deadline_ms: None,
            };
            let body = serde_json::to_string(&Request::Submit(spec.clone()))
                .expect("a job spec serializes");
            let tail = body
                .strip_prefix("{\"Submit\":{\"id\":0")
                .expect("request frames start with the job id")
                .to_string();
            let answer = run_one(&spec, &ServeOptions::default());
            report.check(matches!(answer, Response::Result(_)), || {
                format!("run_one failed on a pool instance: {answer:?}")
            });
            pool.specs.push(spec);
            pool.tails.push(tail);
            pool.answers.push(answer);
        }
        (pool, gen_s)
    }

    /// Draws the next job's instance.
    fn pick(rng: &mut impl Rng) -> usize {
        if rng.random_range(0..LARGE_ONE_IN) == 0 {
            SMALL + rng.random_range(0..LARGE)
        } else {
            rng.random_range(0..SMALL)
        }
    }

    fn expected(&self, pick: usize) -> &str {
        match &self.answers[pick] {
            Response::Result(r) => &r.makespan,
            _ => "",
        }
    }
}

/// Boots the daemon on a Unix socket and journal inside `dir`.
pub fn boot(dir: &Path, tag: &str) -> Result<Daemon, String> {
    Daemon::start(ServeOptions {
        bind: Bind::Unix(dir.join(format!("{tag}.sock"))),
        workers: WORKERS,
        journal: Some(dir.join(format!("{tag}.journal"))),
        ..ServeOptions::default()
    })
}

/// One framed client connection that can wait for a response with a
/// timeout without losing a partly received frame.
struct Wire {
    conn: Conn,
    inbox: Vec<u8>,
    outbox: Vec<u8>,
    chunk: Vec<u8>,
}

impl Wire {
    fn connect(bind: &Bind) -> std::io::Result<Wire> {
        Ok(Wire {
            conn: Conn::connect(bind)?,
            inbox: Vec::new(),
            outbox: Vec::new(),
            chunk: vec![0; 1 << 16],
        })
    }

    fn send(&mut self, id: u64, tail: &str) -> std::io::Result<()> {
        let head = format!("{{\"Submit\":{{\"id\":{id}");
        let len = u32::try_from(head.len() + tail.len()).expect("frames are far below 4 GiB");
        self.outbox.clear();
        self.outbox.extend_from_slice(&len.to_be_bytes());
        self.outbox.extend_from_slice(head.as_bytes());
        self.outbox.extend_from_slice(tail.as_bytes());
        self.conn.write_all(&self.outbox)
    }

    /// The next response body, or `None` if none completed within `wait`.
    fn recv(&mut self, wait: Duration) -> std::io::Result<Option<Vec<u8>>> {
        let deadline = Instant::now() + wait;
        loop {
            if self.inbox.len() >= 4 {
                let len = u32::from_be_bytes(self.inbox[..4].try_into().expect("4 bytes")) as usize;
                if self.inbox.len() >= 4 + len {
                    let body = self.inbox[4..4 + len].to_vec();
                    self.inbox.drain(..4 + len);
                    return Ok(Some(body));
                }
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            // `set_read_timeout` rejects a zero duration.
            self.conn
                .set_read_timeout(Some(left.max(Duration::from_micros(50))))?;
            match self.conn.read(&mut self.chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.inbox.extend_from_slice(&self.chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(None)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// A job in flight on one connection.
struct Flight {
    id: u64,
    pick: usize,
    due: Instant,
}

/// Outcomes of one phase on one or more connections.
#[derive(Default)]
struct Tally {
    jobs: u64,
    ok: u64,
    /// Closed loop: successful responses received by the burst deadline.
    in_window: u64,
    failed: u64,
    overloaded: u64,
    retryable: u64,
    latencies_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// `(job id, due, answered)` of every completed job.
    spans: Vec<(u64, Instant, Instant)>,
    problems: Vec<String>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.jobs += other.jobs;
        self.ok += other.ok;
        self.in_window += other.in_window;
        self.failed += other.failed;
        self.overloaded += other.overloaded;
        self.retryable += other.retryable;
        self.latencies_ms.extend(other.latencies_ms);
        self.late_ms.extend(other.late_ms);
        self.spans.extend(other.spans);
        self.problems.extend(other.problems);
    }

    /// Checks one response against the pool's answer for its job.
    fn settle(&mut self, pool: &Pool, flight: &Flight, body: &[u8]) {
        let done = Instant::now();
        let resp = std::str::from_utf8(body)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str::<Response>(text).map_err(|e| e.to_string()));
        let problem = match resp {
            Ok(Response::Result(r))
                if r.id == flight.id && r.makespan == pool.expected(flight.pick) =>
            {
                self.ok += 1;
                self.latencies_ms
                    .push(done.duration_since(flight.due).as_secs_f64() * 1e3);
                self.spans.push((flight.id, flight.due, done));
                return;
            }
            Ok(Response::Result(r)) => format!(
                "job {} answered as job {} with makespan {} (expected {})",
                flight.id,
                r.id,
                r.makespan,
                pool.expected(flight.pick)
            ),
            Ok(Response::Error(e)) => {
                self.overloaded += u64::from(e.kind == kind::OVERLOADED);
                self.retryable += u64::from(e.retryable);
                format!("job {}: {} ({})", flight.id, e.kind, e.message)
            }
            Ok(other) => format!("job {}: unexpected reply {other:?}", flight.id),
            Err(e) => format!("job {}: unreadable reply: {e}", flight.id),
        };
        self.failed += 1;
        if self.problems.len() < 5 {
            self.problems.push(problem);
        }
    }

    fn lost(&mut self, jobs: usize, why: String) {
        self.failed += jobs as u64;
        self.problems.push(why);
    }
}

/// One client connection and its stream of job picks. A connection
/// that fails stays failed; the jobs it can no longer send count as
/// failed.
struct Client {
    wire: Result<Wire, String>,
    rng: ChaCha8Rng,
}

impl Client {
    fn broken(&mut self, why: String) {
        self.wire = Err(why);
    }
}

/// Keeps `WINDOW` jobs in flight on one connection until `deadline`,
/// then drains. Only responses received by the deadline count towards
/// throughput (`in_window`).
fn closed_burst(client: &mut Client, pool: &Pool, deadline: Instant, ids: &AtomicU64) -> Tally {
    let mut tally = Tally::default();
    let wire = match &mut client.wire {
        Ok(w) => w,
        Err(e) => {
            tally.lost(1, format!("connection unusable: {e}"));
            return tally;
        }
    };
    let mut inflight: VecDeque<Flight> = VecDeque::new();
    let mut failure = None;
    loop {
        while failure.is_none() && inflight.len() < WINDOW && Instant::now() < deadline {
            let pick = Pool::pick(&mut client.rng);
            let id = ids.fetch_add(1, Ordering::Relaxed);
            match wire.send(id, &pool.tails[pick]) {
                Ok(()) => {
                    tally.jobs += 1;
                    inflight.push_back(Flight {
                        id,
                        pick,
                        due: Instant::now(),
                    });
                }
                Err(e) => failure = Some(format!("send failed: {e}")),
            }
        }
        let Some(flight) = inflight.front() else {
            break;
        };
        match wire.recv(RESPONSE_TIMEOUT) {
            Ok(Some(body)) => {
                let before = tally.ok;
                tally.settle(pool, flight, &body);
                if Instant::now() <= deadline {
                    tally.in_window += tally.ok - before;
                }
                inflight.pop_front();
            }
            Ok(None) => {
                failure = Some("no response within the timeout".into());
                break;
            }
            Err(e) => {
                failure = Some(format!("receive failed: {e}"));
                break;
            }
        }
    }
    if let Some(why) = failure {
        tally.lost(inflight.len().max(1), why.clone());
        client.broken(why);
    }
    tally
}

/// Sends `schedule` (`(due offset s, pick, job id)`) on one connection
/// at its due times, whatever the responses do, times each job from its
/// due time, and drains. `inflight_now` counts jobs sent and unanswered
/// across connections; `inflight_max` keeps its peak.
fn open_burst(
    client: &mut Client,
    pool: &Pool,
    schedule: &[(f64, usize, u64)],
    start: Instant,
    inflight_now: &AtomicUsize,
    inflight_max: &AtomicUsize,
) -> Tally {
    let mut tally = Tally::default();
    let wire = match &mut client.wire {
        Ok(w) => w,
        Err(e) => {
            tally.lost(schedule.len().max(1), format!("connection unusable: {e}"));
            return tally;
        }
    };
    let due = |i: usize| start + Duration::from_secs_f64(schedule[i].0);
    let mut next = 0;
    let mut inflight: VecDeque<Flight> = VecDeque::new();
    let mut last_answer = Instant::now();
    let mut failure = None;
    while failure.is_none() {
        while next < schedule.len() && due(next) <= Instant::now() {
            let (_, pick, id) = schedule[next];
            let sent = Instant::now();
            if let Err(e) = wire.send(id, &pool.tails[pick]) {
                failure = Some(format!("send failed: {e}"));
                break;
            }
            tally.jobs += 1;
            tally
                .late_ms
                .push(sent.duration_since(due(next)).as_secs_f64() * 1e3);
            let now = inflight_now.fetch_add(1, Ordering::SeqCst) + 1;
            inflight_max.fetch_max(now, Ordering::SeqCst);
            inflight.push_back(Flight {
                id,
                pick,
                due: due(next),
            });
            next += 1;
        }
        if failure.is_some() || (next == schedule.len() && inflight.is_empty()) {
            break;
        }
        let until_due = if next < schedule.len() {
            due(next).saturating_duration_since(Instant::now())
        } else {
            RESPONSE_TIMEOUT
        };
        let Some(flight) = inflight.front() else {
            std::thread::sleep(until_due);
            continue;
        };
        match wire.recv(until_due) {
            Ok(Some(body)) => {
                tally.settle(pool, flight, &body);
                inflight.pop_front();
                inflight_now.fetch_sub(1, Ordering::SeqCst);
                last_answer = Instant::now();
            }
            Ok(None) if last_answer.elapsed() < RESPONSE_TIMEOUT => {}
            Ok(None) => failure = Some("no response within the timeout".into()),
            Err(e) => failure = Some(format!("receive failed: {e}")),
        }
    }
    if let Some(why) = failure {
        inflight_now.fetch_sub(inflight.len(), Ordering::SeqCst);
        tally.lost(schedule.len() - next + inflight.len(), why.clone());
        client.broken(why);
    }
    tally
}

/// What the serve phase measured.
pub struct ServeOutcome {
    /// Closed-loop jobs answered per second of saturated time, and the
    /// number of jobs behind it.
    pub jobs_per_s: f64,
    pub closed_jobs: u64,
    /// Open-loop latency from due time (ms) and its sample count.
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub open_samples: usize,
    /// Every job the daemon answered with a schedule.
    pub answered: u64,
    /// Open-loop generator lateness p99 (ms) and peak jobs in flight.
    pub late_p99_ms: f64,
    pub inflight_max: usize,
    /// Responses that were `overloaded`, and retryable errors of any kind.
    pub overloaded: u64,
    pub retryable: u64,
}

/// The daemon's load: two persistent connections driven in bursts — a
/// closed loop that keeps a fixed pipeline window full (saturation
/// throughput), and an open loop that sends on a seeded Poisson schedule
/// at a fixed rate (latency from each job's due time).
pub struct ServeLoad<'a> {
    pool: &'a Pool,
    clients: Vec<Client>,
    arrivals: ChaCha8Rng,
    rate: f64,
    ids: AtomicU64,
    closed: Tally,
    closed_secs: f64,
    open: Tally,
    inflight_max: usize,
}

impl<'a> ServeLoad<'a> {
    /// Dials the daemon at `bind` on every connection.
    pub fn connect(bind: &Bind, pool: &'a Pool, seed: u64, rate: f64) -> Self {
        let clients = (0..CONNECTIONS)
            .map(|c| Client {
                wire: Wire::connect(bind).map_err(|e| format!("cannot connect: {e}")),
                rng: seeded_rng(derive(seed, &format!("closed-{c}"))),
            })
            .collect();
        ServeLoad {
            pool,
            clients,
            arrivals: seeded_rng(derive(seed, "open-arrivals")),
            rate,
            ids: AtomicU64::new(1),
            closed: Tally::default(),
            closed_secs: 0.0,
            open: Tally::default(),
            inflight_max: 0,
        }
    }

    /// One closed-loop burst of `burst` saturated time.
    pub fn closed(&mut self, burst: Duration) {
        let (pool, ids) = (self.pool, &self.ids);
        let deadline = Instant::now() + burst;
        let tallies: Vec<Tally> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| scope.spawn(move || closed_burst(client, pool, deadline, ids)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("closed-loop client panicked"))
                .collect()
        });
        for t in tallies {
            self.closed.merge(t);
        }
        self.closed_secs += burst.as_secs_f64();
    }

    /// One open-loop burst: the next `burst` of the Poisson schedule,
    /// dealt round-robin to the connections. Completed jobs become
    /// `serve.job` spans under the span in `trace`, if given.
    pub fn open(&mut self, burst: Duration, trace: Option<(&Recorder, SpanId)>) {
        let mut schedules: Vec<Vec<(f64, usize, u64)>> = vec![Vec::new(); CONNECTIONS];
        let mut at = 0.0;
        for i in 0.. {
            let u: f64 = self.arrivals.random_range(0.0..1.0);
            at += -(1.0 - u).ln() / self.rate;
            if at >= burst.as_secs_f64() {
                break;
            }
            let id = self.ids.fetch_add(1, Ordering::Relaxed);
            schedules[i % CONNECTIONS].push((at, Pool::pick(&mut self.arrivals), id));
        }
        let pool = self.pool;
        let inflight_now = AtomicUsize::new(0);
        let inflight_max = AtomicUsize::new(0);
        let start = Instant::now() + Duration::from_millis(5);
        let tallies: Vec<Tally> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&schedules)
                .map(|(client, schedule)| {
                    let (now, max) = (&inflight_now, &inflight_max);
                    scope.spawn(move || open_burst(client, pool, schedule, start, now, max))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("open-loop client panicked"))
                .collect()
        });
        for mut t in tallies {
            if let Some((rec, parent)) = trace {
                for (id, due, done) in t.spans.drain(..) {
                    rec.record("serve.job", due, done, Some(parent), Some(id));
                }
            }
            self.open.merge(t);
        }
        self.inflight_max = self.inflight_max.max(inflight_max.load(Ordering::SeqCst));
    }

    /// Counts every job as an operation and summarizes the bursts.
    pub fn finish(self, report: &mut Report) -> ServeOutcome {
        for (tally, phase) in [(&self.closed, "closed-loop"), (&self.open, "open-loop")] {
            report.ops(tally.jobs, tally.failed, &format!("serve {phase} jobs"));
            for p in &tally.problems {
                report.note(format!("serve {phase}: {p}"));
            }
        }
        let sorted = |mut v: Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
            v
        };
        let lat = sorted(self.open.latencies_ms);
        let late = sorted(self.open.late_ms);
        ServeOutcome {
            jobs_per_s: self.closed.in_window as f64 / self.closed_secs,
            closed_jobs: self.closed.in_window,
            p50_ms: percentile(&lat, 0.50),
            p99_ms: percentile(&lat, 0.99),
            open_samples: lat.len(),
            answered: self.closed.ok + self.open.ok,
            late_p99_ms: percentile(&late, 0.99),
            inflight_max: self.inflight_max,
            overloaded: self.closed.overloaded + self.open.overloaded,
            retryable: self.closed.retryable + self.open.retryable,
        }
    }
}

/// Per-call costs of the daemon's building blocks, timed by direct calls.
pub struct ServeProbes {
    pub parse_small_us: f64,
    pub parse_large_us: f64,
    pub run_one_small_us: f64,
    pub run_one_large_us: f64,
    /// Median over the job mix of `run_one`, milliseconds.
    pub run_one_mix_ms: f64,
    pub encode_us: f64,
    pub decode_us: f64,
    pub journal_record_us: f64,
}

/// Median wall of `reps` calls of `f`, microseconds.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let walls: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&walls)
}

/// Times `format::parse`, `run_one`, the frame codec and the serve
/// journal's record-plus-flush, checking each call's result.
pub fn probes(pool: &Pool, seed: u64, dir: &Path, report: &mut Report) -> ServeProbes {
    let (mut parse, mut run) = (Vec::new(), Vec::new());
    let (mut calls, mut wrong) = (0u64, 0u64);
    for (i, spec) in pool.specs.iter().enumerate() {
        let reps = if i < SMALL { 5 } else { 3 };
        parse.push(time_us(reps, || {
            calls += 1;
            wrong += u64::from(std::hint::black_box(format::parse(&spec.instance)).is_err());
        }));
        run.push(time_us(reps, || {
            calls += 1;
            wrong += u64::from(run_one(spec, &ServeOptions::default()) != pool.answers[i]);
        }));
    }
    // The codec: a request frame plus its response frame, both ways.
    let mut rng = seeded_rng(derive(seed, "probe-mix"));
    let sample: Vec<usize> = (0..200).map(|_| Pool::pick(&mut rng)).collect();
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for &pick in &sample {
        let request = Request::Submit(pool.specs[pick].clone());
        let mut wire = Vec::new();
        enc.push(time_us(1, || {
            wire.clear();
            write_frame(&mut wire, &request).expect("frames encode into memory");
            write_frame(&mut wire, &pool.answers[pick]).expect("frames encode into memory");
        }));
        dec.push(time_us(1, || {
            calls += 1;
            let mut input = wire.as_slice();
            let mut frame = || -> Option<String> {
                String::from_utf8(read_frame(&mut input, u32::MAX, &|| false).ok()?).ok()
            };
            let req = frame().and_then(|text| serde_json::from_str::<Request>(&text).ok());
            let resp = frame().and_then(|text| serde_json::from_str::<Response>(&text).ok());
            wrong += u64::from(
                req.as_ref() != Some(&request) || resp.as_ref() != Some(&pool.answers[pick]),
            );
        }));
    }
    report.ops(
        calls,
        wrong,
        "serve probes (parse, run_one, frame round trips)",
    );
    let mix_ms = median(&sample.iter().map(|&p| run[p] / 1e3).collect::<Vec<_>>());
    // The journal: record a job's two records, then wait until durable.
    let journal_record_us = match ServeJournal::open(&dir.join("probe-serve.journal")) {
        Ok((journal, _)) => {
            let tx = journal.sender();
            let spec = &pool.specs[0];
            let us = time_us(50, || {
                tx.record(JobRecord::Submitted {
                    id: 1,
                    scheduler: spec.scheduler.clone(),
                    fingerprint: 0,
                    instance: spec.instance.clone(),
                    idem: None,
                });
                tx.record(JobRecord::Failed {
                    id: 1,
                    scheduler: spec.scheduler.clone(),
                    kind: "probe".into(),
                });
                tx.flush();
            });
            journal.close();
            us
        }
        Err(e) => {
            report.check(false, || format!("cannot open a probe serve journal: {e}"));
            0.0
        }
    };
    ServeProbes {
        parse_small_us: median(&parse[..SMALL]),
        parse_large_us: median(&parse[SMALL..]),
        run_one_small_us: median(&run[..SMALL]),
        run_one_large_us: median(&run[SMALL..]),
        run_one_mix_ms: mix_ms,
        encode_us: median(&enc),
        decode_us: median(&dec),
        journal_record_us,
    }
}
