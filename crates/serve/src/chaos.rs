//! Seeded network fault injection: an in-process chaos proxy.
//!
//! The crash-chaos harness (PR 5) attacks the daemon's *process*; this
//! module attacks its *wire*. [`ChaosProxy`] sits between a client and
//! the daemon, relaying both directions of every connection while
//! injecting faults from a typed [`ChaosPlan`]: fixed/random delays,
//! torn writes at arbitrary byte boundaries (frames split mid-
//! length-prefix), slowloris trickle, connection resets at planned byte
//! offsets, and optional byte corruption.
//!
//! ## Determinism contract
//!
//! Same contract as `rigid-faults`: every fault decision is drawn from
//! a ChaCha8 stream seeded by `(seed, key, direction)`, and decisions
//! are planned in **byte-offset space** — segment boundaries, the reset
//! offset, and per-byte corruption draws depend only on how many bytes
//! have flowed, never on how the OS chunked the reads. The key is a
//! digest of the connection's first client → daemon frame (a 4-byte
//! big-endian length and its body, which carries the first request and
//! its idempotency key) and of how many earlier connections opened with
//! that same frame (a client's reconnects that resend the request they
//! lost), so a connection's faults do not depend on the order in which
//! concurrent clients are accepted. The proxy holds that frame back
//! until it has arrived whole, then relays it through the channel from
//! offset 0; the daemon sends nothing before it. Replaying the same
//! seed against the same byte streams injects byte-identical faults
//! (only wall-clock pauses vary), which is what lets the e2e suite
//! sweep plans and still assert exact outcomes.

use crate::net::{Bind, Conn, Listener};
use crate::protocol::MAX_FRAME;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rigid_dag::StableHasher;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Relay buffer size; also the default segment length when no tearing
/// or trickling is planned.
const RELAY_BUF: usize = 4096;

/// Poll granularity for the stop flag in the accept and relay loops.
const POLL: Duration = Duration::from_millis(10);

/// Which side of the proxied connection a fault stream drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    /// Client → daemon bytes (requests).
    ClientToServer,
    /// Daemon → client bytes (responses).
    ServerToClient,
}

impl Dir {
    fn tag(self) -> u64 {
        match self {
            Dir::ClientToServer => 0xc2,
            Dir::ServerToClient => 0x52c,
        }
    }
}

/// A typed fault plan. Every field is optional; the default plan is a
/// transparent relay. Parsed from / rendered to a compact spec string
/// (the `--plan` argument of `catbatch chaos-proxy`):
///
/// ```text
/// delay=1..5ms,tear=16,trickle=64/20ms,reset=2048..8192,corrupt=500
/// ```
///
/// * `delay=<lo>[..<hi>]ms` — pause after each completed segment, drawn
///   uniformly from `[lo, hi]` milliseconds.
/// * `tear=<max>` — torn writes: segment lengths drawn uniformly from
///   `[1, max]` bytes, so frames split at arbitrary boundaries
///   (including mid-length-prefix).
/// * `trickle=<bytes>/<ms>` — slowloris: at most `bytes` per segment
///   with a fixed `ms` pause after each (composes with `tear` and
///   `delay`; the tightest segment bound wins, pauses add).
/// * `reset=<lo>[..<hi>]` — connection reset: a byte offset is drawn
///   per (connection, direction) from `[lo, hi]`; when that direction
///   has relayed that many bytes, both sockets are shut down.
/// * `corrupt=<ppm>` — each relayed byte is XOR-flipped in one random
///   bit with probability `ppm / 1_000_000`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Post-segment pause range in milliseconds, inclusive.
    pub delay_ms: Option<(u64, u64)>,
    /// Maximum torn-write segment length in bytes (draws are `1..=max`).
    pub tear_max: Option<usize>,
    /// Slowloris: `(bytes per segment, fixed pause ms per segment)`.
    pub trickle: Option<(usize, u64)>,
    /// Reset byte-offset range, inclusive; drawn per (conn, direction).
    pub reset_offset: Option<(u64, u64)>,
    /// Per-byte corruption probability in parts per million.
    pub corrupt_ppm: Option<u32>,
}

/// A malformed `--plan` spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanParseError(pub String);

impl std::fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad chaos plan: {}", self.0)
    }
}

impl std::error::Error for PlanParseError {}

fn parse_range(s: &str, what: &str) -> Result<(u64, u64), PlanParseError> {
    let (lo, hi) = match s.split_once("..") {
        Some((a, b)) => (a, b),
        None => (s, s),
    };
    let lo: u64 = lo
        .parse()
        .map_err(|_| PlanParseError(format!("{what}: expected integer, got `{lo}`")))?;
    let hi: u64 = hi
        .parse()
        .map_err(|_| PlanParseError(format!("{what}: expected integer, got `{hi}`")))?;
    if hi < lo {
        return Err(PlanParseError(format!("{what}: empty range {lo}..{hi}")));
    }
    Ok((lo, hi))
}

impl ChaosPlan {
    /// Parses the compact spec string (see the type docs for the
    /// grammar). The empty string is the transparent plan.
    pub fn parse(spec: &str) -> Result<ChaosPlan, PlanParseError> {
        let mut plan = ChaosPlan::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| PlanParseError(format!("`{part}` is not key=value")))?;
            match key {
                "delay" => {
                    let value = value
                        .strip_suffix("ms")
                        .ok_or_else(|| PlanParseError(format!("delay `{value}` must end in ms")))?;
                    plan.delay_ms = Some(parse_range(value, "delay")?);
                }
                "tear" => {
                    let max: usize = value.parse().map_err(|_| {
                        PlanParseError(format!("tear: expected integer, got `{value}`"))
                    })?;
                    if max == 0 {
                        return Err(PlanParseError("tear=0 is not a segment".into()));
                    }
                    plan.tear_max = Some(max);
                }
                "trickle" => {
                    let (bytes, tick) = value.split_once('/').ok_or_else(|| {
                        PlanParseError(format!("trickle `{value}` must be bytes/ms"))
                    })?;
                    let tick = tick.strip_suffix("ms").ok_or_else(|| {
                        PlanParseError(format!("trickle tick `{tick}` must end in ms"))
                    })?;
                    let bytes: usize = bytes.parse().map_err(|_| {
                        PlanParseError(format!("trickle: bad byte count `{bytes}`"))
                    })?;
                    let tick: u64 = tick
                        .parse()
                        .map_err(|_| PlanParseError(format!("trickle: bad tick `{tick}`")))?;
                    if bytes == 0 {
                        return Err(PlanParseError("trickle=0/.. never progresses".into()));
                    }
                    plan.trickle = Some((bytes, tick));
                }
                "reset" => plan.reset_offset = Some(parse_range(value, "reset")?),
                "corrupt" => {
                    let ppm: u32 = value.parse().map_err(|_| {
                        PlanParseError(format!("corrupt: expected ppm integer, got `{value}`"))
                    })?;
                    if ppm > 1_000_000 {
                        return Err(PlanParseError(format!(
                            "corrupt={ppm} exceeds 1_000_000 ppm"
                        )));
                    }
                    plan.corrupt_ppm = Some(ppm);
                }
                other => {
                    return Err(PlanParseError(format!(
                        "unknown key `{other}` (expected delay/tear/trickle/reset/corrupt)"
                    )))
                }
            }
        }
        Ok(plan)
    }
}

impl std::fmt::Display for ChaosPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if let Some((lo, hi)) = self.delay_ms {
            if lo == hi {
                parts.push(format!("delay={lo}ms"));
            } else {
                parts.push(format!("delay={lo}..{hi}ms"));
            }
        }
        if let Some(max) = self.tear_max {
            parts.push(format!("tear={max}"));
        }
        if let Some((bytes, tick)) = self.trickle {
            parts.push(format!("trickle={bytes}/{tick}ms"));
        }
        if let Some((lo, hi)) = self.reset_offset {
            if lo == hi {
                parts.push(format!("reset={lo}"));
            } else {
                parts.push(format!("reset={lo}..{hi}"));
            }
        }
        if let Some(ppm) = self.corrupt_ppm {
            parts.push(format!("corrupt={ppm}"));
        }
        write!(f, "{}", parts.join(","))
    }
}

/// What one relay direction should do with the next stretch of bytes.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum SegmentPlan {
    /// Emit this many bytes, then pause this long.
    Emit {
        /// Bytes to write before the pause (≥ 1).
        len: usize,
        /// Pause after the write; zero when the segment is still open.
        pause_ms: u64,
    },
    /// The planned reset offset is reached: tear the connection down.
    Reset,
}

/// The fault schedule for one (connection, direction): all RNG draws
/// happen here, in byte-offset order, so the schedule is a pure
/// function of `(seed, key, dir, bytes so far)`, where `key` is the
/// connection's [`FrameKeys::key`].
pub(crate) struct ChaosChannel {
    plan: ChaosPlan,
    rng: ChaCha8Rng,
    /// Bytes emitted so far on this direction.
    offset: u64,
    /// Bytes left in the currently-open segment (0 = draw a new one).
    seg_left: usize,
    /// Pause owed when the open segment completes.
    seg_pause_ms: u64,
    /// Absolute byte offset at which to reset, if planned.
    reset_at: Option<u64>,
    /// `corrupt_ppm` scaled to a u32 threshold for branch-free draws.
    corrupt_threshold: u32,
}

fn substream_seed(seed: u64, key: u64, dir: Dir) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(seed);
    h.write_u64(key);
    h.write_u64(dir.tag());
    h.finish()
}

/// The keys of the proxy's connections, one per connection, from its
/// first client → daemon frame.
#[derive(Debug, Default)]
pub(crate) struct FrameKeys {
    /// How many connections have opened with each frame digest.
    seen: Mutex<HashMap<u64, u64>>,
}

impl FrameKeys {
    /// A digest of `frame` and of how many earlier connections opened
    /// with the same frame. A client that reconnects and resends the
    /// request it lost thus draws a fresh schedule instead of replaying
    /// the one that just reset it, and no key depends on the
    /// connections of clients that open with other frames.
    pub(crate) fn key(&self, frame: &[u8]) -> u64 {
        let mut h = StableHasher::new();
        h.write_bytes(frame);
        let digest = h.finish();
        let repeat = {
            let mut seen = self.seen.lock().expect("frame key table poisoned");
            let count = seen.entry(digest).or_insert(0);
            *count += 1;
            *count - 1
        };
        let mut h = StableHasher::new();
        h.write_u64(digest);
        h.write_u64(repeat);
        h.finish()
    }
}

fn draw_range(rng: &mut ChaCha8Rng, (lo, hi): (u64, u64)) -> u64 {
    lo + rng.next_u64() % (hi - lo + 1)
}

impl ChaosChannel {
    pub(crate) fn new(plan: ChaosPlan, seed: u64, key: u64, dir: Dir) -> ChaosChannel {
        let mut rng = ChaCha8Rng::seed_from_u64(substream_seed(seed, key, dir));
        let reset_at = plan.reset_offset.map(|range| draw_range(&mut rng, range));
        let corrupt_threshold = plan
            .corrupt_ppm
            .map(|ppm| ((ppm as u64) * (u32::MAX as u64) / 1_000_000) as u32)
            .unwrap_or(0);
        ChaosChannel {
            plan,
            rng,
            offset: 0,
            seg_left: 0,
            seg_pause_ms: 0,
            reset_at,
            corrupt_threshold,
        }
    }

    /// Draws the next segment's length and pause. Draw order is fixed
    /// (length range first, delay second) so schedules replay exactly.
    fn draw_segment(&mut self) {
        let mut len = RELAY_BUF;
        if let Some(max) = self.plan.tear_max {
            len = len.min(draw_range(&mut self.rng, (1, max as u64)) as usize);
        }
        let mut pause = 0;
        if let Some((bytes, tick)) = self.plan.trickle {
            len = len.min(bytes);
            pause += tick;
        }
        if let Some(range) = self.plan.delay_ms {
            pause += draw_range(&mut self.rng, range);
        }
        self.seg_left = len;
        self.seg_pause_ms = pause;
    }

    /// Plans what to do with the next `available` buffered bytes
    /// (`available ≥ 1`). Only consumes RNG draws at segment
    /// boundaries, which sit at fixed byte offsets — callers may
    /// present the stream in any chunking and get the same schedule.
    pub(crate) fn plan_segment(&mut self, available: usize) -> SegmentPlan {
        if let Some(reset_at) = self.reset_at {
            if self.offset >= reset_at {
                return SegmentPlan::Reset;
            }
        }
        if self.seg_left == 0 {
            self.draw_segment();
        }
        let mut len = self.seg_left.min(available);
        if let Some(reset_at) = self.reset_at {
            len = len.min((reset_at - self.offset) as usize);
            if len == 0 {
                return SegmentPlan::Reset;
            }
        }
        self.offset += len as u64;
        self.seg_left -= len;
        let pause_ms = if self.seg_left == 0 {
            std::mem::replace(&mut self.seg_pause_ms, 0)
        } else {
            0
        };
        SegmentPlan::Emit { len, pause_ms }
    }

    /// Applies per-byte corruption in place to a segment about to be
    /// emitted. Must be called exactly once per emitted segment, in
    /// emission order (the draws are part of the byte-offset schedule).
    /// Returns how many bytes were flipped.
    pub(crate) fn corrupt(&mut self, segment: &mut [u8]) -> u64 {
        if self.corrupt_threshold == 0 {
            return 0;
        }
        let mut flipped = 0;
        for byte in segment {
            if self.rng.next_u32() < self.corrupt_threshold {
                *byte ^= 1 << (self.rng.next_u32() % 8);
                flipped += 1;
            }
        }
        flipped
    }
}

/// Counters the proxy accumulates; all totals across all connections.
#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    resets: AtomicU64,
    bytes_up: AtomicU64,
    bytes_down: AtomicU64,
    corrupted: AtomicU64,
    upstream_failures: AtomicU64,
}

/// What the proxy did over its lifetime, returned by
/// [`ChaosProxyHandle::stop`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProxyReport {
    /// Connections accepted (and dialed upstream).
    pub connections: u64,
    /// Connections torn down by a planned reset.
    pub resets: u64,
    /// Client → daemon bytes relayed (post-fault).
    pub bytes_up: u64,
    /// Daemon → client bytes relayed (post-fault).
    pub bytes_down: u64,
    /// Individual bytes corrupted.
    pub corrupted: u64,
    /// Accepted connections dropped because the upstream dial failed.
    pub upstream_failures: u64,
}

/// A running chaos proxy; stop it to collect the [`ProxyReport`].
pub struct ChaosProxyHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
    counters: Arc<Counters>,
}

impl ChaosProxyHandle {
    /// Signals the accept loop and every relay to wind down, joins
    /// them, and returns the lifetime report.
    pub fn stop(mut self) -> ProxyReport {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.report()
    }

    fn report(&self) -> ProxyReport {
        ProxyReport {
            connections: self.counters.connections.load(Ordering::SeqCst),
            resets: self.counters.resets.load(Ordering::SeqCst),
            bytes_up: self.counters.bytes_up.load(Ordering::SeqCst),
            bytes_down: self.counters.bytes_down.load(Ordering::SeqCst),
            corrupted: self.counters.corrupted.load(Ordering::SeqCst),
            upstream_failures: self.counters.upstream_failures.load(Ordering::SeqCst),
        }
    }
}

impl Drop for ChaosProxyHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The chaos proxy itself: binds `listen`, dials `upstream` per
/// accepted connection, and relays both directions through seeded
/// `ChaosChannel`s.
pub struct ChaosProxy;

impl ChaosProxy {
    /// Binds the listener and spawns the accept loop. Fails only if the
    /// listen address can't be bound; upstream dial failures are
    /// per-connection events (counted, connection dropped) because a
    /// daemon that is briefly down *is* chaos.
    pub fn spawn(
        listen: &Bind,
        upstream: Bind,
        seed: u64,
        plan: ChaosPlan,
    ) -> std::io::Result<ChaosProxyHandle> {
        let listener = Listener::bind(listen)?;
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let accept_stop = Arc::clone(&stop);
        let accept_counters = Arc::clone(&counters);
        let thread = std::thread::Builder::new()
            .name("chaos-accept".into())
            .spawn(move || {
                accept_loop(listener, upstream, seed, plan, accept_stop, accept_counters)
            })
            .expect("spawn chaos accept thread");
        Ok(ChaosProxyHandle {
            stop,
            thread: Some(thread),
            counters,
        })
    }
}

fn accept_loop(
    listener: Listener,
    upstream: Bind,
    seed: u64,
    plan: ChaosPlan,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
) {
    let mut relays: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let keys = Arc::new(FrameKeys::default());
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(Some(client)) => {
                counters.connections.fetch_add(1, Ordering::SeqCst);
                let server = match Conn::connect(&upstream) {
                    Ok(s) => s,
                    Err(_) => {
                        counters.upstream_failures.fetch_add(1, Ordering::SeqCst);
                        client.shutdown();
                        continue;
                    }
                };
                match spawn_relay_pair(client, server, seed, plan, &keys, &stop, &counters) {
                    Ok(pair) => relays.extend(pair),
                    Err(_) => {
                        counters.upstream_failures.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
            Ok(None) => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
        // Reap finished relays so a long sweep doesn't hoard handles.
        relays.retain(|h| !h.is_finished());
    }
    for h in relays {
        let _ = h.join();
    }
}

/// Spawns both relays of one connection. The up relay reads the first
/// frame, keys both directions' channels by it and hands the key down;
/// the down relay reads nothing from the daemon until it has the key.
fn spawn_relay_pair(
    client: Conn,
    server: Conn,
    seed: u64,
    plan: ChaosPlan,
    keys: &Arc<FrameKeys>,
    stop: &Arc<AtomicBool>,
    counters: &Arc<Counters>,
) -> std::io::Result<[std::thread::JoinHandle<()>; 2]> {
    let client_rd = client.try_clone()?;
    let server_rd = server.try_clone()?;
    client_rd.set_read_timeout(Some(POLL))?;
    server_rd.set_read_timeout(Some(POLL))?;
    let mut up = RelayEnd {
        from: client_rd,
        to: server,
        dir: Dir::ClientToServer,
        stop: Arc::clone(stop),
        counters: Arc::clone(counters),
    };
    let down = RelayEnd {
        from: server_rd,
        to: client,
        dir: Dir::ServerToClient,
        stop: Arc::clone(stop),
        counters: Arc::clone(counters),
    };
    let (key_tx, key_rx) = mpsc::channel();
    let keys = Arc::clone(keys);
    let t_up = std::thread::Builder::new()
        .name("chaos-up".into())
        .spawn(move || {
            let mut first = Vec::new();
            match read_first_frame(&mut up.from, &mut first, &up.stop) {
                Some(frame) => {
                    let key = keys.key(&first[..frame]);
                    // A down relay that is already gone needs no key.
                    let _ = key_tx.send(key);
                    up.run(
                        ChaosChannel::new(plan, seed, key, Dir::ClientToServer),
                        &mut first,
                    );
                }
                None => up.shutdown(),
            }
        })?;
    let t_down = std::thread::Builder::new()
        .name("chaos-down".into())
        .spawn(move || match wait_for_key(&key_rx, &down.stop) {
            Some(key) => down.run(
                ChaosChannel::new(plan, seed, key, Dir::ServerToClient),
                &mut [],
            ),
            None => down.shutdown(),
        })?;
    Ok([t_up, t_down])
}

/// Reads until `buf` holds the connection's first client → daemon frame
/// and returns that frame's length in bytes: the 4-byte big-endian
/// length prefix and the body it declares, or the prefix alone when it
/// declares more than [`MAX_FRAME`] (the daemon drains such a body
/// unread, and the proxy does not buffer it). A client that closes
/// mid-frame is keyed by what it sent. `None` if it sent nothing, a
/// read failed, or the proxy is stopping.
fn read_first_frame(from: &mut Conn, buf: &mut Vec<u8>, stop: &AtomicBool) -> Option<usize> {
    let mut chunk = [0u8; RELAY_BUF];
    loop {
        if let Some(prefix) = buf.first_chunk::<4>() {
            let len = u32::from_be_bytes(*prefix);
            let frame = if len > MAX_FRAME { 4 } else { 4 + len as usize };
            if buf.len() >= frame {
                return Some(frame);
            }
        }
        if stop.load(Ordering::SeqCst) {
            return None;
        }
        match from.read(&mut chunk) {
            Ok(0) => return (!buf.is_empty()).then_some(buf.len()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if is_poll_timeout(&e) => {}
            Err(_) => return None,
        }
    }
}

/// Waits for the up relay's key. `None` if it ended without one or the
/// proxy is stopping.
fn wait_for_key(rx: &mpsc::Receiver<u64>, stop: &AtomicBool) -> Option<u64> {
    loop {
        match rx.recv_timeout(POLL) {
            Ok(key) => return Some(key),
            Err(mpsc::RecvTimeoutError::Timeout) if !stop.load(Ordering::SeqCst) => {}
            Err(_) => return None,
        }
    }
}

fn is_poll_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

struct RelayEnd {
    from: Conn,
    to: Conn,
    dir: Dir,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
}

impl RelayEnd {
    /// Relays `pending`, then everything `from` sends, through
    /// `channel` until a planned reset, EOF, an error or the stop flag.
    fn run(mut self, mut channel: ChaosChannel, pending: &mut [u8]) {
        let mut buf = [0u8; RELAY_BUF];
        let mut live = self.emit(&mut channel, pending);
        while live && !self.stop.load(Ordering::SeqCst) {
            live = match self.from.read(&mut buf) {
                Ok(0) => false, // peer closed: propagate by tearing down
                Ok(n) => self.emit(&mut channel, &mut buf[..n]),
                Err(e) => is_poll_timeout(&e),
            };
        }
        self.shutdown();
    }

    /// Writes `bytes` on in the segments `channel` plans, corrupted and
    /// paced as planned. `false` once the connection is over: a planned
    /// reset fired or a write failed.
    fn emit(&mut self, channel: &mut ChaosChannel, bytes: &mut [u8]) -> bool {
        let mut emitted = 0;
        while emitted < bytes.len() {
            match channel.plan_segment(bytes.len() - emitted) {
                SegmentPlan::Reset => {
                    self.counters.resets.fetch_add(1, Ordering::SeqCst);
                    return false;
                }
                SegmentPlan::Emit { len, pause_ms } => {
                    let seg = &mut bytes[emitted..emitted + len];
                    let flipped = channel.corrupt(seg);
                    if flipped > 0 {
                        self.counters.corrupted.fetch_add(flipped, Ordering::SeqCst);
                    }
                    if self
                        .to
                        .write_all(seg)
                        .and_then(|_| self.to.flush())
                        .is_err()
                    {
                        return false;
                    }
                    let relayed = match self.dir {
                        Dir::ClientToServer => &self.counters.bytes_up,
                        Dir::ServerToClient => &self.counters.bytes_down,
                    };
                    relayed.fetch_add(len as u64, Ordering::SeqCst);
                    emitted += len;
                    if pause_ms > 0 {
                        std::thread::sleep(Duration::from_millis(pause_ms));
                    }
                }
            }
        }
        true
    }

    /// Whatever ended this direction — reset, EOF, error, stop — tear
    /// both sockets down so the opposite relay and both peers see it.
    fn shutdown(&self) {
        self.from.shutdown();
        self.to.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_parse_display_roundtrip() {
        let spec = "delay=1..5ms,tear=16,trickle=64/20ms,reset=2048..8192,corrupt=500";
        let plan = ChaosPlan::parse(spec).expect("parse");
        assert_eq!(plan.delay_ms, Some((1, 5)));
        assert_eq!(plan.tear_max, Some(16));
        assert_eq!(plan.trickle, Some((64, 20)));
        assert_eq!(plan.reset_offset, Some((2048, 8192)));
        assert_eq!(plan.corrupt_ppm, Some(500));
        assert_eq!(plan.to_string(), spec);
        assert_eq!(ChaosPlan::parse(&plan.to_string()), Ok(plan));
    }

    #[test]
    fn plan_single_values_and_empty() {
        let plan = ChaosPlan::parse("delay=7ms,reset=100").expect("parse");
        assert_eq!(plan.delay_ms, Some((7, 7)));
        assert_eq!(plan.reset_offset, Some((100, 100)));
        assert_eq!(plan.to_string(), "delay=7ms,reset=100");
        assert_eq!(ChaosPlan::parse("").expect("empty"), ChaosPlan::default());
        assert_eq!(ChaosPlan::parse("  ").expect("blank"), ChaosPlan::default());
    }

    #[test]
    fn plan_rejects_malformed_specs() {
        for bad in [
            "delay=5",         // missing ms
            "tear=0",          // empty segment
            "trickle=0/5ms",   // never progresses
            "trickle=8",       // missing /ms
            "reset=9..3",      // empty range
            "corrupt=2000000", // > 1e6 ppm
            "jitter=3",        // unknown key
            "delay",           // not key=value
        ] {
            assert!(ChaosPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    /// The heart of the determinism contract: push the same byte stream
    /// through the same channel in 1-byte reads and in 4096-byte reads;
    /// the emitted segment boundaries, corrupted bytes, and reset point
    /// must be identical.
    #[test]
    fn fault_schedule_is_independent_of_read_chunking() {
        let plan =
            ChaosPlan::parse("tear=13,reset=7000..9000,corrupt=20000,delay=0..3ms").expect("parse");
        let input: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();

        // Drives a channel with reads of `chunk` bytes; returns the
        // post-fault output and the offset where the reset fired.
        let drive = |chunk: usize| -> (Vec<u8>, Option<u64>) {
            let mut ch = ChaosChannel::new(plan, 42, 3, Dir::ClientToServer);
            let mut out = Vec::new();
            let mut reset = None;
            'feed: for piece in input.chunks(chunk) {
                let mut seg_buf = piece.to_vec();
                let mut emitted = 0;
                while emitted < seg_buf.len() {
                    match ch.plan_segment(seg_buf.len() - emitted) {
                        SegmentPlan::Reset => {
                            reset = Some(out.len() as u64);
                            break 'feed;
                        }
                        SegmentPlan::Emit { len, .. } => {
                            let seg = &mut seg_buf[emitted..emitted + len];
                            ch.corrupt(seg);
                            out.extend_from_slice(seg);
                            emitted += len;
                        }
                    }
                }
            }
            (out, reset)
        };

        let (tiny_out, tiny_reset) = drive(1);
        let (big_out, big_reset) = drive(4096);
        assert_eq!(tiny_reset, big_reset);
        assert!(tiny_reset.expect("reset fires inside 10k bytes") >= 7000);
        assert_eq!(tiny_out, big_out);
        // Corruption actually happened at 2% ppm-equivalent.
        let flipped = tiny_out
            .iter()
            .zip(input.iter())
            .filter(|(a, b)| a != b)
            .count();
        assert!(
            flipped > 0,
            "corrupt=20000 over 8k+ bytes should flip something"
        );
    }

    /// Different (key, dir) substreams draw different schedules from
    /// the same seed; the same triple replays identically.
    #[test]
    fn substreams_are_decorrelated_and_replayable() {
        let plan = ChaosPlan::parse("reset=0..1000000").expect("parse");
        let reset_of = |key, dir| {
            ChaosChannel::new(plan, 7, key, dir)
                .reset_at
                .expect("planned")
        };
        assert_eq!(
            reset_of(0, Dir::ClientToServer),
            reset_of(0, Dir::ClientToServer)
        );
        assert_ne!(
            reset_of(0, Dir::ClientToServer),
            reset_of(1, Dir::ClientToServer)
        );
        assert_ne!(
            reset_of(0, Dir::ClientToServer),
            reset_of(0, Dir::ServerToClient)
        );
    }

    /// A connection's faults follow its first frame, not the order the
    /// proxy accepts it in: two clients with fixed first frames are reset
    /// at the same byte offsets whichever of them connects first, and a
    /// connection that repeats a frame draws a fresh offset.
    #[test]
    fn fault_schedules_follow_the_first_frame_not_accept_order() {
        use std::os::unix::net::{UnixListener, UnixStream};

        let path = |name: &str| {
            std::env::temp_dir().join(format!(
                "catbatch-chaos-key-{}-{name}.sock",
                std::process::id()
            ))
        };
        let (upstream_path, proxy_path) = (path("upstream"), path("proxy"));
        let _ = std::fs::remove_file(&upstream_path);
        let upstream = UnixListener::bind(&upstream_path).expect("bind upstream");
        let plan = ChaosPlan::parse("reset=1000..60000").expect("parse");

        // One connection: a first frame with body `first`, then 64 KiB
        // more, past every offset the plan can draw. Returns how many
        // bytes reached the upstream end before the reset.
        let sent = |first: &[u8]| -> usize {
            let mut stream = (first.len() as u32).to_be_bytes().to_vec();
            stream.extend_from_slice(first);
            stream.resize(stream.len() + 65_536, 0xab);
            let mut client = UnixStream::connect(&proxy_path).expect("connect");
            let (mut server, _) = upstream.accept().expect("the proxy dials upstream");
            std::thread::scope(|scope| {
                let received = scope.spawn(move || {
                    let mut got = Vec::new();
                    let _ = server.read_to_end(&mut got);
                    got
                });
                // The reset fails the rest of the write; that is the point.
                let _ = client.write_all(&stream);
                drop(client);
                let got = received.join().expect("upstream reader");
                assert_eq!(got[..], stream[..got.len()], "relayed bytes are a prefix");
                assert!(got.len() < stream.len(), "the planned reset fired");
                got.len()
            })
        };
        // A fresh proxy with the same seed per order of connections.
        let offsets = |order: [&[u8]; 3]| -> [usize; 3] {
            let proxy = ChaosProxy::spawn(
                &Bind::Unix(proxy_path.clone()),
                Bind::Unix(upstream_path.clone()),
                9,
                plan,
            )
            .expect("proxy spawns");
            let offsets = order.map(sent);
            assert_eq!(proxy.stop().resets, 3);
            offsets
        };
        let (a, b) = (
            b"first job of client a".as_slice(),
            b"client b's first job".as_slice(),
        );
        let [a1, b1, a2] = offsets([a, b, a]);
        let [b1_, a1_, a2_] = offsets([b, a, a]);
        assert_eq!([a1, b1, a2], [a1_, b1_, a2_], "offsets follow the frame");
        assert_ne!(a1, b1, "distinct frames draw distinct offsets");
        assert_ne!(a1, a2, "a repeated frame draws a fresh offset");
        let _ = std::fs::remove_file(&upstream_path);
    }

    /// A transparent plan emits everything in one pass and never
    /// pauses or resets.
    #[test]
    fn transparent_plan_is_a_plain_relay() {
        let mut ch = ChaosChannel::new(ChaosPlan::default(), 1, 0, Dir::ServerToClient);
        assert_eq!(
            ch.plan_segment(100),
            SegmentPlan::Emit {
                len: 100,
                pause_ms: 0
            }
        );
        let mut bytes = vec![0xab; 64];
        assert_eq!(ch.corrupt(&mut bytes), 0);
        assert!(bytes.iter().all(|&b| b == 0xab));
    }
}
