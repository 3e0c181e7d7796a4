//! Blocking socket server for the `VRW1` protocol.
//!
//! Shape: an accept loop per listener (TCP and/or Unix-domain) admits
//! connections through the shared [`vr_obs::AcceptGate`]; each admitted
//! connection gets one thread, which runs every frame it reads to
//! completion: decode, admission, the trie walk, encode, write. There is
//! no queue and no other thread between a frame's arrival and its walk.
//! The [`WireBackend`] sits behind one lock, so lookups and route-update
//! batches from every connection are *serialized*, and a lookup call can
//! never straddle a publish: the `(results, generation)` pair it returns
//! is torn-free by construction, extending the engine's never-torn batch
//! guarantee across the wire.
//!
//! A connection makes one `lookup_into` call per *socket read*, not per
//! frame: the lookup frames one read delivered (a client's pipelined
//! burst) are resolved together, up to a fixed key cap, under one
//! acquisition of the lock, and answered one `LookupResponse` each, all
//! tagged with the one generation that call resolved against, so never-torn spans
//! the frames of a group. A lookup frame is never decoded into a
//! message: its records are checked where the decoder's buffer holds
//! them and their keys appended straight into the group's reused key
//! buffer, and the call writes into a reused result buffer, so serving
//! one allocates nothing. Every reply goes out in request order, encoded
//! into one reused buffer and sent with one write per read. An update
//! frame closes the open group and runs after it: updates stay barriers
//! on their connection. A frame naming a VN the backend does not host is
//! answered `ErrorReply(UnknownVn)` by itself and never reaches the
//! engine.
//!
//! Admission control sheds, it never stalls:
//!
//! 1. **Connection gate** — past `max_connections`, the socket gets an
//!    `Overloaded(Connections)` frame via the shared half-close-drain
//!    helper and is closed. The gate also bounds how many connection
//!    threads can wait on the backend lock.
//! 2. **Token bucket** — per-connection packets-per-second budget;
//!    over-budget frames get `Overloaded(RateLimited)` and the
//!    connection stays open. A frame costing more than the burst, which
//!    no wait could admit, gets `ErrorReply(BadRequest)` instead.
//! 3. **Slow reader** — a client that stops reading its replies blocks
//!    its own thread's write; the write timeout bounds that and then
//!    disconnects it. The lock is never held across a write, so a
//!    wedged peer costs only its own thread.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use vr_engine::{LookupService, ShardedService};
use vr_net::{NextHop, RouteUpdate, VnId};
use vr_obs::{shed_with, AcceptGate, ShedStream};
use vr_telemetry::{Counter, MetricsRegistry, Stopwatch};

use crate::frame::{
    decode_payload, encode, encode_into, encode_lookup_response, lookup_key,
    lookup_request_records, ErrorCode, LookupRecord, Message, OverloadReason,
};
use crate::FrameDecoder;

/// Reader poll granularity: the read timeout that lets an idle
/// connection notice that the server is stopping.
const READER_TICK: Duration = Duration::from_millis(100);

/// Socket read size: one read holds a key cap's worth of pipelined
/// 16-key frames (~124 B each), so a burst is not cut into groups by
/// the read.
const READ_BUF_LEN: usize = 64 * 1024;

/// Tuning for [`WireServer`]. `Default` is sized for tests and the
/// smoke harness; callers override it per scenario.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent-connection bound enforced by the accept gate.
    pub max_connections: usize,
    /// Unused: the server no longer reads it. Frames run to completion
    /// on their connection's thread, so there is no job queue to bound.
    pub job_queue_depth: usize,
    /// Unused: the server no longer reads it. A connection writes its
    /// own replies, so there is no reply queue to bound.
    pub writer_queue_depth: usize,
    /// Per-connection token-bucket rate in packets/updates per second;
    /// `0` disables rate limiting.
    pub rate_limit_pps: u64,
    /// Token-bucket burst capacity in packets; `0` means one second's
    /// worth of `rate_limit_pps`. A larger frame is a bad request.
    pub rate_burst: u64,
    /// Back-off hint stamped into `Overloaded` frames.
    pub retry_after_ms: u32,
    /// Socket write timeout — bounds how long a peer that stops reading
    /// can hold its connection's thread.
    pub write_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 64,
            job_queue_depth: 256,
            writer_queue_depth: 64,
            rate_limit_pps: 0,
            rate_burst: 0,
            retry_after_ms: 20,
            write_timeout_ms: 2_000,
        }
    }
}

/// What the server needs from a lookup/control engine. The server holds
/// it behind one lock, so `&mut self` methods are serialized across
/// connections — a lookup can never interleave with an update publish.
pub trait WireBackend: Send + 'static {
    /// Resolves `keys` into `results` (the same length) in input order;
    /// returns the generation of the one snapshot the whole call resolved
    /// against.
    fn lookup_into(&mut self, keys: &[(VnId, u32)], results: &mut [Option<NextHop>]) -> u64;
    /// [`Self::lookup_into`] into a fresh vector, returned with the
    /// generation.
    fn lookup(&mut self, keys: &[(VnId, u32)]) -> (Vec<Option<NextHop>>, u64) {
        let mut results = vec![None; keys.len()];
        let generation = self.lookup_into(keys, &mut results);
        (results, generation)
    }
    /// Applies a route-update batch atomically (one publish); returns
    /// the generation now live, or a human-readable refusal.
    fn apply_updates(&mut self, updates: &[RouteUpdate]) -> Result<u64, String>;
    /// How many virtual networks are hosted: a lookup may name VN ids
    /// `0..vn_count()` and nothing else. The server reads it once, when
    /// it starts (updates never add a VN), and checks every frame
    /// against it, so [`Self::lookup_into`] never sees an unhosted VN.
    fn vn_count(&self) -> usize;
}

impl WireBackend for LookupService {
    fn lookup_into(&mut self, keys: &[(VnId, u32)], results: &mut [Option<NextHop>]) -> u64 {
        self.process_into(keys, results)
    }

    fn apply_updates(&mut self, updates: &[RouteUpdate]) -> Result<u64, String> {
        LookupService::apply_updates(self, updates).map_err(|e| e.to_string())
    }

    fn vn_count(&self) -> usize {
        LookupService::vn_count(self)
    }
}

impl WireBackend for ShardedService {
    fn lookup_into(&mut self, keys: &[(VnId, u32)], results: &mut [Option<NextHop>]) -> u64 {
        self.process_into(keys, results)
    }

    fn apply_updates(&mut self, _updates: &[RouteUpdate]) -> Result<u64, String> {
        Err("sharded backend is lookup-only; route updates need the control plane".into())
    }

    fn vn_count(&self) -> usize {
        ShardedService::vn_count(self)
    }
}

impl WireBackend for vr_control::ControlPlane {
    fn lookup_into(&mut self, keys: &[(VnId, u32)], results: &mut [Option<NextHop>]) -> u64 {
        self.service_mut().process_into(keys, results)
    }

    fn apply_updates(&mut self, updates: &[RouteUpdate]) -> Result<u64, String> {
        self.apply_batch(updates)
            .map(|outcome| outcome.generation)
            .map_err(|e| e.to_string())
    }

    fn vn_count(&self) -> usize {
        self.service().vn_count()
    }
}

/// The socket kinds both listeners produce: sheddable by the accept
/// gate, and given a read tick and a write timeout once admitted.
trait WireStream: ShedStream + Send + 'static {
    fn set_timeouts(&self, read: Duration, write: Duration);
}

impl WireStream for TcpStream {
    fn set_timeouts(&self, read: Duration, write: Duration) {
        let _ = self.set_read_timeout(Some(read));
        let _ = self.set_write_timeout(Some(write));
    }
}

#[cfg(unix)]
impl WireStream for UnixStream {
    fn set_timeouts(&self, read: Duration, write: Duration) {
        let _ = self.set_read_timeout(Some(read));
        let _ = self.set_write_timeout(Some(write));
    }
}

/// Counters the server publishes when given a registry. Handles are
/// cheap clones.
struct WireMetrics {
    connections: Option<Counter>,
    shed_connections: Option<Counter>,
    shed_rate_limited: Option<Counter>,
    slow_reader_disconnects: Option<Counter>,
    requests: Option<Counter>,
    lookup_packets: Option<Counter>,
    updates: Option<Counter>,
    decode_errors: Option<Counter>,
}

impl WireMetrics {
    fn new(registry: Option<&Arc<MetricsRegistry>>) -> Self {
        let c = |name: &str| registry.map(|r| r.counter(name));
        Self {
            connections: c("vr_wire_connections_total"),
            shed_connections: c("vr_wire_shed_connections_total"),
            shed_rate_limited: c("vr_wire_shed_rate_limited_total"),
            slow_reader_disconnects: c("vr_wire_slow_reader_disconnects_total"),
            requests: c("vr_wire_requests_total"),
            lookup_packets: c("vr_wire_lookup_packets_total"),
            updates: c("vr_wire_updates_total"),
            decode_errors: c("vr_wire_decode_errors_total"),
        }
    }

    fn bump(counter: &Option<Counter>, n: u64) {
        if let Some(c) = counter {
            c.add(n);
        }
    }
}

/// Per-connection token bucket over the monotonic `Stopwatch` clock.
/// Budget is tracked in token-nanoseconds (one token = 1e9 units) so
/// refill needs no floating point and loses no fractional tokens.
struct TokenBucket {
    rate_pps: u64,
    capacity_tok_ns: u64,
    available_tok_ns: u64,
    clock: Stopwatch,
    last_ns: u64,
}

const TOK_NS: u64 = 1_000_000_000;

/// The bucket's answer to a frame's token cost.
enum Admit {
    /// Admitted; the tokens are taken.
    Now,
    /// Over the current budget; a later retry can be admitted.
    Later,
    /// The cost exceeds the bucket's capacity: no wait admits it.
    Never {
        /// The capacity, in tokens.
        burst: u64,
    },
}

impl TokenBucket {
    fn new(rate_pps: u64, burst: u64) -> Self {
        let burst = if burst == 0 { rate_pps } else { burst };
        Self {
            rate_pps,
            capacity_tok_ns: burst.saturating_mul(TOK_NS),
            // Start full so a fresh connection can send immediately.
            available_tok_ns: burst.saturating_mul(TOK_NS),
            clock: Stopwatch::start(),
            last_ns: 0,
        }
    }

    /// Takes `cost` tokens if the refilled budget covers them; takes
    /// none for a cost the full bucket could never cover.
    fn try_take(&mut self, cost: u64) -> Admit {
        if self.rate_pps == 0 {
            return Admit::Now;
        }
        let need = cost.saturating_mul(TOK_NS);
        if need > self.capacity_tok_ns {
            return Admit::Never {
                burst: self.capacity_tok_ns / TOK_NS,
            };
        }
        let now = self.clock.elapsed_ns();
        let gained = now
            .saturating_sub(self.last_ns)
            .saturating_mul(self.rate_pps);
        self.last_ns = now;
        self.available_tok_ns = self
            .available_tok_ns
            .saturating_add(gained)
            .min(self.capacity_tok_ns);
        if self.available_tok_ns >= need {
            self.available_tok_ns -= need;
            Admit::Now
        } else {
            Admit::Later
        }
    }
}

/// Shared server state the accept loops and connections see.
struct Shared<B> {
    gate: Arc<AcceptGate>,
    stopping: Mutex<bool>,
    cfg: ServerConfig,
    metrics: WireMetrics,
    /// [`WireBackend::vn_count`], read once at start.
    vn_count: usize,
    /// Held for one group's `lookup_into` or one `apply_updates`, never
    /// across a socket read or write.
    backend: Mutex<B>,
}

impl<B> Shared<B> {
    fn stopping(&self) -> bool {
        *self.stopping.lock()
    }
}

/// A running `VRW1` server. Dropping it (or calling
/// [`WireServer::shutdown`]) stops the accept loops and joins every
/// connection thread.
pub struct WireServer<B: WireBackend> {
    addr: Option<SocketAddr>,
    #[cfg(unix)]
    uds_path: Option<std::path::PathBuf>,
    shared: Arc<Shared<B>>,
    accept_threads: Vec<JoinHandle<()>>,
}

impl<B: WireBackend> WireServer<B> {
    /// Binds a TCP listener (use port 0 for an OS-chosen port) and
    /// starts serving `backend`.
    ///
    /// # Errors
    /// Bind, `local_addr`, or thread-spawn failure.
    pub fn serve_tcp<A: ToSocketAddrs>(
        addr: A,
        backend: B,
        cfg: ServerConfig,
        registry: Option<&Arc<MetricsRegistry>>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let mut server = Self::start(backend, cfg, registry);
        server.addr = Some(local);
        server.spawn_acceptor("vr-wire-tcp", move || listener.accept().map(|(s, _)| s))?;
        Ok(server)
    }

    /// Binds a Unix-domain listener at `path` (removing a stale socket
    /// file first) and starts serving `backend`.
    ///
    /// # Errors
    /// Bind or thread-spawn failure.
    #[cfg(unix)]
    pub fn serve_uds<P: AsRef<std::path::Path>>(
        path: P,
        backend: B,
        cfg: ServerConfig,
        registry: Option<&Arc<MetricsRegistry>>,
    ) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        let mut server = Self::start(backend, cfg, registry);
        server.uds_path = Some(path);
        server.spawn_acceptor("vr-wire-uds", move || listener.accept().map(|(s, _)| s))?;
        Ok(server)
    }

    fn start(backend: B, cfg: ServerConfig, registry: Option<&Arc<MetricsRegistry>>) -> Self {
        let shared = Arc::new(Shared {
            gate: AcceptGate::new(cfg.max_connections),
            stopping: Mutex::new(false),
            cfg,
            metrics: WireMetrics::new(registry),
            vn_count: backend.vn_count(),
            backend: Mutex::new(backend),
        });
        Self {
            addr: None,
            #[cfg(unix)]
            uds_path: None,
            shared,
            accept_threads: Vec::new(),
        }
    }

    fn spawn_acceptor<S: WireStream>(
        &mut self,
        name: &str,
        accept: impl FnMut() -> io::Result<S> + Send + 'static,
    ) -> io::Result<()> {
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || accept_loop(accept, &shared))?;
        self.accept_threads.push(handle);
        Ok(())
    }

    /// The bound TCP address (with the OS-chosen port when bound to
    /// `:0`); `None` for a UDS-only server.
    #[must_use]
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// Live connection count (accept-gate view).
    #[must_use]
    pub fn active_connections(&self) -> usize {
        self.shared.gate.active()
    }

    /// Stops accepting, joins every connection thread, and returns the
    /// backend (so a test can compare the served state against an
    /// oracle). A connection notices the stop after its current read,
    /// or within a reader tick when idle; one blocked writing to a peer
    /// that stopped reading is bounded by the write timeout.
    #[must_use = "the returned backend carries final state; drop it explicitly if unwanted"]
    pub fn shutdown(self) -> Option<B> {
        let shared = Arc::clone(&self.shared);
        // Drop stops the accept loops, which join their connections:
        // afterwards `shared` is the last reference.
        drop(self);
        Arc::try_unwrap(shared).ok().map(|s| s.backend.into_inner())
    }
}

impl<B: WireBackend> Drop for WireServer<B> {
    fn drop(&mut self) {
        *self.shared.stopping.lock() = true;
        // Poke each blocked accept() awake with a throwaway connection.
        if let Some(addr) = self.addr {
            let _ = TcpStream::connect(addr);
        }
        #[cfg(unix)]
        if let Some(path) = &self.uds_path {
            let _ = UnixStream::connect(path);
        }
        for handle in self.accept_threads.drain(..) {
            let _ = handle.join();
        }
        #[cfg(unix)]
        if let Some(path) = self.uds_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl<B: WireBackend> std::fmt::Debug for WireServer<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireServer")
            .field("addr", &self.addr)
            .field("active_connections", &self.shared.gate.active())
            .field("max_connections", &self.shared.gate.max_connections())
            .finish()
    }
}

/// One listener's loop. It owns the threads of the connections it
/// admitted: finished ones are pruned on each admit, and the rest are
/// joined when the server stops, so joining the accept thread joins
/// every connection it started.
fn accept_loop<B: WireBackend, S: WireStream>(
    mut accept: impl FnMut() -> io::Result<S>,
    shared: &Arc<Shared<B>>,
) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = accept();
        if shared.stopping() {
            break;
        }
        let Ok(stream) = accepted else { continue };
        connections.retain(|c| !c.is_finished());
        connections.extend(admit(stream, shared));
    }
    for connection in connections {
        let _ = connection.join();
    }
}

/// Gate + spawn for one fresh connection; `None` when it was shed or
/// its thread could not be spawned.
fn admit<B: WireBackend, S: WireStream>(
    stream: S,
    shared: &Arc<Shared<B>>,
) -> Option<JoinHandle<()>> {
    let Some(permit) = shared.gate.try_admit() else {
        WireMetrics::bump(&shared.metrics.shed_connections, 1);
        let refusal = encode(&Message::Overloaded {
            id: 0,
            reason: OverloadReason::Connections,
            retry_after_ms: shared.cfg.retry_after_ms,
        });
        shed_with(
            stream,
            &refusal,
            Duration::from_millis(shared.cfg.write_timeout_ms),
        );
        return None;
    };
    WireMetrics::bump(&shared.metrics.connections, 1);
    let shared = Arc::clone(shared);
    // Spawn failure (resource exhaustion): the permit drops with the
    // closure; the socket closes unreplied, which the client sees as a
    // refused connection.
    std::thread::Builder::new()
        .name("vr-wire-conn".into())
        .spawn(move || {
            let _permit = permit;
            serve_connection(stream, &shared);
        })
        .ok()
}

/// One connection, start to finish: read, serve every complete frame
/// the read delivered, write all their replies at once, repeat.
fn serve_connection<B: WireBackend, S: WireStream>(mut stream: S, shared: &Shared<B>) {
    stream.set_timeouts(
        READER_TICK,
        Duration::from_millis(shared.cfg.write_timeout_ms),
    );
    let mut decoder = FrameDecoder::new();
    let mut conn = Connection {
        shared,
        bucket: TokenBucket::new(shared.cfg.rate_limit_pps, shared.cfg.rate_burst),
        group: Group::default(),
        out: Vec::with_capacity(4 * 1024),
    };
    let mut read_buf = vec![0u8; READ_BUF_LEN];
    loop {
        let read = stream.read(&mut read_buf);
        if shared.stopping() {
            return;
        }
        match read {
            Ok(0) => return,
            Ok(n) => decoder.feed(&read_buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(_) => return,
        }
        let open = conn.serve_frames(&mut decoder);
        if let Err(e) = stream.write_all(&conn.out) {
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) {
                // The peer sends but does not read: the write timeout
                // ran out. Cut it loose.
                WireMetrics::bump(&shared.metrics.slow_reader_disconnects, 1);
            }
            return;
        }
        conn.out.clear();
        if !open {
            return;
        }
    }
}

/// What one connection's thread keeps between reads, beside its
/// decoder.
struct Connection<'a, B> {
    shared: &'a Shared<B>,
    bucket: TokenBucket,
    group: Group,
    /// The replies to the current read's frames, encoded back to back.
    out: Vec<u8>,
}

impl<B: WireBackend> Connection<'_, B> {
    /// Serves every complete frame `decoder` holds, appending each reply
    /// to `out` in request order. Returns `false` when the stream is
    /// poisoned and the connection must close.
    fn serve_frames(&mut self, decoder: &mut FrameDecoder) -> bool {
        loop {
            let served = match decoder.next_frame() {
                // A LookupRequest: its records join the group as they
                // lie in the decoder's buffer.
                Ok(Some((0x01, payload))) => {
                    lookup_request_records(payload).map(|(id, records)| self.lookup(id, records))
                }
                Ok(Some((frame_type, payload))) => {
                    decode_payload(frame_type, payload).map(|msg| self.handle(msg))
                }
                Ok(None) => {
                    self.group.serve(&self.shared.backend, &mut self.out);
                    return true;
                }
                Err(err) => Err(err),
            };
            if let Err(err) = served {
                // Framing is unrecoverable: report once, then tear the
                // connection down (fail-stop, no resync).
                WireMetrics::bump(&self.shared.metrics.decode_errors, 1);
                self.reply(&Message::ErrorReply {
                    id: 0,
                    code: ErrorCode::BadRequest,
                    message: err.to_string(),
                });
                return false;
            }
        }
    }

    /// Admits a work frame (lookups or updates) of `cost` items against
    /// the token bucket; a refused one is answered here.
    fn admit(&mut self, id: u64, cost: usize) -> bool {
        let shared = self.shared;
        WireMetrics::bump(&shared.metrics.requests, 1);
        let cost = (cost as u64).max(1);
        match self.bucket.try_take(cost) {
            Admit::Now => true,
            Admit::Later => {
                WireMetrics::bump(&shared.metrics.shed_rate_limited, 1);
                self.reply(&Message::Overloaded {
                    id,
                    reason: OverloadReason::RateLimited,
                    retry_after_ms: shared.cfg.retry_after_ms,
                });
                false
            }
            Admit::Never { burst } => {
                self.reply(&Message::ErrorReply {
                    id,
                    code: ErrorCode::BadRequest,
                    message: format!(
                        "frame costs {cost} tokens, beyond the rate limit's burst of {burst}"
                    ),
                });
                false
            }
        }
    }

    /// One lookup frame: an admitted frame whose VNs are all hosted joins
    /// the open group, key by key from its records; one naming an
    /// unhosted VN is refused alone.
    fn lookup(&mut self, id: u64, records: &[LookupRecord]) {
        if !self.admit(id, records.len()) {
            return;
        }
        let shared = self.shared;
        let unhosted = records
            .iter()
            .map(lookup_key)
            .find(|&(vn, _)| usize::from(vn) >= shared.vn_count);
        if let Some((vn, _)) = unhosted {
            self.reply(&Message::ErrorReply {
                id,
                code: ErrorCode::UnknownVn,
                message: format!("vn {vn} is not hosted ({} are)", shared.vn_count),
            });
            return;
        }
        if !self.group.admits(records.len()) {
            self.group.serve(&shared.backend, &mut self.out);
        }
        WireMetrics::bump(&shared.metrics.lookup_packets, records.len() as u64);
        self.group.keys.extend(records.iter().map(lookup_key));
        self.group.frames.push((id, records.len()));
    }

    /// Every frame but a lookup, answered after the open group.
    fn handle(&mut self, msg: Message) {
        let shared = self.shared;
        let reply = match msg {
            Message::RouteUpdateBatch { id, updates } => {
                if !self.admit(id, updates.len()) {
                    return;
                }
                // A barrier: the lookups before it resolve first.
                self.group.serve(&shared.backend, &mut self.out);
                WireMetrics::bump(&shared.metrics.updates, updates.len() as u64);
                match shared.backend.lock().apply_updates(&updates) {
                    Ok(generation) => Message::UpdateAck { id, generation },
                    Err(message) => Message::ErrorReply {
                        id,
                        code: ErrorCode::Internal,
                        message,
                    },
                }
            }
            Message::Ping { id } => Message::Pong { id },
            other => Message::ErrorReply {
                id: other.id(),
                code: ErrorCode::BadRequest,
                message: format!("unexpected client frame type 0x{:02x}", other.frame_type()),
            },
        };
        self.reply(&reply);
    }

    /// Answers a frame that does not join the group, after the group's
    /// own replies.
    fn reply(&mut self, msg: &Message) {
        self.group.serve(&self.shared.backend, &mut self.out);
        encode_into(msg, &mut self.out);
    }
}

/// Key cap of one backend call: a connection stops adding lookup
/// frames to a group once it holds this many keys. A few thousand keys
/// per worker is where the service hand-off costs 1.03× the walk
/// (ROADMAP, layer budget); past that a larger call only delays the
/// group's first reply.
const GROUP_KEY_CAP: usize = 8 * 1024;

/// The lookup frames one backend call serves: their keys back to back
/// in one reused buffer, per frame what the reply needs, and the reused
/// buffer the call writes its results into.
#[derive(Default)]
struct Group {
    keys: Vec<(VnId, u32)>,
    /// (correlation id, key count), in request order.
    frames: Vec<(u64, usize)>,
    /// The last call's results, kept for the capacity.
    results: Vec<Option<NextHop>>,
}

impl Group {
    /// Whether a frame of `n` keys may join: an open group takes frames
    /// up to the cap; an empty one takes any frame, so a frame larger
    /// than the cap is served alone.
    fn admits(&self, n: usize) -> bool {
        self.frames.is_empty() || self.keys.len() + n <= GROUP_KEY_CAP
    }

    /// One backend call for the whole group under one acquisition of
    /// the lock, then one `LookupResponse` per frame appended to `out`,
    /// encoded straight from that frame's share of the results and all
    /// tagged with the generation the call resolved against. Leaves the group
    /// empty.
    fn serve<B: WireBackend>(&mut self, backend: &Mutex<B>, out: &mut Vec<u8>) {
        if self.frames.is_empty() {
            return;
        }
        self.results.clear();
        self.results.resize(self.keys.len(), None);
        let generation = backend.lock().lookup_into(&self.keys, &mut self.results);
        // The frames' key counts sum to the keys the results answer.
        let mut rest = self.results.as_slice();
        for (id, n) in self.frames.drain(..) {
            let (own, tail) = rest.split_at(n);
            rest = tail;
            encode_lookup_response(id, generation, own, out);
        }
        self.keys.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::time::Duration;

    /// Deterministic engine stand-in: next hop = low byte of (vn + dst),
    /// zero dst = no route; updates bump the generation.
    struct FakeBackend {
        generation: u64,
        /// The keys of every `lookup_into` call, in call order.
        calls: Vec<Vec<(VnId, u32)>>,
        /// The first `lookup_into` call reports that it holds the lock, then
        /// waits until the test opens the gate (see [`plug`]).
        first_call_gate: Option<(Sender<()>, Receiver<()>)>,
    }

    impl FakeBackend {
        /// VN ids `0..VNS` are hosted.
        const VNS: usize = 16;

        fn new() -> Self {
            Self {
                generation: 1,
                calls: Vec::new(),
                first_call_gate: None,
            }
        }

        fn expected(vn: VnId, dst: u32) -> Option<NextHop> {
            if dst == 0 {
                None
            } else {
                Some((u32::from(vn).wrapping_add(dst) & 0xFF) as u8)
            }
        }

        /// Key count of every call, in call order.
        fn call_sizes(&self) -> Vec<usize> {
            self.calls.iter().map(Vec::len).collect()
        }
    }

    impl WireBackend for FakeBackend {
        fn lookup_into(&mut self, keys: &[(VnId, u32)], results: &mut [Option<NextHop>]) -> u64 {
            self.calls.push(keys.to_vec());
            if let Some((entered, open)) = self.first_call_gate.take() {
                let _ = entered.send(());
                let _ = open.recv();
            }
            for (slot, &(vn, dst)) in results.iter_mut().zip(keys) {
                *slot = Self::expected(vn, dst);
            }
            self.generation
        }

        fn apply_updates(&mut self, updates: &[RouteUpdate]) -> Result<u64, String> {
            if updates.is_empty() {
                return Err("empty update batch".into());
            }
            self.generation += 1;
            Ok(self.generation)
        }

        fn vn_count(&self) -> usize {
            Self::VNS
        }
    }

    fn start_tcp(cfg: ServerConfig) -> (WireServer<FakeBackend>, SocketAddr) {
        let server =
            WireServer::serve_tcp("127.0.0.1:0", FakeBackend::new(), cfg, None).expect("bind");
        let addr = server.local_addr().expect("tcp addr");
        (server, addr)
    }

    #[test]
    fn ping_lookup_and_update_round_trip_over_tcp() {
        let (server, addr) = start_tcp(ServerConfig::default());
        let mut client = crate::WireClient::connect_tcp(addr).expect("connect");
        client.ping().expect("ping");

        let packets = vec![(0u16, 9u32), (3, 0), (7, 200)];
        let reply = client.lookup(&packets).expect("lookup");
        let Message::LookupResponse {
            generation,
            results,
            ..
        } = reply
        else {
            panic!("expected LookupResponse, got {reply:?}");
        };
        assert_eq!(generation, 1);
        let want: Vec<_> = packets
            .iter()
            .map(|&(vn, dst)| FakeBackend::expected(vn, dst))
            .collect();
        assert_eq!(results, want);

        let update = vr_net::RouteUpdate::Announce {
            vnid: 2,
            prefix: vr_net::Ipv4Prefix::new(0x0A00_0000, 8).expect("prefix"),
            next_hop: 4,
        };
        let ack = client.apply_updates(&[update]).expect("update");
        assert!(
            matches!(ack, Message::UpdateAck { generation: 2, .. }),
            "got {ack:?}"
        );

        // Lookups after the ack see the new generation.
        let reply = client.lookup(&packets).expect("lookup 2");
        assert!(matches!(
            reply,
            Message::LookupResponse { generation: 2, .. }
        ));

        let backend = server.shutdown().expect("backend returns");
        assert_eq!(backend.generation, 2);
    }

    #[test]
    fn connection_gate_sheds_with_overloaded_frame() {
        let cfg = ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        };
        let (server, addr) = start_tcp(cfg);
        let mut first = crate::WireClient::connect_tcp(addr).expect("first");
        first.ping().expect("first connection serves");

        let mut second = crate::WireClient::connect_tcp(addr).expect("second connects");
        second
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let refusal = second.recv().expect("refusal frame");
        assert!(
            matches!(
                refusal,
                Message::Overloaded {
                    id: 0,
                    reason: OverloadReason::Connections,
                    ..
                }
            ),
            "got {refusal:?}"
        );
        // The shed socket then closes; the admitted one keeps working.
        assert!(second.recv().is_err());
        first.ping().expect("first connection still live");
        drop(server);
    }

    #[test]
    fn rate_limit_sheds_but_connection_survives() {
        let cfg = ServerConfig {
            rate_limit_pps: 1,
            rate_burst: 1,
            ..ServerConfig::default()
        };
        let (server, addr) = start_tcp(cfg);
        let mut client = crate::WireClient::connect_tcp(addr).expect("connect");
        let ok = client.lookup(&[(0, 1)]).expect("first admitted");
        assert!(matches!(ok, Message::LookupResponse { .. }), "got {ok:?}");
        let shed = client.lookup(&[(0, 2)]).expect("second replied");
        assert!(
            matches!(
                shed,
                Message::Overloaded {
                    reason: OverloadReason::RateLimited,
                    ..
                }
            ),
            "got {shed:?}"
        );
        // Pings are free and the connection is still open.
        client.ping().expect("connection survived the shed");
        drop(server);
    }

    #[test]
    fn frame_beyond_the_burst_is_a_bad_request() {
        let cfg = ServerConfig {
            rate_limit_pps: 1_000,
            rate_burst: 4,
            ..ServerConfig::default()
        };
        let (server, addr) = start_tcp(cfg);
        let mut client = crate::WireClient::connect_tcp(addr).expect("connect");
        let eight: Vec<(VnId, u32)> = (1..=8).map(|dst| (0, dst)).collect();
        let refused = client.lookup(&eight).expect("oversized frame replied");
        let Message::ErrorReply {
            code: ErrorCode::BadRequest,
            message,
            ..
        } = refused
        else {
            panic!("expected ErrorReply(BadRequest), got {refused:?}");
        };
        assert!(message.contains('8') && message.contains('4'), "{message}");
        // It took no tokens: a frame of the full burst is served at once.
        let served = client
            .lookup(&eight[..4])
            .expect("burst-sized frame replied");
        assert!(
            matches!(served, Message::LookupResponse { .. }),
            "got {served:?}"
        );
        client.ping().expect("connection stays live");
        drop(server);
    }

    #[cfg(unix)]
    #[test]
    fn uds_round_trip() {
        let path = std::env::temp_dir().join(format!("vr-wire-test-{}.sock", std::process::id()));
        let server =
            WireServer::serve_uds(&path, FakeBackend::new(), ServerConfig::default(), None)
                .expect("bind uds");
        let mut client = crate::WireClient::connect_uds(&path).expect("connect uds");
        let reply = client.lookup(&[(1, 5), (2, 0)]).expect("lookup");
        let Message::LookupResponse { results, .. } = reply else {
            panic!("expected LookupResponse, got {reply:?}");
        };
        assert_eq!(
            results,
            vec![FakeBackend::expected(1, 5), FakeBackend::expected(2, 0)]
        );
        drop(server);
        assert!(!path.exists(), "socket file cleaned up on drop");
    }

    #[test]
    fn shutdown_returns_backend_and_metrics_count() {
        let registry = Arc::new(MetricsRegistry::new(4));
        let server = WireServer::serve_tcp(
            "127.0.0.1:0",
            FakeBackend::new(),
            ServerConfig::default(),
            Some(&registry),
        )
        .expect("bind");
        let addr = server.local_addr().expect("addr");
        let mut client = crate::WireClient::connect_tcp(addr).expect("connect");
        let _ = client.lookup(&[(0, 1)]).expect("lookup");
        drop(client);
        let backend = server.shutdown().expect("backend");
        assert_eq!(backend.generation, 1);
        let snap = registry.snapshot();
        let count = |name: &str| {
            snap.counters
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.value)
        };
        assert_eq!(count("vr_wire_connections_total"), Some(1));
        assert_eq!(count("vr_wire_requests_total"), Some(1));
        assert_eq!(count("vr_wire_lookup_packets_total"), Some(1));
    }

    /// The test's side of [`FakeBackend::first_call_gate`].
    struct Gate {
        entered: Receiver<()>,
        open: Sender<()>,
    }

    /// A server whose first `lookup_into` call holds the backend lock
    /// until the test opens the gate.
    fn gated() -> (WireServer<FakeBackend>, Gate) {
        let (entered_tx, entered) = channel();
        let (open, open_rx) = channel();
        let mut backend = FakeBackend::new();
        backend.first_call_gate = Some((entered_tx, open_rx));
        let server = WireServer::serve_tcp("127.0.0.1:0", backend, ServerConfig::default(), None)
            .expect("bind");
        (server, Gate { entered, open })
    }

    /// [`gated`], with a client connected.
    fn start_gated() -> (WireServer<FakeBackend>, crate::WireClient, Gate) {
        let (server, gate) = gated();
        let client = connect(&server);
        (server, client, gate)
    }

    fn connect(server: &WireServer<FakeBackend>) -> crate::WireClient {
        let mut client =
            crate::WireClient::connect_tcp(server.local_addr().expect("addr")).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        client
    }

    /// Correlation id of the one-key frame that holds the gate.
    const PLUG: u64 = 999;

    /// Sends the [`PLUG`] frame and waits until its call holds the lock.
    /// The connection's thread is parked in that call, so the frames the
    /// test writes next wait in the socket, and its next read takes
    /// them all at once.
    fn plug(client: &mut crate::WireClient, gate: &Gate) {
        send_lookup(client, PLUG, 1);
        gate.entered.recv().expect("the plug's call holds the lock");
    }

    /// Opens the gate; the plug's reply comes first.
    fn unplug(client: &mut crate::WireClient, gate: &Gate) {
        gate.open
            .send(())
            .expect("the plug's call waits on the gate");
        expect_lookup_reply(client, PLUG, 1);
    }

    /// `n` keys that are `id`'s alone, so a reply cut from the wrong
    /// part of a grouped result cannot pass for the right one.
    fn keys_of(id: u64, n: usize) -> Vec<(VnId, u32)> {
        (0..n)
            .map(|i| {
                (
                    (id % FakeBackend::VNS as u64) as VnId,
                    (id as u32) * 100_000 + i as u32,
                )
            })
            .collect()
    }

    /// The frame id a [`keys_of`] key belongs to.
    fn owner(&(_, dst): &(VnId, u32)) -> u64 {
        u64::from(dst / 100_000)
    }

    /// What the backend answers for [`keys_of`]`(id, n)`.
    fn results_of(id: u64, n: usize) -> Vec<Option<NextHop>> {
        keys_of(id, n)
            .iter()
            .map(|&(vn, dst)| FakeBackend::expected(vn, dst))
            .collect()
    }

    fn send_lookup(client: &mut crate::WireClient, id: u64, n: usize) {
        client
            .send(&Message::LookupRequest {
                id,
                packets: keys_of(id, n),
            })
            .expect("send");
    }

    /// Receives the `LookupResponse` for (`id`, `n`) and checks every
    /// result; returns its generation.
    fn expect_lookup_reply(client: &mut crate::WireClient, id: u64, n: usize) -> u64 {
        let reply = client.recv().expect("reply");
        let Message::LookupResponse {
            id: got,
            generation,
            results,
        } = reply
        else {
            panic!("expected LookupResponse {id}, got {reply:?}");
        };
        assert_eq!(got, id, "replies come back in request order");
        assert_eq!(
            results,
            results_of(id, n),
            "frame {id} got its own slice of the group's results"
        );
        generation
    }

    #[test]
    fn queued_frames_share_calls_and_an_update_is_a_barrier() {
        let (server, mut client, gate) = start_gated();
        plug(&mut client, &gate);
        let burst = 8u64;
        for id in 1..=burst {
            send_lookup(&mut client, id, id as usize);
        }
        let update = vr_net::RouteUpdate::Announce {
            vnid: 2,
            prefix: vr_net::Ipv4Prefix::new(0x0A00_0000, 8).expect("prefix"),
            next_hop: 4,
        };
        client
            .send(&Message::RouteUpdateBatch {
                id: 100,
                updates: vec![update],
            })
            .expect("send update");
        for id in 101..=100 + burst {
            send_lookup(&mut client, id, (id - 100) as usize);
        }
        unplug(&mut client, &gate);

        for id in 1..=burst {
            assert_eq!(
                expect_lookup_reply(&mut client, id, id as usize),
                1,
                "before the update"
            );
        }
        let ack = client.recv().expect("ack");
        assert!(
            matches!(
                ack,
                Message::UpdateAck {
                    id: 100,
                    generation: 2
                }
            ),
            "got {ack:?}"
        );
        for id in 101..=100 + burst {
            let n = (id - 100) as usize;
            assert_eq!(
                expect_lookup_reply(&mut client, id, n),
                2,
                "after the update"
            );
        }
        let backend = server.shutdown().expect("backend");
        // The plug, then one call on each side of the update.
        let per_side = (1..=burst as usize).sum::<usize>();
        assert_eq!(backend.call_sizes(), vec![1, per_side, per_side]);
    }

    #[test]
    fn interleaved_connections_each_get_their_own_replies() {
        let (server, mut a, gate) = start_gated();
        let mut b = connect(&server);
        plug(&mut a, &gate);
        let per_conn = 6u64;
        for i in 0..per_conn {
            send_lookup(&mut a, 1_000 + i, 3);
            send_lookup(&mut b, 2_000 + i, 5);
        }
        unplug(&mut a, &gate);
        for i in 0..per_conn {
            expect_lookup_reply(&mut a, 1_000 + i, 3);
            expect_lookup_reply(&mut b, 2_000 + i, 5);
        }
        // Nothing of B's leaked onto A (or the reverse): both are idle.
        a.ping().expect("a idle");
        b.ping().expect("b idle");
        let backend = server.shutdown().expect("backend");
        // Groups never span connections: every call's keys come from
        // one connection (A's ids are 1 000.., B's 2 000..).
        let connection_of = |call: &Vec<(VnId, u32)>| {
            let conns: std::collections::BTreeSet<u64> =
                call.iter().map(|k| owner(k) / 1_000).collect();
            assert_eq!(conns.len(), 1, "a call spans connections: {call:?}");
            conns.into_iter().next()
        };
        let by_conn: Vec<_> = backend.calls.iter().map(connection_of).collect();
        // A's burst, written while A's thread held the gate, is one call.
        assert_eq!(
            by_conn.iter().filter(|&&c| c == Some(1)).count(),
            1,
            "{by_conn:?}"
        );
        let keys: usize = backend.call_sizes().iter().sum();
        assert_eq!(keys, 1 + per_conn as usize * 8, "every key looked up once");
    }

    #[test]
    fn frame_above_the_cap_is_served_alone() {
        let (server, _) = start_tcp(ServerConfig::default());
        let mut client = connect(&server);
        let big = GROUP_KEY_CAP + 1;
        send_lookup(&mut client, 1, 2);
        send_lookup(&mut client, 2, big);
        send_lookup(&mut client, 3, 2);
        send_lookup(&mut client, 4, 2);
        expect_lookup_reply(&mut client, 1, 2);
        expect_lookup_reply(&mut client, 2, big);
        expect_lookup_reply(&mut client, 3, 2);
        expect_lookup_reply(&mut client, 4, 2);
        let backend = server.shutdown().expect("backend");
        let calls = backend.call_sizes();
        assert_eq!(
            calls.iter().filter(|&&n| n == big).count(),
            1,
            "alone: {calls:?}"
        );
        assert!(
            calls.iter().all(|&n| n == big || n <= GROUP_KEY_CAP),
            "{calls:?}"
        );
        assert_eq!(calls.iter().sum::<usize>(), big + 6);
    }

    #[test]
    fn unknown_vn_frame_is_refused_alone_inside_a_burst() {
        let (server, mut client, gate) = start_gated();
        plug(&mut client, &gate);
        send_lookup(&mut client, 1, 4);
        send_lookup(&mut client, 2, 4);
        let mut poisoned = keys_of(3, 4);
        poisoned[2].0 = FakeBackend::VNS as VnId;
        client
            .send(&Message::LookupRequest {
                id: 3,
                packets: poisoned,
            })
            .expect("send");
        send_lookup(&mut client, 4, 4);
        send_lookup(&mut client, 5, 4);
        client.send(&Message::Ping { id: 6 }).expect("send ping");
        unplug(&mut client, &gate);
        // Every reply in request order: the refusal and the pong do not
        // overtake their neighbours.
        expect_lookup_reply(&mut client, 1, 4);
        expect_lookup_reply(&mut client, 2, 4);
        let refusal = client.recv().expect("refusal");
        assert!(
            matches!(
                refusal,
                Message::ErrorReply {
                    id: 3,
                    code: ErrorCode::UnknownVn,
                    ..
                }
            ),
            "got {refusal:?}"
        );
        expect_lookup_reply(&mut client, 4, 4);
        expect_lookup_reply(&mut client, 5, 4);
        let pong = client.recv().expect("pong");
        assert!(matches!(pong, Message::Pong { id: 6 }), "got {pong:?}");
        client.ping().expect("connection survives the refusal");
        let backend = server.shutdown().expect("backend");
        // Refused keys never reach the backend; the refusal closes the
        // group of 1 and 2, and 4 and 5 open the next.
        assert_eq!(backend.call_sizes(), vec![1, 8, 8]);
    }

    /// The bytes of [`send_lookup`]'s frame.
    fn frame_of(id: u64, n: usize) -> Vec<u8> {
        encode(&Message::LookupRequest {
            id,
            packets: keys_of(id, n),
        })
    }

    /// A burst whose third lookup frame fails its CRC, or carries a
    /// count its payload cannot hold behind a valid CRC: the two frames
    /// before it are answered from one call, then one
    /// `ErrorReply(BadRequest)` with id 0 names the framing error, and
    /// the connection closes; the frame after it is never served.
    #[test]
    fn a_bad_lookup_frame_inside_a_burst_ends_the_stream_after_its_predecessors() {
        use crate::frame::{crc32, HEADER_LEN};
        use std::io::{Read, Write};
        let mut bad_crc = frame_of(3, 4);
        let last = bad_crc.len() - 1;
        bad_crc[last] ^= 0x40;
        let mut long_count = frame_of(3, 4);
        long_count[HEADER_LEN + 8..HEADER_LEN + 12].copy_from_slice(&5u32.to_le_bytes());
        let crc = crc32(&long_count[HEADER_LEN..]);
        long_count[12..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        for bad in [bad_crc, long_count] {
            let mut alone = FrameDecoder::new();
            alone.feed(&bad);
            let err = alone.next_message().expect_err("the frame is bad");
            let (server, gate) = gated();
            let mut stream =
                TcpStream::connect(server.local_addr().expect("addr")).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            stream.write_all(&frame_of(PLUG, 1)).expect("send plug");
            gate.entered.recv().expect("the plug's call holds the lock");
            let burst = [frame_of(1, 4), frame_of(2, 4), bad, frame_of(4, 4)].concat();
            stream.write_all(&burst).expect("send burst");
            gate.open
                .send(())
                .expect("the plug's call waits on the gate");
            let mut bytes = Vec::new();
            let mut chunk = [0u8; 4096];
            loop {
                match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => bytes.extend_from_slice(&chunk[..n]),
                }
            }
            let mut replies = FrameDecoder::new();
            replies.feed(&bytes);
            let mut got = Vec::new();
            while let Some(msg) = replies.next_message().expect("replies decode") {
                got.push(msg);
            }
            let answer = |id: u64, n: usize| Message::LookupResponse {
                id,
                generation: 1,
                results: results_of(id, n),
            };
            let refusal = Message::ErrorReply {
                id: 0,
                code: ErrorCode::BadRequest,
                message: err.to_string(),
            };
            assert_eq!(got, [answer(PLUG, 1), answer(1, 4), answer(2, 4), refusal]);
            let backend = server.shutdown().expect("backend");
            assert_eq!(backend.call_sizes(), vec![1, 8]);
        }
    }
}
