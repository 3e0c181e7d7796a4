//! Blocking socket server for the `VRW1` protocol.
//!
//! Shape: an accept loop per listener (TCP and/or Unix-domain) admits
//! connections through the shared [`vr_obs::AcceptGate`]; each admitted
//! connection gets a reader thread (owns the [`FrameDecoder`] and the
//! token bucket) and a writer thread (owns the bounded reply queue and
//! the socket's write side). Decoded work frames flow over one bounded
//! job channel into a single backend thread that owns the
//! [`WireBackend`] — so lookups and route-update batches are
//! *serialized*, and a lookup batch can never straddle a publish: the
//! `(results, generation)` pair it returns is torn-free by
//! construction, extending the engine's never-torn batch guarantee
//! across the wire.
//!
//! The backend thread makes one `lookup` call per *drained queue*, not
//! per frame: the lookup frames already queued behind the one it
//! dequeued (pipelined by one connection, or sent by several) are
//! resolved together, up to a fixed key cap, and answered one
//! `LookupResponse` each, in dequeue order, all tagged with the one
//! generation that call resolved against — so never-torn spans the
//! frames of a group. A queued update ends the group and runs after
//! it: updates stay barriers. A frame naming a VN the backend does not
//! host is answered `ErrorReply(UnknownVn)` by itself and never
//! reaches the engine. The fixed cost of a backend call (a worker
//! hand-off and its wake-ups, a few µs) is then paid once per group
//! instead of once per frame; with one frame in flight a group is that
//! frame.
//!
//! Admission control sheds, it never stalls:
//!
//! 1. **Connection gate** — past `max_connections`, the socket gets an
//!    `Overloaded(Connections)` frame via the shared half-close-drain
//!    helper and is closed.
//! 2. **Token bucket** — per-connection packets-per-second budget;
//!    over-budget frames get `Overloaded(RateLimited)` and the
//!    connection stays open.
//! 3. **Queue watermark** — a full backend job queue returns
//!    `Overloaded(QueueFull)` immediately instead of queueing the
//!    caller behind a convoy.
//! 4. **Slow reader** — a full per-connection reply queue (the client
//!    stopped reading) disconnects the offender so it cannot wedge the
//!    backend; a write timeout bounds the cost of a half-dead peer.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use parking_lot::Mutex;
use vr_engine::{LookupService, ShardedService};
use vr_net::{NextHop, RouteUpdate, VnId};
use vr_obs::{shed_with, AcceptGate};
use vr_telemetry::{Counter, MetricsRegistry, Stopwatch};

use crate::frame::{encode, encode_into, ErrorCode, Message, OverloadReason, WireError};
use crate::FrameDecoder;

/// Reader poll granularity: the read timeout that lets a blocked
/// reader notice a doomed/stopping connection.
const READER_TICK: Duration = Duration::from_millis(100);

/// Tuning for [`WireServer`]. `Default` is sized for tests and the
/// smoke harness; the replay binary overrides per scenario.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent-connection bound enforced by the accept gate.
    pub max_connections: usize,
    /// Backend job queue depth — the overload watermark.
    pub job_queue_depth: usize,
    /// Per-connection reply queue depth — the slow-reader bound.
    pub writer_queue_depth: usize,
    /// Per-connection token-bucket rate in packets/updates per second;
    /// `0` disables rate limiting.
    pub rate_limit_pps: u64,
    /// Token-bucket burst capacity in packets; `0` means one second's
    /// worth of `rate_limit_pps`.
    pub rate_burst: u64,
    /// Back-off hint stamped into `Overloaded` frames.
    pub retry_after_ms: u32,
    /// Socket write timeout — bounds how long a wedged peer can hold
    /// the writer thread.
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

/// What the server needs from a lookup/control engine. Implementations
/// run on the single backend thread, so `&mut self` methods are
/// naturally serialized — a lookup can never interleave with an update
/// publish.
pub trait WireBackend: Send + 'static {
    /// Resolves a packet batch; returns per-packet next hops in input
    /// order plus the snapshot generation the whole batch used.
    fn lookup(&mut self, packets: &[(VnId, u32)]) -> (Vec<Option<NextHop>>, u64);
    /// Applies a route-update batch atomically (one publish); returns
    /// the generation now live, or a human-readable refusal.
    fn apply_updates(&mut self, updates: &[RouteUpdate]) -> Result<u64, String>;
    /// The currently live generation.
    fn generation(&self) -> u64;
    /// How many virtual networks are hosted: a lookup may name VN ids
    /// `0..vn_count()` and nothing else. The server checks every frame
    /// against it, so [`Self::lookup`] never sees an unhosted VN.
    fn vn_count(&self) -> usize;
}

impl WireBackend for LookupService {
    fn lookup(&mut self, packets: &[(VnId, u32)]) -> (Vec<Option<NextHop>>, u64) {
        let generation = self.generation();
        (self.process(packets), generation)
    }

    fn apply_updates(&mut self, updates: &[RouteUpdate]) -> Result<u64, String> {
        LookupService::apply_updates(self, updates).map_err(|e| e.to_string())
    }

    fn generation(&self) -> u64 {
        LookupService::generation(self)
    }

    fn vn_count(&self) -> usize {
        self.tables().len()
    }
}

impl WireBackend for ShardedService {
    fn lookup(&mut self, packets: &[(VnId, u32)]) -> (Vec<Option<NextHop>>, u64) {
        let generation = self.generation();
        (self.process(packets), generation)
    }

    fn apply_updates(&mut self, _updates: &[RouteUpdate]) -> Result<u64, String> {
        Err("sharded backend is lookup-only; route updates need the control plane".into())
    }

    fn generation(&self) -> u64 {
        ShardedService::generation(self)
    }

    fn vn_count(&self) -> usize {
        self.tables().len()
    }
}

impl WireBackend for vr_control::ControlPlane {
    fn lookup(&mut self, packets: &[(VnId, u32)]) -> (Vec<Option<NextHop>>, u64) {
        let generation = self.service().generation();
        (self.service_mut().process(packets), generation)
    }

    fn apply_updates(&mut self, updates: &[RouteUpdate]) -> Result<u64, String> {
        self.apply_batch(updates)
            .map(|outcome| outcome.generation)
            .map_err(|e| e.to_string())
    }

    fn generation(&self) -> u64 {
        self.service().generation()
    }

    fn vn_count(&self) -> usize {
        self.service().tables().len()
    }
}

/// The socket abstraction both listeners produce. All methods take
/// `&self` (sockets support concurrent read/write through shared
/// references), so one `Arc` serves the reader, the writer, and the
/// backend's kill switch.
trait WireStream: Send + Sync {
    fn read_some(&self, buf: &mut [u8]) -> io::Result<usize>;
    fn write_frame(&self, bytes: &[u8]) -> io::Result<()>;
    fn shutdown_both(&self);
    fn set_timeouts(&self, read: Duration, write: Duration);
}

impl WireStream for TcpStream {
    fn read_some(&self, buf: &mut [u8]) -> io::Result<usize> {
        (&mut &*self).read(buf)
    }

    fn write_frame(&self, bytes: &[u8]) -> io::Result<()> {
        (&mut &*self).write_all(bytes)
    }

    fn shutdown_both(&self) {
        let _ = self.shutdown(std::net::Shutdown::Both);
    }

    fn set_timeouts(&self, read: Duration, write: Duration) {
        let _ = self.set_read_timeout(Some(read));
        let _ = self.set_write_timeout(Some(write));
    }
}

#[cfg(unix)]
impl WireStream for UnixStream {
    fn read_some(&self, buf: &mut [u8]) -> io::Result<usize> {
        (&mut &*self).read(buf)
    }

    fn write_frame(&self, bytes: &[u8]) -> io::Result<()> {
        (&mut &*self).write_all(bytes)
    }

    fn shutdown_both(&self) {
        let _ = self.shutdown(std::net::Shutdown::Both);
    }

    fn set_timeouts(&self, read: Duration, write: Duration) {
        let _ = self.set_read_timeout(Some(read));
        let _ = self.set_write_timeout(Some(write));
    }
}

/// One decoded work frame in flight to the backend thread.
struct Job {
    msg: Message,
    reply: ReplyTo,
}

/// Where the backend thread sends a job's answer.
struct ReplyTo {
    /// The connection's bounded reply queue.
    queue: Sender<Message>,
    /// Kill switch for the slow-reader case: shutting the socket down
    /// wakes both connection threads into their exit paths.
    stream: Arc<dyn WireStream>,
}

impl ReplyTo {
    fn send(&self, msg: Message, metrics: &WireMetrics) {
        if let Err(TrySendError::Full(_)) = self.queue.try_send(msg) {
            // The client asked for work, then stopped reading the
            // answers. Cut it loose rather than let its queue
            // backpressure the shared backend.
            WireMetrics::bump(&metrics.slow_reader_disconnects, 0, 1);
            self.stream.shutdown_both();
        }
    }
}

/// Counters the server publishes when given a registry. Handles are
/// cheap clones; shard indexes wrap inside the counter.
#[derive(Clone)]
struct WireMetrics {
    connections: Option<Counter>,
    shed_connections: Option<Counter>,
    shed_rate_limited: Option<Counter>,
    shed_queue_full: Option<Counter>,
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
            shed_queue_full: c("vr_wire_shed_queue_full_total"),
            slow_reader_disconnects: c("vr_wire_slow_reader_disconnects_total"),
            requests: c("vr_wire_requests_total"),
            lookup_packets: c("vr_wire_lookup_packets_total"),
            updates: c("vr_wire_updates_total"),
            decode_errors: c("vr_wire_decode_errors_total"),
        }
    }

    fn bump(counter: &Option<Counter>, shard: usize, n: u64) {
        if let Some(c) = counter {
            c.add(shard, n);
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

    /// Takes `cost` tokens if the refilled budget covers them.
    fn try_take(&mut self, cost: u64) -> bool {
        if self.rate_pps == 0 {
            return true;
        }
        let now = self.clock.elapsed_ns();
        let gained = now.saturating_sub(self.last_ns).saturating_mul(self.rate_pps);
        self.last_ns = now;
        self.available_tok_ns = self
            .available_tok_ns
            .saturating_add(gained)
            .min(self.capacity_tok_ns);
        let need = cost.saturating_mul(TOK_NS);
        if self.available_tok_ns >= need {
            self.available_tok_ns -= need;
            true
        } else {
            false
        }
    }
}

/// Shared server state the accept loops and connections see.
struct Shared {
    gate: Arc<AcceptGate>,
    stopping: Mutex<bool>,
    cfg: ServerConfig,
    metrics: WireMetrics,
    /// Cloned once per admitted connection; taken (set to `None`) at
    /// shutdown so the backend's channel fully disconnects once the
    /// last connection reader exits.
    job_tx: Mutex<Option<Sender<Job>>>,
}

/// A running `VRW1` server. Dropping it (or calling
/// [`WireServer::shutdown`]) stops the accept loops, disconnects the
/// job queue, and joins the backend thread.
pub struct WireServer<B: WireBackend> {
    addr: Option<SocketAddr>,
    #[cfg(unix)]
    uds_path: Option<std::path::PathBuf>,
    shared: Arc<Shared>,
    accept_threads: Vec<std::thread::JoinHandle<()>>,
    backend_thread: Option<std::thread::JoinHandle<B>>,
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
        let mut server = Self::start(backend, cfg, registry)?;
        server.addr = Some(local);
        server.spawn_acceptor("vr-wire-tcp", move |shared| tcp_accept_loop(&listener, &shared))?;
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
        let mut server = Self::start(backend, cfg, registry)?;
        server.uds_path = Some(path);
        server.spawn_acceptor("vr-wire-uds", move |shared| uds_accept_loop(&listener, &shared))?;
        Ok(server)
    }

    fn start(
        backend: B,
        cfg: ServerConfig,
        registry: Option<&Arc<MetricsRegistry>>,
    ) -> io::Result<Self> {
        let metrics = WireMetrics::new(registry);
        let (job_tx, job_rx) = bounded::<Job>(cfg.job_queue_depth.max(1));
        let shared = Arc::new(Shared {
            gate: AcceptGate::new(cfg.max_connections),
            stopping: Mutex::new(false),
            cfg,
            metrics: metrics.clone(),
            job_tx: Mutex::new(Some(job_tx)),
        });
        let backend_thread = std::thread::Builder::new()
            .name("vr-wire-backend".into())
            .spawn(move || backend_loop(backend, &job_rx, &metrics))?;
        Ok(Self {
            addr: None,
            #[cfg(unix)]
            uds_path: None,
            shared,
            accept_threads: Vec::new(),
            backend_thread: Some(backend_thread),
        })
    }

    fn spawn_acceptor(
        &mut self,
        name: &str,
        run: impl FnOnce(Arc<Shared>) + Send + 'static,
    ) -> io::Result<()> {
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || run(shared))?;
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

    /// Stops accepting, disconnects the job queue, joins the backend
    /// thread, and returns the backend (so a test can compare the
    /// served state against an oracle).
    #[must_use = "the returned backend carries final state; drop it explicitly if unwanted"]
    pub fn shutdown(mut self) -> Option<B> {
        self.stop_accepting();
        // Replacing the shared handle is not possible (connections hold
        // clones), but connection readers observe `stopping` within a
        // reader tick and drop their job senders; the backend exits
        // when the channel fully disconnects.
        let backend = self.backend_thread.take().and_then(|h| h.join().ok());
        #[cfg(unix)]
        if let Some(path) = self.uds_path.take() {
            let _ = std::fs::remove_file(path);
        }
        backend
    }

    fn stop_accepting(&mut self) {
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
        // Release the server's own job sender: the backend now exits as
        // soon as every connection reader (each observes `stopping`
        // within a reader tick) drops its clone.
        *self.shared.job_tx.lock() = None;
    }
}

impl<B: WireBackend> Drop for WireServer<B> {
    fn drop(&mut self) {
        self.stop_accepting();
        if let Some(handle) = self.backend_thread.take() {
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

fn tcp_accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if *shared.stopping.lock() {
                return;
            }
            continue;
        };
        if *shared.stopping.lock() {
            return;
        }
        admit(stream, shared);
    }
}

#[cfg(unix)]
fn uds_accept_loop(listener: &UnixListener, shared: &Arc<Shared>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if *shared.stopping.lock() {
                return;
            }
            continue;
        };
        if *shared.stopping.lock() {
            return;
        }
        admit(stream, shared);
    }
}

/// Gate + spawn for one fresh connection; works for any stream kind
/// that is both sheddable (`vr_obs::ShedStream`) and servable
/// ([`WireStream`]).
fn admit<S>(stream: S, shared: &Arc<Shared>)
where
    S: WireStream + vr_obs::ShedStream + 'static,
{
    let Some(permit) = shared.gate.try_admit() else {
        WireMetrics::bump(&shared.metrics.shed_connections, 0, 1);
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
        return;
    };
    let Some(job_tx) = shared.job_tx.lock().clone() else {
        // Shutdown raced the accept: no backend to serve this socket.
        return;
    };
    WireMetrics::bump(&shared.metrics.connections, 0, 1);
    let conn_shared = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name("vr-wire-conn".into())
        .spawn(move || {
            // Held for the reader's lifetime; the writer's final flush
            // after reader exit is bounded by the write timeout.
            let _permit = permit;
            serve_connection(Arc::new(stream), &conn_shared, &job_tx);
        });
    // Spawn failure (resource exhaustion): the permit already dropped
    // with the closure; the socket closes unreplied, which the client
    // sees as a refused connection.
    drop(spawned);
}

/// The reader side of one connection: decode frames, run admission,
/// forward work to the backend, echo pings locally.
fn serve_connection(stream: Arc<dyn WireStream>, shared: &Arc<Shared>, job_tx: &Sender<Job>) {
    stream.set_timeouts(
        READER_TICK,
        Duration::from_millis(shared.cfg.write_timeout_ms),
    );
    let (reply_tx, reply_rx) = bounded::<Message>(shared.cfg.writer_queue_depth.max(1));
    let writer_stream = Arc::clone(&stream);
    let writer = std::thread::Builder::new()
        .name("vr-wire-writer".into())
        .spawn(move || writer_loop(&writer_stream, &reply_rx));
    if writer.is_err() {
        stream.shutdown_both();
        return;
    }
    let mut decoder = FrameDecoder::new();
    let mut bucket = TokenBucket::new(shared.cfg.rate_limit_pps, shared.cfg.rate_burst);
    let mut read_buf = [0u8; 16 * 1024];
    'conn: loop {
        match stream.read_some(&mut read_buf) {
            Ok(0) => break 'conn,
            Ok(n) => decoder.feed(&read_buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
                ) =>
            {
                if *shared.stopping.lock() {
                    break 'conn;
                }
                continue;
            }
            Err(_) => break 'conn,
        }
        loop {
            match decoder.next_message() {
                Ok(Some(msg)) => {
                    if !handle_frame(msg, &stream, shared, job_tx, &mut bucket, &reply_tx) {
                        break 'conn;
                    }
                }
                Ok(None) => break,
                Err(err) => {
                    // Framing is unrecoverable: report once, then tear
                    // the connection down (fail-stop, no resync).
                    WireMetrics::bump(&shared.metrics.decode_errors, 0, 1);
                    let _ = reply_tx.try_send(error_reply(0, &err));
                    break 'conn;
                }
            }
        }
    }
    // Dropping the last reply sender lets the writer drain and exit;
    // the socket closes when the writer's Arc drops.
    drop(reply_tx);
}

/// Routes one decoded frame. Returns `false` when the connection must
/// close (slow reader or server stopping).
fn handle_frame(
    msg: Message,
    stream: &Arc<dyn WireStream>,
    shared: &Arc<Shared>,
    job_tx: &Sender<Job>,
    bucket: &mut TokenBucket,
    reply_tx: &Sender<Message>,
) -> bool {
    let metrics = &shared.metrics;
    // (correlation id, token cost) for the two work-frame kinds; None
    // for everything else.
    let work = match &msg {
        Message::LookupRequest { id, packets } => Some((*id, packets.len() as u64)),
        Message::RouteUpdateBatch { id, updates } => Some((*id, updates.len() as u64)),
        _ => None,
    };
    let reply = if let Some((id, cost)) = work {
        WireMetrics::bump(&metrics.requests, 0, 1);
        if !bucket.try_take(cost.max(1)) {
            WireMetrics::bump(&metrics.shed_rate_limited, 0, 1);
            Some(overloaded(id, OverloadReason::RateLimited, shared))
        } else {
            let job = Job {
                msg,
                reply: ReplyTo {
                    queue: reply_tx.clone(),
                    stream: Arc::clone(stream),
                },
            };
            match job_tx.try_send(job) {
                Ok(()) => None,
                Err(TrySendError::Full(job)) => {
                    WireMetrics::bump(&metrics.shed_queue_full, 0, 1);
                    drop(job);
                    Some(overloaded(id, OverloadReason::QueueFull, shared))
                }
                Err(TrySendError::Disconnected(_)) => return false,
            }
        }
    } else if let Message::Ping { id } = msg {
        Some(Message::Pong { id })
    } else {
        Some(Message::ErrorReply {
            id: msg.id(),
            code: ErrorCode::BadRequest,
            message: format!("unexpected client frame type 0x{:02x}", msg.frame_type()),
        })
    };
    let Some(reply) = reply else { return true };
    match reply_tx.try_send(reply) {
        Ok(()) => true,
        Err(_) => {
            // Reply queue full while we are still reading: the peer
            // writes but does not read. Disconnect it.
            WireMetrics::bump(&metrics.slow_reader_disconnects, 0, 1);
            stream.shutdown_both();
            false
        }
    }
}

fn overloaded(id: u64, reason: OverloadReason, shared: &Arc<Shared>) -> Message {
    Message::Overloaded {
        id,
        reason,
        retry_after_ms: shared.cfg.retry_after_ms,
    }
}

fn error_reply(id: u64, err: &WireError) -> Message {
    Message::ErrorReply {
        id,
        code: ErrorCode::BadRequest,
        message: err.to_string(),
    }
}

/// Writer side of one connection: encode and flush queued replies.
fn writer_loop(stream: &Arc<dyn WireStream>, reply_rx: &Receiver<Message>) {
    let mut buf = Vec::with_capacity(4 * 1024);
    while let Ok(msg) = reply_rx.recv() {
        buf.clear();
        encode_into(&msg, &mut buf);
        if stream.write_frame(&buf).is_err() {
            stream.shutdown_both();
            return;
        }
    }
}

/// Key cap of one backend call: the backend thread stops adding
/// queued lookup frames to a group once it holds this many keys. A few
/// thousand keys per worker is where the service hand-off costs 1.03×
/// the walk (ROADMAP, layer budget); past that a larger call only
/// delays the group's first reply.
const GROUP_KEY_CAP: usize = 8 * 1024;

/// The lookup frames one backend call serves: their keys back to back
/// in one reused buffer, and per frame what the reply needs.
#[derive(Default)]
struct Group {
    keys: Vec<(VnId, u32)>,
    /// (correlation id, key count, destination), in dequeue order.
    frames: Vec<(u64, usize, ReplyTo)>,
}

impl Group {
    /// Whether a frame of `n` keys may join: an open group takes frames
    /// up to the cap; an empty one takes any frame, so a frame larger
    /// than the cap is served alone.
    fn admits(&self, n: usize) -> bool {
        self.frames.is_empty() || self.keys.len() + n <= GROUP_KEY_CAP
    }

    /// One backend call for the whole group, then one `LookupResponse`
    /// per frame, all tagged with the generation that call resolved
    /// against. Leaves the group empty.
    fn serve<B: WireBackend>(&mut self, backend: &mut B, metrics: &WireMetrics) {
        if self.frames.is_empty() {
            return;
        }
        let (results, generation) = backend.lookup(&self.keys);
        let mut rest = results.as_slice();
        for (id, n, to) in self.frames.drain(..) {
            let reply = match rest.split_at_checked(n) {
                Some((own, tail)) => {
                    rest = tail;
                    Message::LookupResponse {
                        id,
                        generation,
                        results: own.to_vec(),
                    }
                }
                None => Message::ErrorReply {
                    id,
                    code: ErrorCode::Internal,
                    message: "backend returned fewer results than keys".into(),
                },
            };
            to.send(reply, metrics);
        }
        self.keys.clear();
    }
}

/// The single backend thread: owns the engine, serializes lookups and
/// updates, scatters replies back to connection writer queues.
///
/// Lookups are served one backend call per *drained queue*: once a
/// `LookupRequest` is dequeued, the lookup frames already waiting
/// behind it join its group (up to [`GROUP_KEY_CAP`] keys), one
/// `lookup` call resolves them all, and the results are cut back into
/// one `LookupResponse` per frame, in dequeue order. Whatever is
/// dequeued next and cannot join — an update, or a frame that would
/// overflow the cap — closes the group and runs after it, so an update
/// is still a barrier and every frame of a group carries the one
/// generation its call resolved against. With one frame in flight a
/// group is that frame. A frame naming a VN the backend does not host
/// never joins: it alone is answered `UnknownVn`.
fn backend_loop<B: WireBackend>(mut backend: B, job_rx: &Receiver<Job>, metrics: &WireMetrics) -> B {
    let mut group = Group::default();
    // A lookup frame dequeued for a group it did not fit: opens the next.
    let mut held: Option<Job> = None;
    loop {
        // Block only with no group open; an open group takes what is
        // already queued and never waits for more.
        let job = if held.is_some() {
            held.take()
        } else if group.frames.is_empty() {
            match job_rx.recv() {
                Ok(job) => Some(job),
                Err(_) => return backend,
            }
        } else if group.keys.len() < GROUP_KEY_CAP {
            job_rx.try_recv().ok()
        } else {
            None
        };
        match job {
            Some(Job {
                msg: Message::LookupRequest { id, packets },
                reply,
            }) if group.admits(packets.len()) => {
                let vn_count = backend.vn_count();
                match packets.iter().find(|&&(vn, _)| usize::from(vn) >= vn_count) {
                    Some(&(vn, _)) => reply.send(
                        Message::ErrorReply {
                            id,
                            code: ErrorCode::UnknownVn,
                            message: format!("vn {vn} is not hosted ({vn_count} are)"),
                        },
                        metrics,
                    ),
                    None => {
                        WireMetrics::bump(&metrics.lookup_packets, 0, packets.len() as u64);
                        group.keys.extend_from_slice(&packets);
                        group.frames.push((id, packets.len(), reply));
                    }
                }
            }
            closing => {
                group.serve(&mut backend, metrics);
                match closing {
                    None => {}
                    Some(job @ Job { msg: Message::LookupRequest { .. }, .. }) => held = Some(job),
                    Some(Job { msg, reply }) => reply.send(apply(&mut backend, msg, metrics), metrics),
                }
            }
        }
    }
}

/// Runs a non-lookup job: a route-update batch, one publish.
fn apply<B: WireBackend>(backend: &mut B, msg: Message, metrics: &WireMetrics) -> Message {
    match msg {
        Message::RouteUpdateBatch { id, updates } => {
            WireMetrics::bump(&metrics.updates, 0, updates.len() as u64);
            match backend.apply_updates(&updates) {
                Ok(generation) => Message::UpdateAck { id, generation },
                Err(message) => Message::ErrorReply {
                    id,
                    code: ErrorCode::Internal,
                    message,
                },
            }
        }
        // The reader never forwards anything else.
        other => Message::ErrorReply {
            id: other.id(),
            code: ErrorCode::Internal,
            message: "non-work frame reached the backend".into(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Deterministic engine stand-in: next hop = low byte of (vn + dst),
    /// zero dst = no route; updates bump the generation. `lookup_delay`
    /// simulates a slow backend for the queue-watermark tests.
    struct FakeBackend {
        generation: u64,
        lookup_delay: Duration,
        /// Key count of every `lookup` call, in call order.
        calls: Vec<usize>,
        /// The first `lookup` call blocks until the paired sender fires
        /// or drops, so a test can fill the job queue behind it.
        first_call_gate: Option<Receiver<()>>,
    }

    impl FakeBackend {
        /// VN ids `0..VNS` are hosted.
        const VNS: usize = 16;

        fn new() -> Self {
            Self {
                generation: 1,
                lookup_delay: Duration::ZERO,
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
    }

    impl WireBackend for FakeBackend {
        fn lookup(&mut self, packets: &[(VnId, u32)]) -> (Vec<Option<NextHop>>, u64) {
            self.calls.push(packets.len());
            if let Some(gate) = self.first_call_gate.take() {
                let _ = gate.recv();
            }
            if !self.lookup_delay.is_zero() {
                std::thread::sleep(self.lookup_delay);
            }
            let results = packets
                .iter()
                .map(|&(vn, dst)| Self::expected(vn, dst))
                .collect();
            (results, self.generation)
        }

        fn apply_updates(&mut self, updates: &[RouteUpdate]) -> Result<u64, String> {
            if updates.is_empty() {
                return Err("empty update batch".into());
            }
            self.generation += 1;
            Ok(self.generation)
        }

        fn generation(&self) -> u64 {
            self.generation
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
        assert!(matches!(ack, Message::UpdateAck { generation: 2, .. }), "got {ack:?}");

        // Lookups after the ack see the new generation.
        let reply = client.lookup(&packets).expect("lookup 2");
        assert!(matches!(reply, Message::LookupResponse { generation: 2, .. }));

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
    fn full_job_queue_sheds_with_queue_full() {
        let cfg = ServerConfig {
            job_queue_depth: 1,
            writer_queue_depth: 64,
            ..ServerConfig::default()
        };
        let mut backend = FakeBackend::new();
        backend.lookup_delay = Duration::from_millis(50);
        let server = WireServer::serve_tcp("127.0.0.1:0", backend, cfg, None).expect("bind");
        let addr = server.local_addr().expect("addr");
        let mut client = crate::WireClient::connect_tcp(addr).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        // Flood without reading: the slow backend drains one job at a
        // time, so most of the burst must bounce off the depth-1 queue.
        let burst = 8;
        for i in 0..burst {
            client
                .send(&Message::LookupRequest {
                    id: 100 + i,
                    packets: vec![(0, 1)],
                })
                .expect("send");
        }
        let mut served = 0;
        let mut shed = 0;
        for _ in 0..burst {
            match client.recv().expect("reply") {
                Message::LookupResponse { .. } => served += 1,
                Message::Overloaded {
                    reason: OverloadReason::QueueFull,
                    ..
                } => shed += 1,
                other => panic!("unexpected reply {other:?}"),
            }
        }
        assert!(served >= 1, "at least one admitted");
        assert!(shed >= 1, "at least one shed, served={served}");
        // Live after the storm.
        client.ping().expect("connection survived");
        drop(server);
    }

    #[cfg(unix)]
    #[test]
    fn uds_round_trip() {
        let path = std::env::temp_dir().join(format!("vr-wire-test-{}.sock", std::process::id()));
        let server = WireServer::serve_uds(&path, FakeBackend::new(), ServerConfig::default(), None)
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
        let count = |name: &str| snap.counters.iter().find(|c| c.name == name).map(|c| c.value);
        assert_eq!(count("vr_wire_connections_total"), Some(1));
        assert_eq!(count("vr_wire_requests_total"), Some(1));
        assert_eq!(count("vr_wire_lookup_packets_total"), Some(1));
    }

    /// A server whose first `lookup` call blocks until the returned
    /// sender fires: whatever the test sends meanwhile queues behind it.
    fn start_gated() -> (WireServer<FakeBackend>, crate::WireClient, Sender<()>) {
        let (open, gate) = bounded(1);
        let mut backend = FakeBackend::new();
        backend.first_call_gate = Some(gate);
        let server = WireServer::serve_tcp("127.0.0.1:0", backend, ServerConfig::default(), None)
            .expect("bind");
        let client = connect(&server);
        (server, client, open)
    }

    fn connect(server: &WireServer<FakeBackend>) -> crate::WireClient {
        let mut client =
            crate::WireClient::connect_tcp(server.local_addr().expect("addr")).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        client
    }

    /// `n` keys that are `id`'s alone, so a reply cut from the wrong
    /// part of a grouped result cannot pass for the right one.
    fn keys_of(id: u64, n: usize) -> Vec<(VnId, u32)> {
        (0..n)
            .map(|i| ((id % FakeBackend::VNS as u64) as VnId, (id as u32) * 100_000 + i as u32))
            .collect()
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

    /// The reader handles a connection's frames in order, so once the
    /// pong is back every work frame sent before the ping sits in the
    /// job queue. Only valid while the gate holds the backend (no
    /// lookup reply can overtake the pong).
    fn enqueue_barrier(client: &mut crate::WireClient) {
        client.ping().expect("pong: earlier frames are queued");
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
        assert_eq!(results, results_of(id, n), "frame {id} got its own slice of the group's results");
        generation
    }

    fn assert_grouped(calls: &[usize], frames: usize, keys: usize) {
        assert!(
            calls.len() < frames,
            "{frames} queued frames must share backend calls, saw {calls:?}"
        );
        assert!(calls.iter().all(|&n| n <= GROUP_KEY_CAP), "call above the cap: {calls:?}");
        assert_eq!(calls.iter().sum::<usize>(), keys, "every key looked up once: {calls:?}");
    }

    #[test]
    fn queued_frames_share_calls_and_an_update_is_a_barrier() {
        let (server, mut client, open) = start_gated();
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
        enqueue_barrier(&mut client);
        open.send(()).expect("backend waits on the gate");

        for id in 1..=burst {
            assert_eq!(expect_lookup_reply(&mut client, id, id as usize), 1, "before the update");
        }
        let ack = client.recv().expect("ack");
        assert!(
            matches!(ack, Message::UpdateAck { id: 100, generation: 2 }),
            "got {ack:?}"
        );
        for id in 101..=100 + burst {
            let n = (id - 100) as usize;
            assert_eq!(expect_lookup_reply(&mut client, id, n), 2, "after the update");
        }
        let backend = server.shutdown().expect("backend");
        let keys = 2 * (1..=burst as usize).sum::<usize>();
        assert_grouped(&backend.calls, 2 * burst as usize, keys);
    }

    #[test]
    fn interleaved_connections_each_get_their_own_replies() {
        let (server, mut a, open) = start_gated();
        let mut b = connect(&server);
        let per_conn = 6u64;
        // A barrier after every frame pins the queue order to A, B, A, B…
        for i in 0..per_conn {
            send_lookup(&mut a, 1_000 + i, 3);
            enqueue_barrier(&mut a);
            send_lookup(&mut b, 2_000 + i, 5);
            enqueue_barrier(&mut b);
        }
        open.send(()).expect("backend waits on the gate");
        for i in 0..per_conn {
            expect_lookup_reply(&mut a, 1_000 + i, 3);
            expect_lookup_reply(&mut b, 2_000 + i, 5);
        }
        // Nothing of B's leaked onto A (or the reverse): both are idle.
        a.ping().expect("a idle");
        b.ping().expect("b idle");
        let backend = server.shutdown().expect("backend");
        assert_grouped(&backend.calls, 2 * per_conn as usize, per_conn as usize * 8);
    }

    #[test]
    fn frame_above_the_cap_is_served_alone() {
        let (server, mut client, open) = start_gated();
        let big = GROUP_KEY_CAP + 1;
        send_lookup(&mut client, 1, 2);
        send_lookup(&mut client, 2, big);
        send_lookup(&mut client, 3, 2);
        send_lookup(&mut client, 4, 2);
        enqueue_barrier(&mut client);
        open.send(()).expect("backend waits on the gate");
        expect_lookup_reply(&mut client, 1, 2);
        expect_lookup_reply(&mut client, 2, big);
        expect_lookup_reply(&mut client, 3, 2);
        expect_lookup_reply(&mut client, 4, 2);
        let backend = server.shutdown().expect("backend");
        let calls = &backend.calls;
        assert_eq!(calls.iter().filter(|&&n| n == big).count(), 1, "alone: {calls:?}");
        assert!(calls.iter().all(|&n| n == big || n <= GROUP_KEY_CAP), "{calls:?}");
        assert_eq!(calls.iter().sum::<usize>(), big + 6);
    }

    #[test]
    fn unknown_vn_frame_is_refused_alone_inside_a_burst() {
        let (server, mut client, open) = start_gated();
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
        enqueue_barrier(&mut client);
        open.send(()).expect("backend waits on the gate");
        // The refusal is sent when the frame is dequeued, so it may
        // overtake its neighbours' results; they stay in order.
        let mut refused = false;
        let mut served = Vec::new();
        for _ in 0..5 {
            match client.recv().expect("reply") {
                Message::ErrorReply {
                    id: 3,
                    code: ErrorCode::UnknownVn,
                    ..
                } => refused = true,
                Message::LookupResponse { id, results, .. } => {
                    assert_eq!(results, results_of(id, 4), "neighbour {id} is unaffected");
                    served.push(id);
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
        assert!(refused, "frame 3 answered UnknownVn");
        assert_eq!(served, vec![1, 2, 4, 5]);
        client.ping().expect("connection survives the refusal");
        let backend = server.shutdown().expect("backend");
        assert_eq!(backend.calls.iter().sum::<usize>(), 16, "refused keys never reach the backend");
    }
}
