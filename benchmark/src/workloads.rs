//! The six workloads. Each is set up through the program's own public
//! constructors, then driven one timed segment at a time; every reply is
//! checked against the oracle in `inputs`.
//!
//! Every configuration value is written out here: the `Default` impls read
//! `available_parallelism()` (1 under the CPU pin) and pick the batch width
//! with a timing sweep, so a default would make the measured system depend
//! on the machine and on noise during construction.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vr_control::{ControlConfig, ControlPlane};
use vr_engine::{LookupService, ServiceConfig, ShardedConfig, ShardedService, DEFAULT_CACHE_SLOTS};
use vr_net::{NextHop, RouteUpdate, VnId};
use vr_power::claims::{verify_claims, ClaimCheck};
use vr_power::experiments::ExperimentConfig;
use vr_telemetry::{MetricsRegistry, TelemetrySnapshot};
use vr_wire::{Message, ServerConfig, WireBackend, WireClient, WireServer};

use crate::inputs::{family_spec, Dist, Inputs, UPDATE_HZ};
use crate::sched::OpenLoop;
use crate::span::{ns_since, Span, Spans};

/// Keys per in-process `process` call.
pub const SVC_CALL_KEYS: usize = 4096;
/// One churn reply in this many is kept for the after-run mirror check.
const CHURN_SAMPLE_EVERY: u64 = 64;
/// The program's own 1-in-N batch trace sampling, on in traced runs only.
pub const PROGRAM_TRACE_SAMPLE: u32 = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    WireSmall,
    WireBulk,
    WireChurn,
    SvcScan,
    SvcHot,
    PaperSweep,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::WireSmall,
        Kind::WireBulk,
        Kind::WireChurn,
        Kind::SvcScan,
        Kind::SvcHot,
        Kind::PaperSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::WireSmall => "wire_small",
            Kind::WireBulk => "wire_bulk",
            Kind::WireChurn => "wire_churn",
            Kind::SvcScan => "svc_scan",
            Kind::SvcHot => "svc_hot",
            Kind::PaperSweep => "paper_sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Key distribution. `paper_sweep` takes no keys; its layer probes
    /// borrow the uniform stream.
    pub fn dist(self) -> Dist {
        match self {
            Kind::WireSmall | Kind::SvcScan | Kind::PaperSweep => Dist::Uniform,
            Kind::WireBulk | Kind::WireChurn | Kind::SvcHot => Dist::Zipf,
        }
    }

    /// Result-cache slots of the workload's backend.
    pub fn cache_slots(self) -> Option<usize> {
        match self {
            Kind::WireBulk | Kind::WireChurn | Kind::SvcHot => Some(DEFAULT_CACHE_SLOTS),
            Kind::WireSmall | Kind::SvcScan | Kind::PaperSweep => None,
        }
    }

    /// Lookups per request (frame or call); 0 where a request is not a
    /// lookup batch.
    pub fn lookups_per_request(self) -> usize {
        match self {
            Kind::WireSmall => 16,
            Kind::WireBulk => 512,
            Kind::WireChurn => 64,
            Kind::SvcScan | Kind::SvcHot => SVC_CALL_KEYS,
            Kind::PaperSweep => 0,
        }
    }

    pub fn uses_wire(self) -> bool {
        matches!(self, Kind::WireSmall | Kind::WireBulk | Kind::WireChurn)
    }

    /// What is called and with what configuration, for the output header.
    pub fn describe(self) -> String {
        let svc = |cache| format!("{:?}", service_config(cache, false));
        match self {
            Kind::WireSmall => format!(
                "serve_tcp(127.0.0.1:0) <- WireClient::lookup; closed loop, 1 connection, 1 frame in flight, 16 lookups/frame; \
                 uniform keys; LookupService {}; {:?}",
                svc(None),
                server_config()
            ),
            Kind::WireBulk => format!(
                "serve_uds <- WireClient::send/recv; closed loop, 1 connection, 8 frames in flight, 512 lookups/frame; \
                 zipf(1.0) keys; ShardedService {:?}; {:?}",
                sharded_config(false),
                server_config()
            ),
            Kind::WireChurn => format!(
                "serve_uds over ControlPlane; A: closed loop, 1 in flight, 64 lookups/frame, zipf(1.0) keys; \
                 B: open loop, {UPDATE_HZ} RouteUpdateBatch/s x {} updates, timed from the due instant; \
                 LookupService {}; {:?}; {:?}",
                crate::inputs::UPDATES_PER_BATCH,
                svc(Some(DEFAULT_CACHE_SLOTS)),
                ControlConfig::default(),
                server_config()
            ),
            Kind::SvcScan => format!(
                "LookupService::process in process, {SVC_CALL_KEYS} keys/call, closed loop, 1 thread; uniform keys; {}",
                svc(None)
            ),
            Kind::SvcHot => format!(
                "LookupService::process in process, {SVC_CALL_KEYS} keys/call, closed loop, 1 thread; zipf(1.0) keys, \
                 cache warmed on an independent draw; {}",
                svc(Some(DEFAULT_CACHE_SLOTS))
            ),
            Kind::PaperSweep => format!(
                "vr_power::claims::verify_claims, one call per request, closed loop, 1 thread; {:?}",
                ExperimentConfig::paper()
            ),
        }
    }
}

pub fn service_config(lookup_cache: Option<usize>, traced: bool) -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        batch_width: Some(64),
        queue_depth: 64,
        telemetry: true,
        full_rebuild: false,
        dirty_rebuild_threshold: 4096,
        lookup_cache,
        trace_sample: traced.then_some(PROGRAM_TRACE_SAMPLE),
    }
}

pub fn sharded_config(traced: bool) -> ShardedConfig {
    ShardedConfig {
        shards: 2,
        queue_depth: 64,
        telemetry: true,
        lookup_cache: Some(DEFAULT_CACHE_SLOTS),
        trace_sample: traced.then_some(PROGRAM_TRACE_SAMPLE),
    }
}

pub fn server_config() -> ServerConfig {
    ServerConfig {
        max_connections: 64,
        job_queue_depth: 256,
        writer_queue_depth: 64,
        rate_limit_pps: 0,
        rate_burst: 0,
        retry_after_ms: 20,
        write_timeout_ms: 2_000,
    }
}

/// One answered request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the request was sent (closed loop) or due (open loop), in
    /// nanoseconds after the segment's start. Segments are sliced by it.
    pub at_ns: u64,
    /// From that instant to the reply.
    pub lat_ns: u64,
    /// Oracle-correct results the reply carried (lookups, acked updates,
    /// sweep points); 0 for a wrong reply.
    pub items: u32,
}

/// What one load generator saw in one segment.
#[derive(Debug, Default)]
pub struct Side {
    /// Requests attempted (frames, calls, update batches).
    pub requests: u64,
    /// Requests refused, failed in transport, or answered wrongly.
    pub failed: u64,
    /// One per reply, raw nanoseconds.
    pub samples: Vec<Sample>,
    /// How late the generator issued each request: open loop, after its
    /// due instant (always recorded); closed loop, after the previous
    /// reply (traced segments only).
    pub late_ns: Vec<u64>,
}

impl Side {
    pub fn items(&self) -> u64 {
        self.samples.iter().map(|s| u64::from(s.items)).sum()
    }
}

#[derive(Debug, Default)]
pub struct Segment {
    /// The length asked for; requests are issued only inside it.
    pub dur_ns: u64,
    pub main: Side,
    /// The open-loop update connection, on the churn workload.
    pub update: Option<Side>,
}

/// Counters read from the program once a workload has drained.
#[derive(Debug, Default)]
pub struct Counters {
    /// Result-cache (hits, misses), when the backend has a cache.
    pub cache: Option<(u64, u64)>,
    pub queue_stalls: u64,
    /// Frames and connections the wire server shed or cut.
    pub shed_total: u64,
    pub remerges: Option<u64>,
    pub alpha_final: Option<f64>,
}

/// Result of the checks that can only run after the last segment.
#[derive(Debug, Default)]
pub struct Finish {
    pub checked: u64,
    pub failed: u64,
    pub counters: Counters,
}

pub trait Running {
    /// Drives the workload for `dur`: one call is one uninterrupted run
    /// (the open-loop schedule is fixed at its start), sliced afterwards by
    /// `Sample::at_ns`. With `spans`, records a span around every call into
    /// the program.
    fn segment(&mut self, dur: Duration, spans: Option<&mut Spans>) -> Segment;
    /// Stops the program, runs the after-run checks, reads its counters.
    fn finish(self: Box<Self>) -> Finish;
}

pub struct SetupOptions {
    /// Turns on the program's own batch tracing.
    pub traced: bool,
    /// Where Unix sockets are bound: inside the benchmark's output
    /// directory, given relative to the working directory so the path
    /// fits `sun_path`.
    pub out_dir: PathBuf,
}

/// Builds the workload through the program's constructors and returns it
/// with `setup_s`: table generation to first correct reply, cache warm-up
/// included. Harness work (frames, bookkeeping) is done before the clock
/// starts.
pub fn setup(kind: Kind, inputs: &Arc<Inputs>, opts: &SetupOptions) -> (Box<dyn Running>, f64) {
    let per_frame = kind.lookups_per_request();
    match kind {
        Kind::WireSmall => {
            let clock = Instant::now();
            let tables = family_spec(inputs.seed).generate().expect("valid spec");
            let service =
                LookupService::new(tables, service_config(None, opts.traced)).expect("service");
            let registry = Arc::new(MetricsRegistry::new(1));
            let server =
                WireServer::serve_tcp("127.0.0.1:0", service, server_config(), Some(&registry))
                    .expect("bind loopback");
            let client = WireClient::connect_tcp(server.local_addr().expect("tcp address"))
                .expect("connect");
            let mut run = WireRun::new(server, registry, client, inputs, per_frame, 1);
            run.first_reply();
            (Box::new(run), clock.elapsed().as_secs_f64())
        }
        Kind::WireBulk => {
            let path = socket_path(&opts.out_dir, kind, opts.traced);
            let messages = lookup_messages(inputs, per_frame);
            let clock = Instant::now();
            let tables = family_spec(inputs.seed).generate().expect("valid spec");
            let service =
                ShardedService::new(tables, sharded_config(opts.traced)).expect("service");
            let registry = Arc::new(MetricsRegistry::new(1));
            let server = WireServer::serve_uds(&path, service, server_config(), Some(&registry))
                .expect("bind uds");
            let client = WireClient::connect_uds(&path).expect("connect");
            let mut run = WireRun::new(server, registry, client, inputs, per_frame, 8);
            run.messages = messages;
            run.first_reply();
            (Box::new(run), clock.elapsed().as_secs_f64())
        }
        Kind::WireChurn => {
            let path = socket_path(&opts.out_dir, kind, opts.traced);
            let clock = Instant::now();
            let tables = family_spec(inputs.seed).generate().expect("valid spec");
            let service = LookupService::new(
                tables,
                service_config(Some(DEFAULT_CACHE_SLOTS), opts.traced),
            )
            .expect("service");
            let plane =
                ControlPlane::new(service, ControlConfig::default()).expect("control plane");
            let registry = Arc::new(MetricsRegistry::new(1));
            let server = WireServer::serve_uds(&path, plane, server_config(), Some(&registry))
                .expect("bind uds");
            let client = WireClient::connect_uds(&path).expect("connect");
            let updater = WireClient::connect_uds(&path).expect("connect");
            let mut run = WireRun::new(server, registry, client, inputs, per_frame, 1);
            run.first_reply();
            // The first update batch builds the resident merge plant; it is
            // lazy set-up, so it belongs here and not in a timed segment.
            run.churn = Some(Churn::start(updater, inputs));
            (Box::new(run), clock.elapsed().as_secs_f64())
        }
        Kind::SvcScan | Kind::SvcHot => {
            let clock = Instant::now();
            let tables = family_spec(inputs.seed).generate().expect("valid spec");
            let service =
                LookupService::new(tables, service_config(kind.cache_slots(), opts.traced))
                    .expect("service");
            let mut run = SvcRun {
                service,
                has_cache: kind.cache_slots().is_some(),
                inputs: Arc::clone(inputs),
                cursor: 0,
                next_request: 0,
            };
            if kind == Kind::SvcHot {
                for chunk in inputs.warm.chunks(SVC_CALL_KEYS) {
                    let _ = run.service.process(chunk);
                }
            }
            let first = run.service.process(&inputs.keys[..SVC_CALL_KEYS]);
            assert!(
                first == inputs.expected[..SVC_CALL_KEYS],
                "{}: first reply is wrong",
                kind.name()
            );
            (Box::new(run), clock.elapsed().as_secs_f64())
        }
        Kind::PaperSweep => {
            let clock = Instant::now();
            let cfg = ExperimentConfig::paper();
            let reference = verify_claims(&cfg).expect("paper configuration is valid");
            assert!(
                reference.iter().all(|c| c.holds),
                "paper_sweep: a claim fails at set-up"
            );
            let run = SweepRun {
                cfg,
                reference,
                next_request: 0,
            };
            (Box::new(run), clock.elapsed().as_secs_f64())
        }
    }
}

fn socket_path(out_dir: &Path, kind: Kind, traced: bool) -> PathBuf {
    out_dir.join(format!(
        "{}-{}-{}.sock",
        kind.name(),
        u8::from(traced),
        std::process::id()
    ))
}

fn lookup_messages(inputs: &Inputs, per_frame: usize) -> Vec<Message> {
    inputs
        .keys
        .chunks_exact(per_frame)
        .enumerate()
        .map(|(i, packets)| Message::LookupRequest {
            id: i as u64 + 1,
            packets: packets.to_vec(),
        })
        .collect()
}

/// What the backend of a wire workload can report once the server hands it
/// back.
trait BackendCounters: WireBackend {
    fn counters(self) -> Counters;
}

fn service_counters(snapshot: Option<TelemetrySnapshot>, has_cache: bool) -> Counters {
    let count = |name| snapshot.as_ref().and_then(|s| s.counter(name)).unwrap_or(0);
    Counters {
        cache: has_cache.then(|| (count("vr_cache_hits_total"), count("vr_cache_misses_total"))),
        queue_stalls: count("vr_service_queue_stalls_total"),
        ..Counters::default()
    }
}

fn lookup_service_counters(service: LookupService, has_cache: bool) -> Counters {
    let counters = service_counters(service.telemetry_snapshot(), has_cache);
    let _ = service.shutdown();
    counters
}

impl BackendCounters for LookupService {
    fn counters(self) -> Counters {
        lookup_service_counters(self, false)
    }
}

impl BackendCounters for ShardedService {
    fn counters(self) -> Counters {
        let counters = service_counters(self.telemetry_snapshot(), true);
        let _ = self.shutdown();
        counters
    }
}

impl BackendCounters for ControlPlane {
    fn counters(mut self) -> Counters {
        let remerges = self.remerges();
        let alpha = self.service_mut().alpha().ok();
        let mut counters = service_counters(self.service().telemetry_snapshot(), true);
        counters.remerges = Some(remerges);
        counters.alpha_final = alpha;
        let _ = self.shutdown();
        counters
    }
}

/// One kept churn reply, verified after the run.
struct ChurnSample {
    key_offset: usize,
    generation: u64,
    results: Vec<Option<NextHop>>,
}

/// One segment's schedule for the update generator.
struct Order {
    start: Instant,
    end: Instant,
    span_epoch: Option<Instant>,
}

/// The update side of the churn workload: one generator thread for the
/// life of the instance. It is told when each segment starts and ends,
/// paces that segment's batches on one fixed grid and reports back.
struct Churn {
    orders: mpsc::Sender<Order>,
    reports: mpsc::Receiver<(Side, Vec<Span>)>,
    /// Returns the generation each applied batch published, `None` if it
    /// was refused (after which the mirror can no longer be advanced).
    generator: JoinHandle<Vec<Option<u64>>>,
    samples: Vec<ChurnSample>,
    frames: u64,
}

impl Churn {
    /// Applies the first batch on the calling thread, then starts the
    /// generator with the rest.
    fn start(mut client: WireClient, inputs: &Arc<Inputs>) -> Self {
        let first = match client.apply_updates(&inputs.updates[0]) {
            Ok(Message::UpdateAck { generation, .. }) => generation,
            other => panic!("warm-up update batch was not acknowledged: {other:?}"),
        };
        let (orders, inbox) = mpsc::channel::<Order>();
        let (outbox, reports) = mpsc::channel();
        let inputs = Arc::clone(inputs);
        let generator = std::thread::spawn(move || {
            let mut next_batch = 1;
            let mut ack_generations = vec![Some(first)];
            while let Ok(order) = inbox.recv() {
                let report = update_loop(
                    &mut client,
                    &inputs.updates,
                    &mut next_batch,
                    &mut ack_generations,
                    &order,
                );
                if outbox.send(report).is_err() {
                    break;
                }
            }
            ack_generations
        });
        Self {
            orders,
            reports,
            generator,
            samples: Vec::new(),
            frames: 0,
        }
    }
}

/// A wire server, its backend, and the client connection(s) driving it.
struct WireRun<B: WireBackend> {
    server: WireServer<B>,
    registry: Arc<MetricsRegistry>,
    client: WireClient,
    inputs: Arc<Inputs>,
    per_frame: usize,
    /// Frames in flight; above 1 the pre-built `messages` are pipelined
    /// through `send` / `recv`.
    window: usize,
    messages: Vec<Message>,
    cursor: usize,
    next_request: u64,
    last_generation: u64,
    churn: Option<Churn>,
}

impl<B: WireBackend> WireRun<B> {
    fn new(
        server: WireServer<B>,
        registry: Arc<MetricsRegistry>,
        client: WireClient,
        inputs: &Arc<Inputs>,
        per_frame: usize,
        window: usize,
    ) -> Self {
        Self {
            server,
            registry,
            client,
            inputs: Arc::clone(inputs),
            per_frame,
            window,
            messages: Vec::new(),
            cursor: 0,
            next_request: 0,
            last_generation: 0,
            churn: None,
        }
    }

    fn first_reply(&mut self) {
        let keys = &self.inputs.keys[..self.per_frame];
        match self.client.lookup(keys) {
            Ok(Message::LookupResponse { results, .. })
                if results == self.inputs.expected[..self.per_frame] => {}
            other => panic!("first reply is wrong: {other:?}"),
        }
    }
}

/// Checks lookup replies. Steady workloads compare every result with the
/// precomputed answer; under churn the answer depends on the generation,
/// so length and generation order are checked now and a sample is kept.
struct ReplyCheck<'a> {
    inputs: &'a Inputs,
    per_frame: usize,
    last_generation: &'a mut u64,
    churn: Option<(&'a mut Vec<ChurnSample>, &'a mut u64)>,
}

impl ReplyCheck<'_> {
    /// Whether `reply` answers the request correctly and in order.
    fn check(&mut self, reply: Message, want_id: Option<u64>, key_offset: usize) -> bool {
        // Anything else is Overloaded, ErrorReply, or answers nothing.
        let Message::LookupResponse {
            id,
            generation,
            results,
        } = reply
        else {
            return false;
        };
        let per_frame = self.per_frame;
        let in_order = generation >= *self.last_generation && want_id.is_none_or(|want| want == id);
        *self.last_generation = generation.max(*self.last_generation);
        let correct = match &mut self.churn {
            None => results == self.inputs.expected[key_offset..key_offset + per_frame],
            Some((samples, frames)) => {
                **frames += 1;
                let whole = results.len() == per_frame;
                if whole && **frames % CHURN_SAMPLE_EVERY == 0 {
                    samples.push(ChurnSample {
                        key_offset,
                        generation,
                        results,
                    });
                }
                whole
            }
        };
        in_order && correct
    }
}

/// The open-loop update generator for one segment: batch `i` is due at
/// `start + i / 20 s` whether or not the batches before it were
/// acknowledged, and is timed from that instant. Every batch due before
/// `end` is sent, however late.
fn update_loop(
    client: &mut WireClient,
    batches: &[Vec<RouteUpdate>],
    next_batch: &mut usize,
    ack_generations: &mut Vec<Option<u64>>,
    order: &Order,
) -> (Side, Vec<Span>) {
    let mut side = Side::default();
    let mut recorded = Vec::new();
    let mut sched = OpenLoop::new(order.start, Duration::from_secs(1) / UPDATE_HZ);
    while *next_batch < batches.len() {
        let Some(slot) = sched.next_slot(order.end) else {
            break;
        };
        let batch = &batches[*next_batch];
        let sent = Instant::now();
        let reply = client.apply_updates(batch);
        let acked = Instant::now();
        *next_batch += 1;
        side.requests += 1;
        side.late_ns.push(slot.late.as_nanos() as u64);
        match reply {
            Ok(Message::UpdateAck { generation, .. }) => {
                ack_generations.push(Some(generation));
                side.samples.push(Sample {
                    at_ns: ns_since(order.start, slot.due),
                    lat_ns: ns_since(slot.due, acked),
                    items: batch.len() as u32,
                });
            }
            _ => {
                ack_generations.push(None);
                side.failed += 1;
            }
        }
        if let Some(epoch) = order.span_epoch {
            let interval = (ns_since(epoch, sent), ns_since(epoch, acked));
            recorded.push(Span::new(
                "wire.apply_updates",
                *next_batch as u64,
                interval,
                1,
            ));
        }
    }
    (side, recorded)
}

impl<B: BackendCounters> Running for WireRun<B> {
    fn segment(&mut self, dur: Duration, spans: Option<&mut Spans>) -> Segment {
        let Self {
            client,
            inputs,
            churn,
            messages,
            cursor,
            next_request,
            last_generation,
            ..
        } = self;
        let (per_frame, window) = (self.per_frame, self.window);
        let inputs: &Inputs = inputs;
        let keys_len = inputs.keys.len();
        let mut main = Side::default();
        let start = Instant::now();
        let end = start + dur;
        let span_epoch = spans.as_ref().map(|s| s.epoch());
        let at = |t: Instant| span_epoch.map_or(0, |epoch| ns_since(epoch, t));
        // Lookup-side spans; `parent` indexes this list until they are
        // merged under the segment span below.
        let mut local: Vec<Span> = Vec::new();

        let (sample_sink, reports) = match churn.as_mut() {
            Some(churn) => {
                let order = Order {
                    start,
                    end,
                    span_epoch,
                };
                churn.orders.send(order).expect("update generator is gone");
                (
                    Some((&mut churn.samples, &mut churn.frames)),
                    Some(&churn.reports),
                )
            }
            None => (None, None),
        };
        let mut check = ReplyCheck {
            inputs,
            per_frame,
            last_generation,
            churn: sample_sink,
        };
        let reply_sample = |main: &mut Side, sent: Instant, received: Instant, ok: bool| {
            main.failed += u64::from(!ok);
            main.samples.push(Sample {
                at_ns: ns_since(start, sent),
                lat_ns: ns_since(sent, received),
                items: if ok { per_frame as u32 } else { 0 },
            });
        };
        let mut previous_reply = start;

        if window == 1 {
            loop {
                let sent = Instant::now();
                if sent >= end {
                    break;
                }
                let offset = *cursor;
                let reply = client.lookup(&inputs.keys[offset..offset + per_frame]);
                let received = Instant::now();
                *cursor = (offset + per_frame) % keys_len;
                *next_request += 1;
                main.requests += 1;
                let Ok(reply) = reply else {
                    // The connection is gone; nothing more can be sent.
                    main.failed += 1;
                    break;
                };
                let ok = check.check(reply, None, offset);
                reply_sample(&mut main, sent, received, ok);
                if span_epoch.is_some() {
                    let checked = Instant::now();
                    main.late_ns.push(ns_since(previous_reply, sent));
                    previous_reply = checked;
                    let parent = local.len() as u32;
                    let request = *next_request;
                    let (a, b, c) = (at(sent), at(received), at(checked));
                    local.push(Span::new("request", request, (a, c), 0));
                    local.push(Span::new("wire.lookup", request, (a, b), 0).child_of(parent));
                    local.push(Span::new("verify", request, (b, c), 0).child_of(parent));
                }
            }
        } else {
            let mut in_flight: VecDeque<(Instant, usize)> = VecDeque::with_capacity(window);
            let mut next_message = *cursor / per_frame;
            'pipeline: loop {
                while in_flight.len() < window {
                    let sent = Instant::now();
                    if sent >= end {
                        break;
                    }
                    let index = next_message;
                    next_message = (next_message + 1) % messages.len();
                    main.requests += 1;
                    if client.send(&messages[index]).is_err() {
                        main.failed += 1 + in_flight.len() as u64;
                        break 'pipeline;
                    }
                    in_flight.push_back((sent, index));
                    if span_epoch.is_some() {
                        let done = Instant::now();
                        main.late_ns.push(ns_since(previous_reply, sent));
                        previous_reply = done;
                        let interval = (at(sent), at(done));
                        local.push(Span::new("wire.send", index as u64, interval, 0));
                    }
                }
                let Some((sent, index)) = in_flight.pop_front() else {
                    break;
                };
                let waiting = Instant::now();
                let reply = client.recv();
                let received = Instant::now();
                let Ok(reply) = reply else {
                    // What is still in flight will never be answered.
                    main.failed += 1 + in_flight.len() as u64;
                    break;
                };
                let ok = check.check(reply, Some(index as u64 + 1), index * per_frame);
                reply_sample(&mut main, sent, received, ok);
                if span_epoch.is_some() {
                    let checked = Instant::now();
                    previous_reply = checked;
                    let request = index as u64;
                    let (a, b, c, d) = (at(sent), at(waiting), at(received), at(checked));
                    // Requests overlap, so they get a row of their own.
                    local.push(Span::new("request", request, (a, c), 2));
                    local.push(Span::new("wire.recv", request, (b, c), 0));
                    local.push(Span::new("verify", request, (c, d), 0));
                }
            }
            *cursor = next_message * per_frame % keys_len;
        }

        // The generator sends every batch due before `end`, however late.
        let (update_side, mut update_spans) = match reports {
            Some(reports) => {
                let (side, recorded) = reports.recv().expect("update generator panicked");
                (Some(side), recorded)
            }
            None => (None, Vec::new()),
        };
        let finished = Instant::now();
        if let Some(spans) = spans {
            let segment = spans.open("segment", 0, None, start);
            spans.close(segment, finished);
            for span in &mut update_spans {
                span.parent = Some(segment);
            }
            spans.append(update_spans);
            let base = spans.len() as u32;
            for span in &mut local {
                span.parent = Some(span.parent.map_or(segment, |p| p + base));
            }
            spans.append(local);
        }
        Segment {
            dur_ns: dur.as_nanos() as u64,
            main,
            update: update_side,
        }
    }

    fn finish(self: Box<Self>) -> Finish {
        let Self {
            server,
            registry,
            client,
            inputs,
            per_frame,
            churn,
            ..
        } = *self;
        drop(client);
        let mut finish = Finish::default();
        let mut acks = Vec::new();
        if let Some(churn) = churn {
            // Closing the order channel ends the generator.
            drop(churn.orders);
            acks = churn.generator.join().expect("update generator panicked");
            let (checked, failed) = verify_churn_samples(&inputs, per_frame, &acks, &churn.samples);
            finish.checked = checked;
            finish.failed = failed;
        }
        let backend = server.shutdown().expect("backend thread panicked");
        finish.counters = backend.counters();
        let shed = registry.snapshot();
        finish.counters.shed_total = [
            "vr_wire_shed_connections_total",
            "vr_wire_shed_rate_limited_total",
            "vr_wire_shed_queue_full_total",
            "vr_wire_slow_reader_disconnects_total",
            "vr_wire_decode_errors_total",
        ]
        .iter()
        .map(|name| shed.counter(name).unwrap_or(0))
        .sum();
        // Acknowledged generations never go backwards either.
        let known: Vec<u64> = acks.iter().flatten().copied().collect();
        if known.windows(2).any(|w| w[1] < w[0]) {
            finish.failed += 1;
        }
        finish
    }
}

/// Advances a mirror of the table family batch by batch and checks each
/// kept reply against the mirror at the generation the reply names.
fn verify_churn_samples(
    inputs: &Inputs,
    per_frame: usize,
    ack_generations: &[Option<u64>],
    samples: &[ChurnSample],
) -> (u64, u64) {
    let mut mirror = inputs.oracle.clone();
    let mut applied = 0;
    let mut failed = 0;
    for sample in samples {
        // Every batch whose publish is at or before the reply's generation
        // is visible to it: the backend thread serialises both.
        while let Some(Some(generation)) = ack_generations.get(applied) {
            if *generation > sample.generation {
                break;
            }
            for update in &inputs.updates[applied] {
                mirror.apply(update);
            }
            applied += 1;
        }
        let in_sync = !matches!(ack_generations.get(applied), Some(None));
        let keys = &inputs.keys[sample.key_offset..sample.key_offset + per_frame];
        let right = keys
            .iter()
            .zip(&sample.results)
            .all(|(&(vn, dst), got)| mirror.lookup(vn, dst) == *got);
        if !(in_sync && right) {
            failed += 1;
        }
    }
    (samples.len() as u64, failed)
}

/// `LookupService::process` called in process.
struct SvcRun {
    service: LookupService,
    has_cache: bool,
    inputs: Arc<Inputs>,
    cursor: usize,
    next_request: u64,
}

impl Running for SvcRun {
    fn segment(&mut self, dur: Duration, mut spans: Option<&mut Spans>) -> Segment {
        let inputs: &Inputs = &self.inputs;
        let mut main = Side::default();
        let start = Instant::now();
        let end = start + dur;
        let segment_span = spans
            .as_deref_mut()
            .map(|s| s.open("segment", 0, None, start));
        let mut previous_reply = start;
        loop {
            let called = Instant::now();
            if called >= end {
                break;
            }
            let offset = self.cursor;
            let keys: &[(VnId, u32)] = &inputs.keys[offset..offset + SVC_CALL_KEYS];
            let results = self.service.process(keys);
            let returned = Instant::now();
            self.cursor = (offset + SVC_CALL_KEYS) % inputs.keys.len();
            self.next_request += 1;
            main.requests += 1;
            let ok = results == inputs.expected[offset..offset + SVC_CALL_KEYS];
            main.failed += u64::from(!ok);
            main.samples.push(Sample {
                at_ns: ns_since(start, called),
                lat_ns: ns_since(called, returned),
                items: if ok { SVC_CALL_KEYS as u32 } else { 0 },
            });
            if let Some(spans) = spans.as_deref_mut() {
                let checked = Instant::now();
                main.late_ns.push(ns_since(previous_reply, called));
                let request = spans.open("request", self.next_request, segment_span, called);
                let call = spans.open("service.process", self.next_request, Some(request), called);
                spans.close(call, returned);
                let verify = spans.open("verify", self.next_request, Some(request), returned);
                spans.close(verify, checked);
                spans.close(request, checked);
                previous_reply = checked;
            }
        }
        let finished = Instant::now();
        if let (Some(spans), Some(segment_span)) = (spans, segment_span) {
            spans.close(segment_span, finished);
        }
        Segment {
            dur_ns: dur.as_nanos() as u64,
            main,
            update: None,
        }
    }

    fn finish(self: Box<Self>) -> Finish {
        Finish {
            counters: lookup_service_counters(self.service, self.has_cache),
            ..Finish::default()
        }
    }
}

/// The paper's own sweep: one `verify_claims` call per request.
struct SweepRun {
    cfg: ExperimentConfig,
    /// The claims of the set-up call; every later call must reproduce
    /// them exactly, measured values included.
    reference: Vec<ClaimCheck>,
    next_request: u64,
}

/// Configurations one sweep prices: K = 1..=k_max x {NV, VS, VM low, VM
/// high} x both speed grades.
fn sweep_points(cfg: &ExperimentConfig) -> u32 {
    (cfg.k_max * 4 * vr_power::SpeedGrade::ALL.len()) as u32
}

impl Running for SweepRun {
    fn segment(&mut self, dur: Duration, mut spans: Option<&mut Spans>) -> Segment {
        let mut main = Side::default();
        let start = Instant::now();
        let end = start + dur;
        let segment_span = spans
            .as_deref_mut()
            .map(|s| s.open("segment", 0, None, start));
        let mut previous_reply = start;
        loop {
            let called = Instant::now();
            // A call is longer than a short segment: always make one.
            if called >= end && main.requests > 0 {
                break;
            }
            let claims = verify_claims(&self.cfg);
            let returned = Instant::now();
            self.next_request += 1;
            main.requests += 1;
            let ok = matches!(claims, Ok(claims) if claims == self.reference && claims.iter().all(|c| c.holds));
            main.failed += u64::from(!ok);
            main.samples.push(Sample {
                at_ns: ns_since(start, called),
                lat_ns: ns_since(called, returned),
                items: if ok { sweep_points(&self.cfg) } else { 0 },
            });
            if let Some(spans) = spans.as_deref_mut() {
                main.late_ns.push(ns_since(previous_reply, called));
                let call = spans.open(
                    "claims.verify_claims",
                    self.next_request,
                    segment_span,
                    called,
                );
                spans.close(call, returned);
                previous_reply = Instant::now();
            }
        }
        let finished = Instant::now();
        if let (Some(spans), Some(segment_span)) = (spans, segment_span) {
            spans.close(segment_span, finished);
        }
        Segment {
            dur_ns: dur.as_nanos() as u64,
            main,
            update: None,
        }
    }

    fn finish(self: Box<Self>) -> Finish {
        Finish::default()
    }
}
