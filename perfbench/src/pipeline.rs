//! One measured run of the whole pipeline, driven from outside through
//! public APIs only:
//!
//! generator → `Fleet::push` → (shard: `EdgeSession` seek/decode/decide)
//! → `KeepSink` → `SharedUplink` (packetize + FEC → `WanChannel` →
//! depacketize) → bounded hand-off → cloud thread (`CnnDetector::detect`).
//!
//! The generator is the calling thread, the fleet runs `shards` worker
//! threads and the cloud stage one more. A traced run additionally records
//! spans around every public call the benchmark makes (push, sink, uplink
//! lock wait and send, detect); everything else is timed by the replays in
//! [`crate::replay`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sieve_core::adapt::wan_signal;
use sieve_core::{FrameSelector, IFrameSelector};
use sieve_datasets::LabelSet;
use sieve_filters::{Budget, MseSelector};
use sieve_fleet::{Fleet, FleetConfig, FleetSnapshot, FramePacket, Ingest, KeepSink, StreamConfig};
use sieve_net::uplink::UplinkCounts;
use sieve_net::{BlockOutcome, BlockReport, SharedUplink, Uplink, UplinkConfig, WanTaps};
use sieve_nn::{reference_model, CnnDetector, ObjectDetector};
use sieve_simnet::SimTime;
use sieve_stats::Registry;
use sieve_video::Frame;

use crate::inputs::Camera;
use crate::workload::{
    Link, Pacing, Selection, Workload, CLOSED_LOOP_WINDOW, CLOUD_QUEUE, GLOBAL_FRAME_BUDGET,
    QUEUE_CAPACITY,
};

/// Per-stream slots for the intended and actual push times of in-flight
/// frames. Larger than the fleet's frame budget, so a slot is never
/// reused while its frame is still queued.
const RING: usize = 2 * GLOBAL_FRAME_BUDGET;

/// Windows a run is cut into for its windowed medians.
pub const WINDOWS: usize = 10;

/// Seconds the generator runs before the measured part of a run. The
/// cameras' first frames, cold caches and thread start-up fall in it. Its
/// frames are decided, shipped, labelled and checked like the rest; only
/// the rates and latencies leave them out.
pub const WARMUP_S: f64 = 2.0;

/// The `(intended time, latency in ms)` samples whose intended time falls
/// at or after `from_ns`, with times made relative to it.
fn measured(samples: &[(u64, u64)], from_ns: u64) -> Vec<(u64, f64)> {
    samples
        .iter()
        .filter(|s| s.0 >= from_ns)
        .map(|&(t, n)| (t - from_ns, n as f64 * 1e-6))
        .collect()
}

/// Weights of the cloud CNN (its cost is what matters, not its answers).
const CNN_SEED: u64 = 0xC10D;

/// One kept block the uplink has taken but not yet resolved.
struct Pending {
    stream: u16,
    index: u32,
    payload: Vec<u8>,
    frame: Frame,
    intended_ns: u64,
}

/// One uplink send, in send order: what a replay needs to repeat it.
#[derive(Debug, Clone, Copy)]
pub struct SendRec {
    pub sim: SimTime,
    pub stream: u16,
    pub index: u32,
}

/// Blocks in flight on the uplink, keyed by block id. Block ids are the
/// uplink packetizer's sequence numbers: every block it sends comes from a
/// sink below, and each sink numbers its block under the uplink lock.
#[derive(Default)]
struct Book {
    next_id: u64,
    pending: BTreeMap<u64, Pending>,
    sends: Vec<SendRec>,
}

/// Verdicts reached on the edge side of the hand-off.
#[derive(Default)]
struct Verdicts {
    lost: u64,
    usable: u64,
    mismatches: u64,
    unknown: u64,
    /// Blocks only the final flush resolved.
    flushed: u64,
}

/// What one stream's sink saw.
#[derive(Default)]
struct StreamLog {
    kept: Vec<u32>,
    /// (intended send time, intended → sink), ns.
    edge_lat_ns: Vec<(u64, u64)>,
    // Traced runs only.
    sojourn: Vec<Span>,
    lock_wait: Vec<Span>,
    send: Vec<Span>,
}

/// A delivered block on its way to the cloud.
struct CloudItem {
    stream: u16,
    index: u32,
    frame: Frame,
    intended_ns: u64,
    handoff_ns: u64,
}

/// What the cloud thread did.
#[derive(Default)]
struct CloudLog {
    labelled: Vec<Vec<u32>>,
    /// (intended send time, intended → label), ns.
    label_lat_ns: Vec<(u64, u64)>,
    // Traced runs only.
    queue_wait: Vec<Span>,
    detect: Vec<Span>,
}

/// State shared by the generator, the sinks and the final flush.
struct Ctx {
    start: Instant,
    trace: bool,
    intended: Vec<AtomicU64>,
    pushed: Vec<AtomicU64>,
    book: Mutex<Book>,
    verdicts: Mutex<Verdicts>,
    logs: Vec<Mutex<StreamLog>>,
    uplink: SharedUplink,
}

impl Ctx {
    fn ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn slot(stream: usize, index: usize) -> usize {
        stream * RING + index % RING
    }

    /// Hands every usable block to the cloud after checking it bit-exact
    /// against what was sent; tallies losses.
    fn resolve(&self, reports: Vec<BlockReport>, tx: &SyncSender<CloudItem>, flush: bool) {
        for r in reports {
            let entry = self
                .book
                .lock()
                .expect("book lock")
                .pending
                .remove(&r.block_id);
            let Some(p) = entry else {
                self.verdicts.lock().expect("verdict lock").unknown += 1;
                continue;
            };
            if flush {
                self.verdicts.lock().expect("verdict lock").flushed += 1;
            }
            match r.outcome {
                BlockOutcome::Delivered(bytes) | BlockOutcome::Recovered(bytes) => {
                    {
                        let mut v = self.verdicts.lock().expect("verdict lock");
                        v.usable += 1;
                        if bytes != p.payload {
                            v.mismatches += 1;
                        }
                    }
                    let item = CloudItem {
                        stream: p.stream,
                        index: p.index,
                        frame: p.frame,
                        intended_ns: p.intended_ns,
                        handoff_ns: self.ns(),
                    };
                    tx.send(item).expect("cloud stage outlives the uplink");
                }
                BlockOutcome::Lost => self.verdicts.lock().expect("verdict lock").lost += 1,
            }
        }
    }
}

/// One span of a traced run: the frame it belongs to and its length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub stream: u16,
    pub index: u32,
    pub ns: u64,
}

/// Spans of a traced run, kept in memory until the run ends.
#[derive(Debug, Default)]
pub struct Trace {
    /// Thread CPU time of `Fleet::push` (with `FramePacket::of`).
    pub push: Vec<Span>,
    /// Wall time from asking for the uplink lock to holding it.
    pub lock_wait: Vec<Span>,
    /// Thread CPU time of `Uplink::send_block_at`.
    pub send: Vec<Span>,
    /// Wall time from push to sink entry, per kept frame.
    pub sojourn: Vec<Span>,
    /// Wall time from hand-off to the cloud thread's receive.
    pub queue_wait: Vec<Span>,
    /// Thread CPU time of `CnnDetector::detect`.
    pub detect: Vec<Span>,
    pub sends: Vec<SendRec>,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct RunOutput {
    /// Frames offered per stream.
    pub offered: Vec<u64>,
    /// Frame indices the fleet shed, per stream.
    pub shed: Vec<Vec<u32>>,
    /// Start of the run to the last label.
    pub wall_s: f64,
    /// Process CPU time over the run.
    pub cpu_s: f64,
    pub snapshot: FleetSnapshot,
    pub counts: UplinkCounts,
    pub ecn_marked: u64,
    pub uplink: UplinkConfig,
    /// Length of the measured part of the run (after the warm-up), ns.
    pub span_ns: u64,
    /// (ns into the run, frames the fleet had decided) at each window
    /// boundary of the measured part.
    pub decided: Vec<(u64, u64)>,
    /// (intended send time in ns from the start of the measured part,
    /// latency in ms) per kept frame sent in it.
    pub edge_lat: Vec<(u64, f64)>,
    pub label_lat: Vec<(u64, f64)>,
    pub gen_lag_ms: Vec<f64>,
    /// Kept (sink-called) and labelled frame indices per stream, sorted.
    pub kept: Vec<Vec<u32>>,
    pub labelled: Vec<Vec<u32>>,
    pub lost: u64,
    pub usable: u64,
    pub mismatches: u64,
    pub unknown: u64,
    pub unresolved: usize,
    /// Blocks resolved only by the uplink's final flush.
    pub flush_resolved: u64,
    pub max_inflight: usize,
    /// (seconds into the run, frames queued in the fleet) samples.
    pub backlog: Vec<(f64, f64)>,
    pub trace: Option<Trace>,
}

impl RunOutput {
    pub fn total_offered(&self) -> u64 {
        self.offered.iter().sum()
    }
}

/// The workload's selection policy.
pub fn selector(w: &Workload) -> Box<dyn FrameSelector> {
    match w.selection {
        Selection::IFrame => Box::new(IFrameSelector::new()),
        Selection::MseTarget(rate) => Box::new(MseSelector::mse(Budget::TargetRate(rate))),
    }
}

/// The fleet's unthrottled offered load on the wire, on camera time, in
/// bits per second: each camera at its frame rate, keeping its target
/// share of frames, each shipped with the headers and parity `cfg` adds.
pub fn offered_load_bps(w: &Workload, cams: &[Camera], cfg: &UplinkConfig) -> f64 {
    let keep = match w.selection {
        Selection::MseTarget(rate) => rate,
        Selection::IFrame => 1.0,
    };
    cams.iter()
        .map(|c| {
            let frames = c.video.frames();
            let wire = crate::replay::wire_bytes(cfg, frames.iter().map(|f| f.data.len()));
            let mean = wire as f64 / frames.len().max(1) as f64;
            mean * 8.0 * f64::from(c.video.fps()) * keep
        })
        .sum()
}

/// CPU-time clocks of the process and of the calling thread, in
/// nanoseconds (`clock_gettime(2)`; the standard library has no CPU
/// clocks), and the calling thread's scheduling policy. Spans of a traced
/// run use the thread clock, so a call's time excludes the time its thread
/// spent descheduled.
pub mod cpu {
    use std::ffi::c_long;

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }

    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    fn read(clock: i32) -> u64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `struct timespec` (two C longs
        // on Linux), and `clock_gettime` writes nothing but it.
        let rc = unsafe { clock_gettime(clock, &mut ts) };
        assert_eq!(rc, 0, "CPU-time clocks exist on Linux");
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    }

    pub fn process_ns() -> u64 {
        read(CLOCK_PROCESS_CPUTIME_ID)
    }

    pub fn thread_ns() -> u64 {
        read(CLOCK_THREAD_CPUTIME_ID)
    }

    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }

    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }

    const SCHED_IDLE: i32 = 5;

    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }

    const PR_SET_TIMERSLACK: i32 = 29;

    /// Cuts the calling thread's timer slack to 1 ns (`prctl(2)`), so its
    /// sleeps end when asked rather than up to 50 µs later.
    pub fn exact_timers() {
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long by value and
        // touches no memory of the caller.
        let rc = unsafe { prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong) };
        assert_eq!(rc, 0, "a thread may set its own timer slack");
    }

    /// Moves the calling thread to `SCHED_IDLE` (`sched_setscheduler(2)`;
    /// pid 0 is the calling thread on Linux). No privilege is needed.
    pub fn run_when_idle() {
        let param = SchedParam { sched_priority: 0 };
        // SAFETY: `param` is a live `struct sched_param` (one C int), which
        // the call only reads.
        let rc = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) };
        assert_eq!(
            rc, 0,
            "an unprivileged thread may lower itself to SCHED_IDLE"
        );
    }
}

/// The sink of stream `stream`: hands the kept frame's payload to the
/// shared uplink (numbering its block under the uplink lock) and logs it.
fn make_sink(
    ctx: &Arc<Ctx>,
    tx: SyncSender<CloudItem>,
    stream: usize,
    closed: bool,
    phase_s: f64,
    fps: f64,
) -> KeepSink {
    let ctx = ctx.clone();
    Box::new(move |index, frame, payload| {
        let entered = ctx.ns();
        let slot = Ctx::slot(stream, index);
        let intended = ctx.intended[slot].load(Ordering::Acquire);
        let pushed = ctx.pushed[slot].load(Ordering::Acquire);
        // Closed loops run the uplink on camera time, so the channel sees
        // the cameras' real rates whatever the host's speed. Open loops run
        // it on the run's clock, so the channel's delay counts like an
        // emulator's.
        let sim = if closed {
            SimTime::from_secs_f64(phase_s + index as f64 / fps)
        } else {
            SimTime::from_secs_f64(entered as f64 * 1e-9)
        };
        let pending = Pending {
            stream: stream as u16,
            index: index as u32,
            payload: payload.to_vec(),
            frame: frame.clone(),
            intended_ns: intended,
        };
        let asked = ctx.ns();
        let (reports, inside, send_cpu) = ctx.uplink.with(|u| {
            let inside = ctx.ns();
            {
                let mut book = ctx.book.lock().expect("book lock");
                let id = book.next_id;
                book.next_id += 1;
                book.pending.insert(id, pending);
                if ctx.trace {
                    book.sends.push(SendRec {
                        sim,
                        stream: stream as u16,
                        index: index as u32,
                    });
                }
            }
            let cpu0 = if ctx.trace { cpu::thread_ns() } else { 0 };
            let reports = u.send_block_at(sim, payload);
            let send_cpu = if ctx.trace {
                cpu::thread_ns() - cpu0
            } else {
                0
            };
            (reports, inside, send_cpu)
        });
        ctx.resolve(reports, &tx, false);
        let mut log = ctx.logs[stream].lock().expect("stream log lock");
        log.kept.push(index as u32);
        log.edge_lat_ns
            .push((intended, entered.saturating_sub(intended)));
        if ctx.trace {
            let span = |ns| Span {
                stream: stream as u16,
                index: index as u32,
                ns,
            };
            log.sojourn.push(span(entered.saturating_sub(pushed)));
            log.lock_wait.push(span(inside - asked));
            log.send.push(span(send_cpu));
        }
    })
}

/// The cloud stage's thread. With `yield_to_edge` it runs under
/// `SCHED_IDLE`: it gets only the CPU time the edge's threads leave, and a
/// waking shard or generator preempts it at once.
fn cloud_stage(
    rx: Receiver<CloudItem>,
    streams: usize,
    trace: bool,
    yield_to_edge: bool,
    start: Instant,
) -> CloudLog {
    if yield_to_edge {
        cpu::run_when_idle();
    }
    let mut detector = CnnDetector::new(reference_model(CNN_SEED));
    let mut log = CloudLog {
        labelled: vec![Vec::new(); streams],
        ..CloudLog::default()
    };
    let ns = || start.elapsed().as_nanos() as u64;
    while let Ok(item) = rx.recv() {
        let got = ns();
        let cpu0 = if trace { cpu::thread_ns() } else { 0 };
        let labels: LabelSet = detector.detect(item.index as usize, &item.frame);
        std::hint::black_box(labels);
        let detect_cpu = if trace { cpu::thread_ns() - cpu0 } else { 0 };
        let done = ns();
        log.labelled[item.stream as usize].push(item.index);
        log.label_lat_ns
            .push((item.intended_ns, done.saturating_sub(item.intended_ns)));
        if trace {
            let span = |ns| Span {
                stream: item.stream,
                index: item.index,
                ns,
            };
            log.queue_wait
                .push(span(got.saturating_sub(item.handoff_ns)));
            log.detect.push(span(detect_cpu));
        }
    }
    log
}

/// The generator's side of a run.
struct Generator<'a> {
    ctx: &'a Ctx,
    fleet: &'a Fleet,
    ids: Vec<sieve_fleet::StreamId>,
    cams: &'a [Camera],
    next: Vec<u64>,
    offered: Vec<u64>,
    shed: Vec<Vec<u32>>,
    push_spans: Vec<Span>,
    max_inflight: usize,
    from_ns: u64,
    window_ns: u64,
    decided: Vec<(u64, u64)>,
}

impl Generator<'_> {
    fn offer(&mut self, stream: usize, intended_ns: u64) {
        let index = self.next[stream] as usize;
        self.next[stream] += 1;
        let cam = &self.cams[stream];
        let ef = &cam.video.frames()[index % cam.video.frame_count()];
        let slot = Ctx::slot(stream, index);
        self.ctx.intended[slot].store(intended_ns, Ordering::Release);
        self.ctx.pushed[slot].store(self.ctx.ns(), Ordering::Release);
        let cpu0 = if self.ctx.trace { cpu::thread_ns() } else { 0 };
        let outcome = self
            .fleet
            .push(self.ids[stream], FramePacket::of(index, ef))
            .expect("push to a joined stream");
        if self.ctx.trace {
            self.push_spans.push(Span {
                stream: stream as u16,
                index: index as u32,
                ns: cpu::thread_ns() - cpu0,
            });
        }
        if matches!(outcome, Ingest::Shed(_)) {
            self.shed[stream].push(index as u32);
        }
        self.offered[stream] += 1;
        self.max_inflight = self.max_inflight.max(self.fleet.inflight());
    }

    /// Samples how many frames the fleet has decided at each window
    /// boundary of the measured part that `now` has passed.
    fn mark(&mut self, now: u64) {
        while self.decided.len() <= WINDOWS
            && now >= self.from_ns + self.decided.len() as u64 * self.window_ns
        {
            let a = self.fleet.snapshot().aggregate;
            self.decided
                .push((now, a.kept + a.dropped + a.failed + a.shed));
        }
    }
}

/// Runs `w` over `cams` for `seconds`, then drains: the run ends when
/// every offered frame is decided and every kept frame is labelled or
/// declared lost.
pub fn run(
    w: &Workload,
    cams: &[Camera],
    seed: u64,
    seconds: f64,
    shards: usize,
    trace: bool,
) -> RunOutput {
    let streams = cams.len();
    // Every run starts from an untightened WAN factor; the uplink's
    // feedback is its only writer.
    wan_signal().reset();
    let registry = Arc::new(Registry::new());
    let mut uplink_cfg = w.uplink(seed);
    if let Link::Lossy { cap_fraction, .. } = w.link {
        let capacity = cap_fraction * offered_load_bps(w, cams, &uplink_cfg);
        uplink_cfg.wan.bandwidth_bps = capacity;
        // Two seconds of line rate, as the repository's WAN sweep sizes it.
        uplink_cfg.wan.queue_bytes = (capacity / 8.0 * 2.0) as usize;
    }
    let uplink = SharedUplink::new(
        Uplink::with_registry(uplink_cfg.clone(), &registry).expect("valid uplink config"),
    );
    let ctx = Arc::new(Ctx {
        start: Instant::now(),
        trace,
        intended: (0..streams * RING).map(|_| AtomicU64::new(0)).collect(),
        pushed: (0..streams * RING).map(|_| AtomicU64::new(0)).collect(),
        book: Mutex::new(Book::default()),
        verdicts: Mutex::new(Verdicts::default()),
        logs: (0..streams)
            .map(|_| Mutex::new(StreamLog::default()))
            .collect(),
        uplink: uplink.clone(),
    });
    let (tx, rx) = sync_channel::<CloudItem>(CLOUD_QUEUE);
    let fleet = Fleet::new(FleetConfig {
        shards,
        queue_capacity: QUEUE_CAPACITY,
        global_frame_budget: GLOBAL_FRAME_BUDGET,
        ..FleetConfig::default()
    });
    let policy = selector(w);
    let closed = w.closed();
    let ids: Vec<_> = cams
        .iter()
        .enumerate()
        .map(|(i, cam)| {
            let mut cfg = StreamConfig::new(
                format!("cam-{i}"),
                cam.video.resolution(),
                cam.video.quality(),
            );
            if let Selection::MseTarget(rate) = w.selection {
                cfg = cfg.with_target_rate(rate);
            }
            // Cameras are not frame-locked: each has its own phase.
            let fps = f64::from(cam.video.fps());
            let sink = make_sink(&ctx, tx.clone(), i, closed, cam.phase_s, fps);
            fleet
                .join_with_sink(policy.as_ref(), cfg, sink)
                .expect("admission below the stream cap")
        })
        .collect();

    let from_ns = (WARMUP_S * 1e9) as u64;
    let span_ns = (seconds * 1e9) as u64;
    let deadline = from_ns + span_ns;
    let cpu0 = cpu::process_ns();
    let start = ctx.start;
    // In the open loop the cloud stands for another machine: on a shared
    // host its CNN must not delay the edge, or the edge's latency measures
    // the scheduler. The closed loops measure what edge and cloud manage
    // together on the host, so there the cloud competes as an equal.
    let yield_to_edge = !closed;
    let cloud = std::thread::spawn(move || cloud_stage(rx, streams, trace, yield_to_edge, start));
    let mut gen = Generator {
        ctx: &ctx,
        fleet: &fleet,
        ids: ids.clone(),
        cams,
        next: vec![0; streams],
        offered: vec![0; streams],
        shed: vec![Vec::new(); streams],
        push_spans: Vec::new(),
        max_inflight: 0,
        from_ns,
        window_ns: span_ns / WINDOWS as u64,
        decided: Vec::new(),
    };
    let mut gen_lag_ms = Vec::new();
    let mut backlog = Vec::new();
    match w.pacing {
        Pacing::Closed => 'run: loop {
            for s in 0..streams {
                // Blocking admission on the fleet's own count of queued
                // frames: once the window is full, sleep until half of it
                // is worked off (a window is milliseconds of work, a poll
                // 50 µs). A push is never retried, so none is shed.
                if fleet.inflight() >= CLOSED_LOOP_WINDOW {
                    while fleet.inflight() > CLOSED_LOOP_WINDOW / 2 {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                }
                let now = ctx.ns();
                gen.mark(now);
                if now >= deadline {
                    break 'run;
                }
                gen.offer(s, now);
            }
        },
        Pacing::Open { fps } => {
            cpu::exact_timers();
            let period = 1e9 / fps;
            for k in 0u64.. {
                let due = (k as f64 * period) as u64;
                if due >= deadline {
                    break;
                }
                // Sleep, never spin: a spinning generator holds a CPU that
                // a waking shard then waits for. The timer slack is cut to
                // 1 ns below, so the sleep ends close to the due time.
                loop {
                    let now = ctx.ns();
                    if now >= due {
                        break;
                    }
                    std::thread::sleep(Duration::from_nanos(due - now));
                }
                let now = ctx.ns();
                gen.mark(now);
                gen_lag_ms.push((now - due) as f64 * 1e-6);
                gen.offer(k as usize % streams, due);
                if k % 256 == 0 {
                    backlog.push((due as f64 * 1e-9, fleet.inflight() as f64));
                }
            }
        }
    }
    gen.mark(ctx.ns().max(deadline));
    // Keep what the generator logged; its borrow of the fleet ends here.
    let Generator {
        offered,
        shed,
        push_spans,
        max_inflight,
        decided,
        ..
    } = gen;
    for &id in &ids {
        fleet.leave(id).expect("leave a joined stream");
    }
    // Joining the shards drops their sinks, and with them their senders.
    let report = fleet.shutdown();
    let last = uplink.finish();
    ctx.resolve(last, &tx, true);
    drop(tx);
    let cloud = cloud.join().expect("cloud stage panicked");
    let wall_s = ctx.start.elapsed().as_secs_f64();
    let cpu_s = (cpu::process_ns() - cpu0) as f64 * 1e-9;

    let counts = uplink.counts();
    let ecn_marked = WanTaps::register(&registry).packets_marked.get();
    let ctx = Arc::try_unwrap(ctx).unwrap_or_else(|_| panic!("every sink dropped at shutdown"));
    let book = ctx.book.into_inner().expect("book lock");
    let verdicts = ctx.verdicts.into_inner().expect("verdict lock");
    let mut trace_out = trace.then(Trace::default);
    let mut kept = Vec::with_capacity(streams);
    let mut edge_lat = Vec::new();
    for log in ctx.logs {
        let log = log.into_inner().expect("stream log lock");
        edge_lat.extend(measured(&log.edge_lat_ns, from_ns));
        if let Some(t) = trace_out.as_mut() {
            t.sojourn.extend(log.sojourn);
            t.lock_wait.extend(log.lock_wait);
            t.send.extend(log.send);
        }
        let mut k = log.kept;
        k.sort_unstable();
        kept.push(k);
    }
    if let Some(t) = trace_out.as_mut() {
        t.push = push_spans;
        t.queue_wait = cloud.queue_wait;
        t.detect = cloud.detect;
        t.sends = book.sends;
    }
    let labelled = cloud
        .labelled
        .into_iter()
        .map(|mut v| {
            v.sort_unstable();
            v
        })
        .collect();
    RunOutput {
        offered,
        shed,
        wall_s,
        cpu_s,
        snapshot: report.snapshot,
        counts,
        ecn_marked,
        uplink: uplink_cfg,
        span_ns,
        decided,
        edge_lat,
        label_lat: measured(&cloud.label_lat_ns, from_ns),
        gen_lag_ms,
        kept,
        labelled,
        lost: verdicts.lost,
        usable: verdicts.usable,
        mismatches: verdicts.mismatches,
        unknown: verdicts.unknown,
        unresolved: book.pending.len(),
        flush_resolved: verdicts.flushed,
        max_inflight,
        backlog,
        trace: trace_out,
    }
}
