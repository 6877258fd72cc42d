//! Policy wrappers that time calls into a policy from outside, plus the
//! span log the traced run writes.
//!
//! Both wrappers implement `OnlinePolicy` by delegating every callback to
//! the wrapped policy, so the engine drives the real policy unchanged.
//! [`LatencyProbe`] reads the clock once per event, at the end of each
//! arrival callback; the gap between two readings is that event's service
//! time, including the expiry work the engine did before the callback.
//! [`Traced`] reads it around every callback and records spans.

use ftoa_core::{EngineContext, OnlinePolicy, Stopwatch};
use ftoa_types::{Task, TimeDelta, TimeStamp, Worker};
use std::fmt::Write as _;
use std::time::Duration;

/// Per-event service times (nanoseconds) of one engine run.
pub struct LatencyProbe<'a> {
    inner: &'a mut dyn OnlinePolicy,
    clock: Stopwatch,
    last: Option<Duration>,
    samples: &'a mut Vec<u64>,
}

impl<'a> LatencyProbe<'a> {
    /// Wrap `inner`, appending one sample per event after the first to
    /// `samples` (the first event has no previous reading to measure from).
    pub fn new(inner: &'a mut dyn OnlinePolicy, samples: &'a mut Vec<u64>) -> Self {
        Self { inner, clock: Stopwatch::start(), last: None, samples }
    }

    fn tick(&mut self) {
        let now = self.clock.elapsed();
        if let Some(last) = self.last {
            self.samples.push(duration_ns(now - last));
        }
        self.last = Some(now);
    }
}

impl OnlinePolicy for LatencyProbe<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_worker_arrival(&mut self, ctx: &mut EngineContext<'_>, worker: &Worker) {
        self.inner.on_worker_arrival(ctx, worker);
        self.tick();
    }

    fn on_task_arrival(&mut self, ctx: &mut EngineContext<'_>, task: &Task) {
        self.inner.on_task_arrival(ctx, task);
        self.tick();
    }

    fn on_worker_expiry(&mut self, ctx: &mut EngineContext<'_>, worker: &Worker) {
        self.inner.on_worker_expiry(ctx, worker);
    }

    fn on_task_expiry(&mut self, ctx: &mut EngineContext<'_>, task: &Task) {
        self.inner.on_task_expiry(ctx, task);
    }

    fn on_finish(&mut self, ctx: &mut EngineContext<'_>) {
        self.inner.on_finish(ctx);
    }

    fn expiry_cutoff(&self, now: TimeStamp) -> TimeStamp {
        self.inner.expiry_cutoff(now)
    }
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Labels the arrival callbacks in which a batch policy closes windows.
///
/// It mirrors the policies' `catch_up`: the first arrival opens a window
/// ending one window length later, and every arrival at or past the open
/// window's end closes it (and any further windows it has passed) before
/// the arrival is admitted.
#[derive(Debug, Clone)]
pub struct WindowLabeller {
    window: TimeDelta,
    end: Option<TimeStamp>,
}

impl WindowLabeller {
    /// A labeller for windows of `window_minutes`.
    pub fn new(window_minutes: f64) -> Self {
        Self { window: TimeDelta::minutes(window_minutes.max(1e-6)), end: None }
    }

    /// How many windows an arrival at `now` closes.
    pub fn on_arrival(&mut self, now: TimeStamp) -> u64 {
        let Some(mut end) = self.end else {
            self.end = Some(now + self.window);
            return 0;
        };
        let mut closed = 0;
        while now >= end {
            closed += 1;
            end += self.window;
        }
        self.end = Some(end);
        closed
    }

    /// The end of the open window, which the finish callback closes.
    pub fn open_end(&self) -> Option<TimeStamp> {
        self.end
    }
}

/// A parent span's self time: its duration minus the part of its interval
/// that child spans cover. Children must be reported in start order.
#[derive(Debug, Clone, Copy)]
pub struct SelfTime {
    start: Duration,
    covered: Duration,
    covered_to: Duration,
}

impl SelfTime {
    /// Start accounting for a parent span opened at `start`.
    pub fn new(start: Duration) -> Self {
        Self { start, covered: Duration::ZERO, covered_to: start }
    }

    /// A child span `[start, end)`. Parts already covered by earlier
    /// children, or before the parent's start, count once.
    pub fn child(&mut self, start: Duration, end: Duration) {
        let from = start.max(self.covered_to);
        if end > from {
            self.covered += end - from;
            self.covered_to = end;
        }
    }

    /// The self time of the parent span closed at `end`; children reaching
    /// past `end` count only up to it.
    pub fn finish(&self, end: Duration) -> Duration {
        let beyond = self.covered_to.saturating_sub(end);
        let covered = self.covered.saturating_sub(beyond);
        end.saturating_sub(self.start).saturating_sub(covered)
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What the span times: a phase, a probe, a policy run or a callback.
    pub name: &'static str,
    /// The policy key for run and callback spans, else empty.
    pub policy: &'static str,
    /// Start, from the log's origin.
    pub start: Duration,
    /// End, from the log's origin.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Index of the arrival event the span belongs to (callbacks only).
    pub event: Option<u64>,
}

/// Spans kept in memory and written out when the traced run ends.
///
/// Phase, probe and run spans are always kept, and so are flush and
/// finish callbacks. Arrival and expiry callbacks are kept for every
/// `keep_every`-th event, which bounds the file on the 1M-event workload;
/// the per-layer totals count every callback either way.
pub struct SpanLog {
    clock: Stopwatch,
    keep_every: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose origin is now, keeping every callback.
    pub fn new() -> Self {
        Self { clock: Stopwatch::start(), keep_every: 1, spans: Vec::new() }
    }

    /// Time since the log's origin.
    pub fn now(&self) -> Duration {
        self.clock.elapsed()
    }

    /// Record a span and return its index.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Record a phase or probe span around `work`, returning its result and
    /// duration.
    pub fn time<R>(&mut self, name: &'static str, work: impl FnOnce() -> R) -> (R, Duration) {
        let start = self.now();
        let out = work();
        let end = self.now();
        self.push(Span { name, policy: "", start, end, parent: None, event: None });
        (out, end - start)
    }

    /// Keep arrival and expiry callbacks of every `keep_every`-th event.
    pub fn set_keep_every(&mut self, keep_every: u64) {
        self.keep_every = keep_every.max(1);
    }

    fn keeps(&self, name: &str, event: u64) -> bool {
        !matches!(name, "arrival" | "expiry") || event.is_multiple_of(self.keep_every)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"policy\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}",
                s.name,
                s.policy,
                duration_ns(s.start),
                duration_ns(s.end)
            );
            if let Some(parent) = s.parent {
                let _ = write!(out, ", \"parent\": {parent}");
            }
            if let Some(event) = s.event {
                let _ = write!(out, ", \"event\": {event}");
            }
            out.push_str("}\n");
        }
        out
    }
}

/// Callback time of one traced policy run, by kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Callbacks {
    /// Arrival callbacks that closed no window.
    pub arrival: Duration,
    /// Arrival callbacks that closed at least one window.
    pub flush: Duration,
    /// Number of arrival callbacks that closed windows.
    pub flush_callbacks: u64,
    /// Number of windows those callbacks closed.
    pub windows_closed: u64,
    /// Expiry callbacks.
    pub expiry: Duration,
    /// The finish callback.
    pub finish: Duration,
}

impl Callbacks {
    /// Every callback span's duration, summed.
    pub fn total(&self) -> Duration {
        self.arrival + self.flush + self.expiry + self.finish
    }
}

/// A policy wrapper that records a span around every callback.
pub struct Traced<'a> {
    inner: &'a mut dyn OnlinePolicy,
    log: &'a mut SpanLog,
    policy: &'static str,
    run: usize,
    windows: Option<WindowLabeller>,
    event: u64,
    callbacks: Callbacks,
    self_time: SelfTime,
}

impl<'a> Traced<'a> {
    /// Wrap `inner` for a run whose span opens now. `window_minutes` is the
    /// batch window of a windowed policy, whose flushes are labelled.
    pub fn new(
        inner: &'a mut dyn OnlinePolicy,
        log: &'a mut SpanLog,
        policy: &'static str,
        window_minutes: Option<f64>,
    ) -> Self {
        let start = log.now();
        let run =
            log.push(Span { name: "run", policy, start, end: start, parent: None, event: None });
        Self {
            inner,
            log,
            policy,
            run,
            windows: window_minutes.map(WindowLabeller::new),
            event: 0,
            callbacks: Callbacks::default(),
            self_time: SelfTime::new(start),
        }
    }

    /// Close the run span now; returns the callback totals, the run span's
    /// duration and its self time.
    pub fn close(self) -> (Callbacks, Duration, Duration) {
        let end = self.log.now();
        let span = &mut self.log.spans[self.run];
        span.end = end;
        let run = end - span.start;
        (self.callbacks, run, self.self_time.finish(end))
    }

    fn record(&mut self, name: &'static str, start: Duration, event: Option<u64>) -> Duration {
        let end = self.log.now();
        self.self_time.child(start, end);
        if self.log.keeps(name, self.event) {
            let span =
                Span { name, policy: self.policy, start, end, parent: Some(self.run), event };
            self.log.push(span);
        }
        end - start
    }

    fn arrival(
        &mut self,
        ctx: &mut EngineContext<'_>,
        call: impl FnOnce(&mut dyn OnlinePolicy, &mut EngineContext<'_>),
    ) {
        let closed = self.windows.as_mut().map_or(0, |w| w.on_arrival(ctx.now()));
        let start = self.log.now();
        call(self.inner, ctx);
        let event = self.event;
        let name = if closed > 0 { "flush" } else { "arrival" };
        let took = self.record(name, start, Some(event));
        if closed > 0 {
            self.callbacks.flush += took;
            self.callbacks.flush_callbacks += 1;
            self.callbacks.windows_closed += closed;
        } else {
            self.callbacks.arrival += took;
        }
        self.event += 1;
    }

    fn expiry(
        &mut self,
        ctx: &mut EngineContext<'_>,
        call: impl FnOnce(&mut dyn OnlinePolicy, &mut EngineContext<'_>),
    ) {
        let start = self.log.now();
        call(self.inner, ctx);
        let took = self.record("expiry", start, Some(self.event));
        self.callbacks.expiry += took;
    }
}

impl OnlinePolicy for Traced<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_worker_arrival(&mut self, ctx: &mut EngineContext<'_>, worker: &Worker) {
        self.arrival(ctx, |p, ctx| p.on_worker_arrival(ctx, worker));
    }

    fn on_task_arrival(&mut self, ctx: &mut EngineContext<'_>, task: &Task) {
        self.arrival(ctx, |p, ctx| p.on_task_arrival(ctx, task));
    }

    fn on_worker_expiry(&mut self, ctx: &mut EngineContext<'_>, worker: &Worker) {
        self.expiry(ctx, |p, ctx| p.on_worker_expiry(ctx, worker));
    }

    fn on_task_expiry(&mut self, ctx: &mut EngineContext<'_>, task: &Task) {
        self.expiry(ctx, |p, ctx| p.on_task_expiry(ctx, task));
    }

    fn on_finish(&mut self, ctx: &mut EngineContext<'_>) {
        let start = self.log.now();
        self.inner.on_finish(ctx);
        let took = self.record("finish", start, None);
        self.callbacks.finish += took;
    }

    fn expiry_cutoff(&self, now: TimeStamp) -> TimeStamp {
        self.inner.expiry_cutoff(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftoa_core::{BatchGreedy, IndexBackend, Instance, SimulationEngine};
    use workload::SyntheticConfig;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn windows_close_at_known_boundaries() {
        // Window 3 opened at t = 1: ends at 4, 7, 10, 13, ...
        let mut w = WindowLabeller::new(3.0);
        let closed: Vec<u64> = [1.0, 2.0, 4.0, 4.5, 6.9, 7.0, 12.0, 19.0]
            .iter()
            .map(|&t| w.on_arrival(TimeStamp::minutes(t)))
            .collect();
        // 12 closes the window ending at 10; 19 closes those ending at 13,
        // 16 and 19 (an arrival at a window's end belongs to the next one).
        assert_eq!(closed, vec![0, 0, 1, 0, 0, 1, 1, 3]);
        assert_eq!(w.open_end(), Some(TimeStamp::minutes(22.0)));
    }

    /// Every GR assignment is dated at a window end; the labeller must have
    /// seen each of those ends closed by an arrival or left open for the
    /// finish callback.
    #[test]
    fn labelled_flushes_match_the_instants_gr_assigns_at() {
        let scenario = SyntheticConfig {
            num_workers: 400,
            num_tasks: 400,
            grid_n: 10,
            num_slots: 8,
            ..SyntheticConfig::default()
        }
        .generate(3);
        let instance = Instance::new(
            &scenario.config,
            &scenario.stream,
            &scenario.predicted_workers,
            &scenario.predicted_tasks,
        );
        let mut log = SpanLog::new();
        let mut gr = BatchGreedy { window_minutes: 3.0 }.policy();
        let mut traced = Traced::new(&mut gr, &mut log, "gr", Some(3.0));
        let result = SimulationEngine::new(IndexBackend::Grid).run(&instance, &mut traced);
        let (callbacks, _, _) = traced.close();
        assert!(result.matching_size() > 0);

        // Replay the labeller to list the window ends it closed.
        let mut labeller = WindowLabeller::new(3.0);
        let mut ends = Vec::new();
        for event in scenario.stream.iter() {
            let closed = labeller.on_arrival(event.time());
            let open = labeller.open_end().expect("opened by the first arrival");
            for k in (1..=closed).rev() {
                ends.push(open - TimeDelta::minutes(3.0 * k as f64));
            }
        }
        ends.push(labeller.open_end().expect("stream is not empty"));
        assert_eq!(ends.len() as u64, callbacks.windows_closed + 1);
        for a in result.assignments.pairs() {
            assert!(
                ends.iter().any(|e| (e.as_minutes() - a.assigned_at.as_minutes()).abs() < 1e-9),
                "GR assigned at {} which is no labelled window end",
                a.assigned_at
            );
        }
        let flushes = log.spans().iter().filter(|s| s.name == "flush").count() as u64;
        assert_eq!(flushes, callbacks.flush_callbacks);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut st = SelfTime::new(ms(0));
        st.child(ms(10), ms(20));
        st.child(ms(15), ms(30)); // overlaps the first: [20, 30) is new
        st.child(ms(40), ms(40)); // empty
        st.child(ms(90), ms(120)); // reaches past the parent's end at 100
                                   // Covered: [10, 30) + [90, 100) = 30 of 100.
        assert_eq!(st.finish(ms(100)), ms(70));
        // Without children the self time is the whole span.
        assert_eq!(SelfTime::new(ms(5)).finish(ms(25)), ms(20));
    }

    #[test]
    fn sequential_children_make_self_plus_children_equal_the_span() {
        let mut st = SelfTime::new(ms(0));
        let children = [(1, 3), (3, 7), (8, 9)];
        let mut sum = Duration::ZERO;
        for (a, b) in children {
            st.child(ms(a), ms(b));
            sum += ms(b) - ms(a);
        }
        assert_eq!(st.finish(ms(10)) + sum, ms(10));
    }

    #[test]
    fn span_log_keeps_sampled_callbacks_and_every_flush() {
        let mut log = SpanLog::new();
        log.set_keep_every(4);
        assert!(log.keeps("arrival", 8));
        assert!(!log.keeps("arrival", 9));
        assert!(!log.keeps("expiry", 9));
        assert!(log.keeps("flush", 9));
        assert!(log.keeps("finish", 9));
        let ((), _) = log.time("phase", || ());
        let line = log.to_jsonl();
        assert!(line.starts_with("{\"id\": 0, \"name\": \"phase\""), "{line}");
        assert!(line.ends_with("}\n"));
    }
}
