//! Versioned, self-describing text traces of arrival streams.
//!
//! The paper's experiments — and the north-star of serving recorded real
//! traffic — replay *recorded* arrival sequences, not just freshly sampled
//! synthetic ones. A trace file captures one problem instance (the
//! [`ProblemConfig`] plus the time-ordered worker/task arrivals) in a plain
//! text format that is stable across machines: [`TraceWriter`] serialises any
//! [`EventStream`], and the streaming [`TraceReader`] reconstructs a
//! bit-identical stream that replays through `ftoa-core`'s
//! `SimulationEngine` with any `OnlinePolicy` / `CandidateIndex` backend
//! unchanged.
//!
//! # Format (`ftoa-trace v2`)
//!
//! Line-oriented UTF-8 text. Grammar (one record per line; `#`-lines and
//! blank lines are ignored everywhere except the mandatory first line):
//!
//! ```text
//! trace      := magic config-line* event-line*
//! magic      := "#ftoa-trace v2"
//! config-line:= "config region <min_x> <min_y> <max_x> <max_y>"
//!             | "config grid <nx> <ny>"
//!             | "config slots <start_min> <slot_min> <num_slots>"
//!             | "config velocity <units_per_min>"
//!             | "config defaults <worker_wait_min> <task_patience_min>"
//! event-line := "w <id> <time_min> <x> <y> <wait_min> <capacity>"
//!             | "t <id> <time_min> <x> <y> <patience_min> <payoff>"
//! ```
//!
//! All five `config` lines are required (in any order, before the first
//! event). A header may declare at most [`MAX_TRACE_TYPES`] (2^24)
//! `(slot, cell)` types, `num_slots × nx × ny`; the `grid` or `slots` line
//! that crosses the cap is rejected. The slot start and slot length must be
//! finite.
//!
//! Event lines appear in arrival-time order, as a log would record
//! them. Every event time lies in `[start − H, end + H]`, where
//! `[start, end)` is the slot horizon and `H = end − start` its length.
//! Ids are the dense 0-based ids of the stream, each appearing exactly
//! once, so the reader reconstructs the exact worker/task numbering — and
//! therefore the exact engine behaviour — of the captured stream. Floats are
//! printed with Rust's shortest round-trip formatting, so `write → read` is
//! lossless.
//!
//! In v2 the trailing fields are *live*: `capacity` is the worker's
//! multi-assignment capacity (an integer, at least 1) and `payoff` is the
//! task's utility under the weighted MaxSum objective (a positive finite
//! float). The [`TraceWriter`] always emits v2; the [`TraceReader`] also
//! accepts the legacy `#ftoa-trace v1` header, under which both fields are
//! reserved and must be exactly `1` (the paper's single-assignment,
//! unit-payoff model). A unit-value stream therefore serialises to the same
//! event lines under either version — only the magic differs.
//!
//! Example:
//!
//! ```text
//! #ftoa-trace v2
//! config region 0 0 50 50
//! config grid 50 50
//! config slots 0 15 48
//! config velocity 0.3333333333333333
//! config defaults 30 30
//! w 0 12.25 4.5 9.125 30 2
//! t 0 12.5 5 8 30 1.5
//! ```

use crate::scenario::Scenario;
use ftoa_types::{
    BoundingBox, EventStream, GridPartition, ProblemConfig, SlotPartition, Task, TaskId, TimeDelta,
    TimeStamp, Worker, WorkerId,
};
use prediction::SpatioTemporalMatrix;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::ops::RangeInclusive;
use std::path::Path;

/// The magic line the writer emits (the current format version).
pub const TRACE_MAGIC: &str = "#ftoa-trace v2";

/// The legacy v1 magic line, still accepted by the reader. Under v1 the
/// trailing `capacity` / `payoff` event fields are reserved and must be `1`.
pub const TRACE_MAGIC_V1: &str = "#ftoa-trace v1";

/// The most `(slot, cell)` types a trace header may declare, that is the
/// largest `num_slots × nx × ny`. Replay sizes its per-type count matrices
/// from the header, so without a cap a one-line edit could demand terabytes.
/// The largest configuration in this repository, Figure 4's 200 × 200 grid
/// at 48 slots, declares 1.92M types.
pub const MAX_TRACE_TYPES: usize = 1 << 24;

/// The format version a trace was read from (or will be written as).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceVersion {
    /// Legacy unit-value format: `capacity` / `payoff` reserved, must be `1`.
    V1,
    /// Current weighted format: live worker capacity and task payoff.
    V2,
}

impl TraceVersion {
    /// The magic line of this version.
    pub fn magic(self) -> &'static str {
        match self {
            TraceVersion::V1 => TRACE_MAGIC_V1,
            TraceVersion::V2 => TRACE_MAGIC,
        }
    }
}

/// A parsed trace: the configuration and the reconstructed arrival stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Grid / slot / velocity configuration recorded in the header.
    pub config: ProblemConfig,
    /// The recorded arrivals, identical to the captured stream.
    pub stream: EventStream,
    /// The format version the trace was read from. Purely informational for
    /// replay (a v1 trace is exactly a v2 trace with all-unit values), but
    /// lets tooling report whether weighted fields were live in the source.
    pub version: TraceVersion,
}

impl Trace {
    /// Turn the trace into a runnable [`Scenario`].
    ///
    /// A trace records only what actually happened, so the prediction
    /// matrices handed to the offline guide are the *realised* per-slot /
    /// per-cell counts (the "oracle prediction" of the ablation studies).
    /// Callers that want an imperfect prediction can perturb it afterwards
    /// with [`Scenario::with_prediction_noise`].
    pub fn into_scenario(self) -> Scenario {
        let zeros = SpatioTemporalMatrix::zeros(
            self.config.slots.num_slots(),
            self.config.grid.num_cells(),
        );
        Scenario {
            config: self.config,
            stream: self.stream,
            predicted_workers: zeros.clone(),
            predicted_tasks: zeros,
        }
        .with_perfect_prediction()
    }
}

/// Errors produced while reading a trace.
#[derive(Debug)]
pub enum TraceError {
    /// The underlying reader failed.
    Io(io::Error),
    /// A line could not be parsed; carries the 1-based line number.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
}

impl TraceError {
    fn parse(line: usize, message: impl Into<String>) -> Self {
        TraceError::Parse { line, message: message.into() }
    }

    /// A failed read of line `line`. Bytes that are not UTF-8 make the line
    /// unparseable, so they are a parse error naming it; any other I/O
    /// failure stays [`TraceError::Io`].
    fn reading(line: usize, e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::InvalidData {
            TraceError::parse(line, format!("cannot read the line: {e}"))
        } else {
            TraceError::Io(e)
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Parse { line, message } => write!(f, "trace line {line}: {message}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Serialises a [`ProblemConfig`] and an [`EventStream`] into the v2 text
/// format, so any generated scenario (synthetic, city, preset) can be
/// captured to disk and replayed later. Worker capacities and task payoffs
/// are written as live fields; unit-value streams produce event lines
/// identical to the legacy v1 rendering.
pub struct TraceWriter;

impl TraceWriter {
    /// Render the trace as a string.
    pub fn to_string(config: &ProblemConfig, stream: &EventStream) -> String {
        let mut out = Vec::new();
        Self::write(&mut out, config, stream).expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("trace output is ASCII")
    }

    /// Write the trace to any [`Write`] sink.
    pub fn write<W: Write>(
        mut out: W,
        config: &ProblemConfig,
        stream: &EventStream,
    ) -> io::Result<()> {
        let b = config.grid.bounds();
        writeln!(out, "{TRACE_MAGIC}")?;
        writeln!(
            out,
            "# {} workers, {} tasks, {} events",
            stream.num_workers(),
            stream.num_tasks(),
            stream.len()
        )?;
        writeln!(out, "config region {} {} {} {}", b.min_x, b.min_y, b.max_x, b.max_y)?;
        writeln!(out, "config grid {} {}", config.grid.nx(), config.grid.ny())?;
        writeln!(
            out,
            "config slots {} {} {}",
            config.slots.start().as_minutes(),
            config.slots.slot_len().as_minutes(),
            config.slots.num_slots()
        )?;
        writeln!(out, "config velocity {}", config.velocity)?;
        writeln!(
            out,
            "config defaults {} {}",
            config.default_worker_wait.as_minutes(),
            config.default_task_patience.as_minutes()
        )?;
        for event in stream.iter() {
            match event {
                ftoa_types::Event::WorkerArrival(w) => writeln!(
                    out,
                    "w {} {} {} {} {} {}",
                    w.id.index(),
                    w.start.as_minutes(),
                    w.location.x,
                    w.location.y,
                    w.wait.as_minutes(),
                    w.capacity
                )?,
                ftoa_types::Event::TaskArrival(r) => writeln!(
                    out,
                    "t {} {} {} {} {} {}",
                    r.id.index(),
                    r.release.as_minutes(),
                    r.location.x,
                    r.location.y,
                    r.patience.as_minutes(),
                    r.payoff
                )?,
            }
        }
        Ok(())
    }

    /// Write the trace to a file, creating parent directories as needed.
    pub fn write_file(
        path: impl AsRef<Path>,
        config: &ProblemConfig,
        stream: &EventStream,
    ) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::File::create(path)?;
        let mut buf = io::BufWriter::new(file);
        Self::write(&mut buf, config, stream)?;
        buf.flush()
    }
}

/// Partially-parsed header state collected before the first event line.
#[derive(Default)]
struct HeaderBuilder {
    region: Option<(f64, f64, f64, f64)>,
    grid: Option<(usize, usize)>,
    slots: Option<(f64, f64, usize)>,
    velocity: Option<f64>,
    defaults: Option<(f64, f64)>,
}

impl HeaderBuilder {
    /// Reject a header whose `num_slots × nx × ny`, over the factors read
    /// so far, overflows or exceeds [`MAX_TRACE_TYPES`]. Called on the
    /// `grid` and `slots` lines, so the error names the line that crossed
    /// the cap.
    fn check_types(&self, line: usize) -> Result<(), TraceError> {
        let (nx, ny) = self.grid.unwrap_or((1, 1));
        let num_slots = self.slots.map_or(1, |(_, _, n)| n);
        match num_slots.checked_mul(nx).and_then(|t| t.checked_mul(ny)) {
            Some(types) if types <= MAX_TRACE_TYPES => Ok(()),
            _ => Err(TraceError::parse(
                line,
                format!(
                    "{num_slots} slots x {nx} x {ny} cells exceeds the limit of \
                     {MAX_TRACE_TYPES} (slot, cell) types"
                ),
            )),
        }
    }

    fn build(self, line: usize) -> Result<ProblemConfig, TraceError> {
        let (min_x, min_y, max_x, max_y) = self
            .region
            .ok_or_else(|| TraceError::parse(line, "missing `config region` before events"))?;
        let (nx, ny) = self.grid.ok_or_else(|| TraceError::parse(line, "missing `config grid`"))?;
        let (start, slot_len, num_slots) =
            self.slots.ok_or_else(|| TraceError::parse(line, "missing `config slots`"))?;
        let velocity =
            self.velocity.ok_or_else(|| TraceError::parse(line, "missing `config velocity`"))?;
        let (wait, patience) =
            self.defaults.ok_or_else(|| TraceError::parse(line, "missing `config defaults`"))?;
        let grid = GridPartition::new(BoundingBox::new(min_x, min_y, max_x, max_y), nx, ny)
            .map_err(|e| TraceError::parse(line, format!("invalid grid: {e}")))?;
        let slots =
            SlotPartition::new(TimeStamp::minutes(start), TimeDelta::minutes(slot_len), num_slots)
                .map_err(|e| TraceError::parse(line, format!("invalid slots: {e}")))?;
        if !(velocity.is_finite() && velocity > 0.0) {
            return Err(TraceError::parse(line, "velocity must be a positive finite number"));
        }
        Ok(ProblemConfig::new(
            grid,
            slots,
            velocity,
            TimeDelta::minutes(wait),
            TimeDelta::minutes(patience),
        ))
    }
}

/// The event times a trace may carry: the slot horizon `[start, end)`
/// widened by its own length `H` on each side. Times outside the horizon
/// fall into the edge slots by design, but one far outside it would make a
/// batch policy solve one empty round per window across the gap.
fn event_time_bounds(slots: &SlotPartition) -> RangeInclusive<f64> {
    let horizon = slots.horizon().as_minutes();
    (slots.start().as_minutes() - horizon)..=(slots.end().as_minutes() + horizon)
}

/// Streaming reader for the trace text format (v2, plus legacy v1).
///
/// Lines are consumed one at a time from any [`BufRead`] source — the whole
/// file is never materialised as a string — and the arrivals are accumulated
/// into the dense worker/task tables the [`EventStream`] is rebuilt from.
pub struct TraceReader;

impl TraceReader {
    /// Read a trace from a string slice.
    pub fn read_str(s: &str) -> Result<Trace, TraceError> {
        Self::read(s.as_bytes())
    }

    /// Read a trace from a file path.
    pub fn read_file(path: impl AsRef<Path>) -> Result<Trace, TraceError> {
        Self::read(std::fs::File::open(path)?)
    }

    /// Read a trace from any byte source.
    pub fn read<R: Read>(source: R) -> Result<Trace, TraceError> {
        let mut lines = BufReader::new(source).lines();
        let first = lines
            .next()
            .ok_or_else(|| TraceError::parse(1, "empty input: expected magic line"))?
            .map_err(|e| TraceError::reading(1, e))?;
        let found = first.trim_end();
        let version = if found == TRACE_MAGIC {
            TraceVersion::V2
        } else if found == TRACE_MAGIC_V1 {
            TraceVersion::V1
        } else {
            // Distinguish "a trace from the future" from "not a trace at
            // all": the former deserves a pointer at the version, not a
            // generic magic mismatch.
            let message = match found.strip_prefix("#ftoa-trace v") {
                Some(v) if !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()) => format!(
                    "unsupported trace format version v{v}: this reader understands \
                     `{TRACE_MAGIC}` and the legacy `{TRACE_MAGIC_V1}` only"
                ),
                _ => format!("expected magic `{TRACE_MAGIC}`, found `{found}`"),
            };
            return Err(TraceError::parse(1, message));
        };

        let mut header = Some(HeaderBuilder::default());
        let mut config: Option<ProblemConfig> = None;
        let mut workers: Vec<(usize, usize, Worker)> = Vec::new();
        let mut tasks: Vec<(usize, usize, Task)> = Vec::new();
        let mut time_bounds = 0.0..=0.0;
        let mut last_time: Option<f64> = None;
        let mut line_no = 1usize;
        for line in lines {
            line_no += 1;
            let line = line.map_err(|e| TraceError::reading(line_no, e))?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = trimmed.split_ascii_whitespace().collect();
            match fields[0] {
                "config" => {
                    let builder = header.as_mut().ok_or_else(|| {
                        TraceError::parse(line_no, "`config` line after the first event")
                    })?;
                    parse_config_line(builder, &fields, line_no)?;
                }
                "w" | "t" => {
                    if config.is_none() {
                        let built =
                            header.take().expect("header taken only once").build(line_no)?;
                        time_bounds = event_time_bounds(&built.slots);
                        config = Some(built);
                    }
                    let time =
                        parse_event_line(version, &fields, line_no, &mut workers, &mut tasks)?;
                    if !time_bounds.contains(&time) {
                        return Err(TraceError::parse(
                            line_no,
                            format!(
                                "event timestamp {time} is outside [{}, {}], the slot horizon \
                                 widened by its own length on each side",
                                time_bounds.start(),
                                time_bounds.end()
                            ),
                        ));
                    }
                    // Arrival order is part of the format, not a convention:
                    // a log records events as they happen, so a timestamp
                    // running backwards means the file was corrupted or
                    // hand-edited. Equal timestamps are fine (simultaneous
                    // arrivals keep their line order).
                    if let Some(prev) = last_time {
                        if time < prev {
                            return Err(TraceError::parse(
                                line_no,
                                format!(
                                    "event timestamp {time} is out of order \
                                     (previous event was at {prev})"
                                ),
                            ));
                        }
                    }
                    last_time = Some(time);
                }
                other => {
                    return Err(TraceError::parse(
                        line_no,
                        format!("unknown record type `{other}`"),
                    ));
                }
            }
        }
        // An eventless trace is legal; the header must still be complete.
        let config = match config {
            Some(c) => c,
            None => header.take().expect("header present").build(line_no)?,
        };
        let workers = collect_dense(workers, "worker")?;
        let tasks = collect_dense(tasks, "task")?;
        Ok(Trace { config, stream: EventStream::new(workers, tasks), version })
    }
}

fn parse_config_line(
    builder: &mut HeaderBuilder,
    fields: &[&str],
    line: usize,
) -> Result<(), TraceError> {
    let expect_args = |n: usize| -> Result<(), TraceError> {
        if fields.len() == n + 2 {
            Ok(())
        } else {
            Err(TraceError::parse(
                line,
                format!("`config {}` expects {n} values, found {}", fields[1], fields.len() - 2),
            ))
        }
    };
    if fields.len() < 2 {
        return Err(TraceError::parse(line, "bare `config` line"));
    }
    match fields[1] {
        "region" => {
            expect_args(4)?;
            builder.region = Some((
                parse_f64(fields[2], line)?,
                parse_f64(fields[3], line)?,
                parse_f64(fields[4], line)?,
                parse_f64(fields[5], line)?,
            ));
        }
        "grid" => {
            expect_args(2)?;
            builder.grid = Some((parse_usize(fields[2], line)?, parse_usize(fields[3], line)?));
            builder.check_types(line)?;
        }
        "slots" => {
            expect_args(3)?;
            let (start, slot_len) = (parse_f64(fields[2], line)?, parse_f64(fields[3], line)?);
            if !(start.is_finite() && slot_len.is_finite()) {
                return Err(TraceError::parse(
                    line,
                    "`config slots` start and slot length must be finite",
                ));
            }
            builder.slots = Some((start, slot_len, parse_usize(fields[4], line)?));
            builder.check_types(line)?;
        }
        "velocity" => {
            expect_args(1)?;
            builder.velocity = Some(parse_f64(fields[2], line)?);
        }
        "defaults" => {
            expect_args(2)?;
            builder.defaults = Some((parse_f64(fields[2], line)?, parse_f64(fields[3], line)?));
        }
        other => {
            return Err(TraceError::parse(line, format!("unknown config key `{other}`")));
        }
    }
    Ok(())
}

/// Parse one `w`/`t` line into the accumulator tables, returning the
/// event's arrival time so the caller can enforce arrival-order
/// monotonicity across lines.
fn parse_event_line(
    version: TraceVersion,
    fields: &[&str],
    line: usize,
    workers: &mut Vec<(usize, usize, Worker)>,
    tasks: &mut Vec<(usize, usize, Task)>,
) -> Result<f64, TraceError> {
    if fields.len() != 7 {
        return Err(TraceError::parse(
            line,
            format!("event line expects 7 fields, found {}", fields.len()),
        ));
    }
    let id = parse_usize(fields[1], line)?;
    let time = parse_f64(fields[2], line)?;
    let x = parse_f64(fields[3], line)?;
    let y = parse_f64(fields[4], line)?;
    let window = parse_f64(fields[5], line)?;
    if version == TraceVersion::V1 {
        // v1 reserves the trailing field; anything but a literal `1` is a
        // format error, distinct from the v2 range checks below.
        let unit = parse_usize(fields[6], line)?;
        if unit != 1 {
            return Err(TraceError::parse(
                line,
                "capacity/payoff must be 1 (reserved for future versions)",
            ));
        }
    }
    if !(time.is_finite() && x.is_finite() && y.is_finite() && window.is_finite() && window >= 0.0)
    {
        return Err(TraceError::parse(line, "event fields must be finite (window non-negative)"));
    }
    let location = ftoa_types::Location::new(x, y);
    match fields[0] {
        "w" => {
            let capacity = match version {
                TraceVersion::V1 => 1,
                TraceVersion::V2 => {
                    let capacity = parse_u32(fields[6], line)?;
                    if capacity == 0 {
                        return Err(TraceError::parse(line, "worker capacity must be at least 1"));
                    }
                    capacity
                }
            };
            workers.push((
                id,
                line,
                Worker::new(
                    WorkerId(id),
                    location,
                    TimeStamp::minutes(time),
                    TimeDelta::minutes(window),
                )
                .with_capacity(capacity),
            ));
        }
        "t" => {
            let payoff = match version {
                TraceVersion::V1 => 1.0,
                TraceVersion::V2 => {
                    let payoff = parse_f64(fields[6], line)?;
                    if !(payoff.is_finite() && payoff > 0.0) {
                        return Err(TraceError::parse(
                            line,
                            "task payoff must be a positive finite number",
                        ));
                    }
                    payoff
                }
            };
            tasks.push((
                id,
                line,
                Task::new(
                    TaskId(id),
                    location,
                    TimeStamp::minutes(time),
                    TimeDelta::minutes(window),
                )
                .with_payoff(payoff),
            ));
        }
        _ => unreachable!("caller dispatches only w/t lines"),
    }
    Ok(time)
}

/// Sort accumulated `(id, line, item)` entries and validate that the ids are
/// exactly `0..n` with no duplicates. Memory is proportional to the number of
/// event *lines*, never to the id values, so a corrupt id like
/// `w 99999999999999 ...` yields a line-numbered parse error instead of a
/// giant allocation.
fn collect_dense<T>(mut entries: Vec<(usize, usize, T)>, kind: &str) -> Result<Vec<T>, TraceError> {
    entries.sort_by_key(|&(id, line, _)| (id, line));
    let total = entries.len();
    let mut out = Vec::with_capacity(total);
    let mut prev: Option<usize> = None;
    for (id, line, item) in entries {
        if prev == Some(id) {
            return Err(TraceError::parse(line, format!("duplicate {kind} id {id}")));
        }
        if id != out.len() {
            return Err(TraceError::parse(
                line,
                format!("{kind} ids are not dense: found id {id} among {total} {kind} lines"),
            ));
        }
        prev = Some(id);
        out.push(item);
    }
    Ok(out)
}

fn parse_f64(s: &str, line: usize) -> Result<f64, TraceError> {
    s.parse().map_err(|_| TraceError::parse(line, format!("invalid number `{s}`")))
}

fn parse_usize(s: &str, line: usize) -> Result<usize, TraceError> {
    s.parse().map_err(|_| TraceError::parse(line, format!("invalid integer `{s}`")))
}

fn parse_u32(s: &str, line: usize) -> Result<u32, TraceError> {
    s.parse().map_err(|_| TraceError::parse(line, format!("invalid integer `{s}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticConfig;

    fn small_scenario() -> Scenario {
        SyntheticConfig {
            num_workers: 120,
            num_tasks: 150,
            grid_n: 8,
            num_slots: 6,
            ..Default::default()
        }
        .generate(2017)
    }

    #[test]
    fn round_trip_reproduces_config_and_stream_exactly() {
        let scenario = small_scenario();
        let text = TraceWriter::to_string(&scenario.config, &scenario.stream);
        let trace = TraceReader::read_str(&text).expect("trace parses");
        assert_eq!(trace.config, scenario.config);
        assert_eq!(trace.stream, scenario.stream);
        // A second round trip is byte-identical (the format is canonical).
        let again = TraceWriter::to_string(&trace.config, &trace.stream);
        assert_eq!(text, again);
    }

    #[test]
    fn file_round_trip() {
        let scenario = small_scenario();
        let dir = std::env::temp_dir().join("ftoa-trace-test");
        let path = dir.join("round_trip.trace");
        TraceWriter::write_file(&path, &scenario.config, &scenario.stream).expect("write");
        let trace = TraceReader::read_file(&path).expect("read");
        assert_eq!(trace.stream, scenario.stream);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn into_scenario_uses_realised_counts_as_prediction() {
        let scenario = small_scenario();
        let text = TraceWriter::to_string(&scenario.config, &scenario.stream);
        let replayed = TraceReader::read_str(&text).unwrap().into_scenario();
        let (w, t) = scenario.actual_counts();
        assert_eq!(replayed.predicted_workers, w);
        assert_eq!(replayed.predicted_tasks, t);
    }

    #[test]
    fn events_are_written_in_time_order() {
        let scenario = small_scenario();
        let text = TraceWriter::to_string(&scenario.config, &scenario.stream);
        let times: Vec<f64> = text
            .lines()
            .filter(|l| l.starts_with("w ") || l.starts_with("t "))
            .map(|l| l.split_ascii_whitespace().nth(2).unwrap().parse().unwrap())
            .collect();
        assert_eq!(times.len(), scenario.stream.len());
        assert!(times.windows(2).all(|p| p[0] <= p[1]), "trace lines must be time-sorted");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "#ftoa-trace v1\n\n# a comment\nconfig region 0 0 10 10\nconfig grid 2 2\n\
                    config slots 0 15 4\nconfig velocity 1\nconfig defaults 10 5\n\n\
                    # events\nw 0 1 2 3 10 1\nt 0 1.5 2.5 3.5 5 1\n";
        let trace = TraceReader::read_str(text).expect("parses");
        assert_eq!(trace.stream.num_workers(), 1);
        assert_eq!(trace.stream.num_tasks(), 1);
        assert_eq!(trace.config.grid.num_cells(), 4);
    }

    #[test]
    fn eventless_trace_is_legal() {
        let text = "#ftoa-trace v1\nconfig region 0 0 10 10\nconfig grid 2 2\n\
                    config slots 0 15 4\nconfig velocity 1\nconfig defaults 10 5\n";
        let trace = TraceReader::read_str(text).expect("parses");
        assert!(trace.stream.is_empty());
    }

    #[test]
    fn malformed_traces_report_line_numbers() {
        let cases: &[(&str, &str)] = &[
            ("", "magic"),
            ("not a trace\n", "magic"),
            ("#ftoa-trace v1\nconfig region 0 0 10 10\n", "missing"),
            ("#ftoa-trace v1\nconfig region 0 0 ten 10\n", "invalid number `ten`"),
            ("#ftoa-trace v1\nconfig region 0 0 10\n", "expects 4 values, found 3"),
            ("#ftoa-trace v1\nconfig\n", "bare `config`"),
            (
                "#ftoa-trace v1\nconfig region 0 0 10 10\nconfig grid 2 2\n\
                 config slots 0 15 4\nconfig velocity 1\nconfig defaults 10 5\n\
                 w 0 1 2\n",
                "expects 7 fields, found 4",
            ),
            (
                "#ftoa-trace v1\nconfig region 0 0 10 10\nconfig grid 2 2\n\
                 config slots 0 15 4\nconfig velocity 1\nconfig defaults 10 5\n\
                 w 0 1 2 3 NaN 1\n",
                "finite",
            ),
            (
                "#ftoa-trace v1\nconfig region 0 0 10 10\nconfig grid 2 2\n\
                 config slots 0 15 4\nconfig velocity 1\nconfig defaults 10 5\nx 0 1 2 3 4 1\n",
                "unknown record",
            ),
            (
                "#ftoa-trace v1\nconfig region 0 0 10 10\nconfig grid 2 2\n\
                 config slots 0 15 4\nconfig velocity 1\nconfig defaults 10 5\n\
                 w 0 1 2 3 10 2\n",
                "capacity",
            ),
            (
                "#ftoa-trace v1\nconfig region 0 0 10 10\nconfig grid 2 2\n\
                 config slots 0 15 4\nconfig velocity 1\nconfig defaults 10 5\n\
                 w 0 1 2 3 10 1\nw 0 2 2 3 10 1\n",
                "duplicate",
            ),
            (
                "#ftoa-trace v1\nconfig region 0 0 10 10\nconfig grid 2 2\n\
                 config slots 0 15 4\nconfig velocity 1\nconfig defaults 10 5\n\
                 w 1 1 2 3 10 1\n",
                "dense",
            ),
            (
                "#ftoa-trace v1\nconfig region 0 0 10 10\nconfig grid 2 2\n\
                 config slots 0 15 4\nconfig velocity 1\nconfig defaults 10 5\n\
                 w 0 1 2 3 10 1\nconfig velocity 2\n",
                "after the first event",
            ),
        ];
        for (text, needle) in cases {
            let err = TraceReader::read_str(text).expect_err("must fail");
            let msg = err.to_string();
            assert!(msg.contains(needle), "error `{msg}` should mention `{needle}`");
        }
    }

    const V1_HEADER: &str = "#ftoa-trace v1\nconfig region 0 0 10 10\nconfig grid 2 2\n\
                             config slots 0 15 4\nconfig velocity 1\nconfig defaults 10 5\n";

    /// Event lines must appear in arrival-time order: the writer emits them
    /// time-sorted (see `events_are_written_in_time_order`), so a timestamp
    /// running backwards means the file was corrupted or hand-edited. The
    /// error is line-numbered and names both timestamps, matching the
    /// truncated-event diagnostics.
    #[test]
    fn out_of_order_timestamps_are_rejected_with_the_line_number() {
        // Header occupies lines 1-6; the offending event is line 8.
        let text = format!("{V1_HEADER}t 0 5 1 1 5 1\nw 0 3 2 2 10 1\n");
        let err = TraceReader::read_str(&text).expect_err("must fail");
        let msg = err.to_string();
        assert!(msg.contains("trace line 8"), "got: {msg}");
        assert!(msg.contains("out of order"), "got: {msg}");
        assert!(msg.contains('5') && msg.contains('3'), "must name both timestamps: {msg}");
    }

    /// Equal timestamps are simultaneous arrivals, not disorder: they keep
    /// their line order and the trace is accepted.
    #[test]
    fn equal_timestamps_are_simultaneous_arrivals_not_disorder() {
        let text = format!("{V1_HEADER}w 0 2 1 1 10 1\nt 0 2 3 3 5 1\nw 1 2 4 4 10 1\n");
        let trace = TraceReader::read_str(&text).expect("equal timestamps are legal");
        assert_eq!(trace.stream.num_workers(), 2);
        assert_eq!(trace.stream.num_tasks(), 1);
    }

    /// A repeated event line is a duplicate id: the error carries the line
    /// number of the *second* occurrence and names the kind and id, so a
    /// corrupted append (log replayed twice) points straight at the seam.
    #[test]
    fn duplicate_event_lines_are_rejected_at_the_second_occurrence() {
        let text = format!("{V1_HEADER}w 0 1 2 3 10 1\nw 0 1 2 3 10 1\n");
        let err = TraceReader::read_str(&text).expect_err("must fail");
        let msg = err.to_string();
        assert!(msg.contains("trace line 8"), "got: {msg}");
        assert!(msg.contains("duplicate worker id 0"), "got: {msg}");
        // Same contract for tasks.
        let text = format!("{V1_HEADER}t 0 1 2 3 5 1\nt 0 1 2 3 5 1\n");
        let err = TraceReader::read_str(&text).expect_err("must fail");
        let msg = err.to_string();
        assert!(msg.contains("trace line 8"), "got: {msg}");
        assert!(msg.contains("duplicate task id 0"), "got: {msg}");
    }

    #[test]
    fn unsupported_version_points_at_the_version() {
        let err = TraceReader::read_str("#ftoa-trace v3\n").expect_err("must fail");
        let msg = err.to_string();
        assert!(msg.contains("unsupported trace format version v3"), "got: {msg}");
        assert!(msg.contains("v2"), "must name the current version: {msg}");
        assert!(msg.contains("v1"), "must name the legacy version: {msg}");
        // `v` followed by junk is not a version claim — plain magic mismatch.
        let err = TraceReader::read_str("#ftoa-trace vNext\n").expect_err("must fail");
        assert!(err.to_string().contains("expected magic"), "got: {err}");
    }

    const V2_HEADER: &str = "#ftoa-trace v2\nconfig region 0 0 10 10\nconfig grid 2 2\n\
                             config slots 0 15 4\nconfig velocity 1\nconfig defaults 10 5\n";

    #[test]
    fn v2_reads_live_capacity_and_payoff() {
        let text = format!("{V2_HEADER}w 0 1 2 3 10 3\nt 0 1.5 2.5 3.5 5 2.75\n");
        let trace = TraceReader::read_str(&text).expect("parses");
        assert_eq!(trace.version, TraceVersion::V2);
        assert_eq!(trace.stream.workers()[0].capacity, 3);
        assert_eq!(trace.stream.tasks()[0].payoff, 2.75);
    }

    #[test]
    fn v1_reads_as_unit_values() {
        let text = "#ftoa-trace v1\nconfig region 0 0 10 10\nconfig grid 2 2\n\
                    config slots 0 15 4\nconfig velocity 1\nconfig defaults 10 5\n\
                    w 0 1 2 3 10 1\nt 0 1.5 2.5 3.5 5 1\n";
        let trace = TraceReader::read_str(text).expect("parses");
        assert_eq!(trace.version, TraceVersion::V1);
        assert_eq!(trace.stream.workers()[0].capacity, 1);
        assert_eq!(trace.stream.tasks()[0].payoff, 1.0);
    }

    #[test]
    fn weighted_round_trip_is_lossless() {
        let scenario = small_scenario();
        let workers: Vec<Worker> = scenario
            .stream
            .workers()
            .iter()
            .map(|w| w.with_capacity(1 + (w.id.index() % 4) as u32))
            .collect();
        let tasks: Vec<Task> = scenario
            .stream
            .tasks()
            .iter()
            .map(|t| t.with_payoff(0.5 + t.id.index() as f64 / 3.0))
            .collect();
        let stream = EventStream::new(workers, tasks);
        let text = TraceWriter::to_string(&scenario.config, &stream);
        let trace = TraceReader::read_str(&text).expect("parses");
        assert_eq!(trace.version, TraceVersion::V2);
        assert_eq!(trace.stream, stream);
        assert_eq!(TraceWriter::to_string(&trace.config, &trace.stream), text);
    }

    #[test]
    fn v2_rejects_invalid_capacity_and_payoff_with_line_numbers() {
        let cases: &[(&str, &str)] = &[
            ("w 0 1 2 3 10 0\n", "worker capacity must be at least 1"),
            ("w 0 1 2 3 10 1.5\n", "invalid integer `1.5`"),
            ("w 0 1 2 3 10 -1\n", "invalid integer `-1`"),
            ("t 0 1 2 3 5 0\n", "task payoff must be a positive finite number"),
            ("t 0 1 2 3 5 -2.5\n", "task payoff must be a positive finite number"),
            ("t 0 1 2 3 5 NaN\n", "task payoff must be a positive finite number"),
            ("t 0 1 2 3 5 inf\n", "task payoff must be a positive finite number"),
        ];
        for (event, needle) in cases {
            let text = format!("{V2_HEADER}{event}");
            match TraceReader::read_str(&text).expect_err("must fail") {
                TraceError::Parse { line, message } => {
                    assert_eq!(line, 7, "event is on line 7 for `{event}`");
                    assert!(
                        message.contains(needle),
                        "error `{message}` should mention `{needle}`"
                    );
                }
                other => panic!("expected parse error, got {other}"),
            }
        }
    }

    #[test]
    fn errors_carry_the_offending_line_number() {
        let text = "#ftoa-trace v1\nconfig region 0 0 10 10\nconfig grid 2 2\n\
                    config slots 0 15 4\nconfig velocity 1\nconfig defaults 10 5\n\
                    w 0 1 2 3 10 1\nt 0 1 2 3\n";
        match TraceReader::read_str(text).expect_err("must fail") {
            TraceError::Parse { line, message } => {
                assert_eq!(line, 8, "truncated event is on line 8");
                assert!(message.contains("7 fields"), "got: {message}");
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    /// A byte that is not UTF-8 makes its line unreadable; the error names
    /// that line, on the magic line as on any later one.
    #[test]
    fn non_utf8_bytes_are_a_parse_error_naming_the_line() {
        let text = "#ftoa-trace v1\nconfig region 0 0 10 10\nconfig grid 2 2\n\
                    config slots 0 15 4\nconfig velocity 1\nconfig defaults 10 5\n\
                    w 0 1 2 3 10 1\nt 0 1.5 2.5 3.5 5 1\n";
        let mut bad_magic = text.as_bytes().to_vec();
        bad_magic.insert(3, 0xFF);
        let mut bad_event = text.as_bytes().to_vec();
        let event_end = text.find("10 1\n").expect("worker line") + 4;
        bad_event.insert(event_end, 0xFF);
        for (bytes, want) in [(bad_magic, 1), (bad_event, 7)] {
            match TraceReader::read(bytes.as_slice()).expect_err("must fail") {
                TraceError::Parse { line, message } => {
                    assert_eq!(line, want, "{message}");
                    assert!(message.contains("UTF-8"), "got: {message}");
                }
                other => panic!("expected parse error, got {other}"),
            }
        }
    }

    /// A header declaring more `(slot, cell)` types than the cap is
    /// rejected on the line that crosses it, before anything is sized from
    /// it; these two edits of the weighted fixture's header used to abort
    /// replay with a multi-terabyte allocation.
    #[test]
    fn oversized_headers_are_rejected_on_the_line_that_crosses_the_cap() {
        let header = |grid: &str, slots: &str| {
            format!(
                "#ftoa-trace v2\nconfig region 0 0 12 12\nconfig grid {grid}\n\
                 config slots {slots}\nconfig velocity 1\nconfig defaults 30 30\n\
                 w 0 1 2 3 10 1\n"
            )
        };
        let cases = [
            (header("4294967295 12", "0 15 12"), 3, "4294967295 x 12"),
            (header("12 12", "0 15 99999999"), 4, "99999999 slots x 12 x 12"),
            (header("18446744073709551615 2", "0 15 1"), 3, "exceeds the limit"),
        ];
        for (text, expected_line, needle) in cases {
            match TraceReader::read_str(&text).expect_err("must fail") {
                TraceError::Parse { line, message } => {
                    assert_eq!(line, expected_line, "{message}");
                    assert!(message.contains(needle), "`{message}` should mention `{needle}`");
                    assert!(message.contains("16777216"), "must name the cap: {message}");
                }
                other => panic!("expected parse error, got {other}"),
            }
        }
        // Slots first: the grid line then crosses the cap.
        let text = "#ftoa-trace v2\nconfig slots 0 15 48\nconfig grid 1000 1000\n";
        assert!(matches!(TraceReader::read_str(text), Err(TraceError::Parse { line: 3, .. })));
        // Exactly at the cap is legal.
        let text = header("4096 4096", "0 15 1");
        assert!(TraceReader::read_str(&text).is_ok());
    }

    /// Event times must lie in the slot horizon widened by its own length on
    /// each side: `[-60, 120]` for `V1_HEADER`'s `[0, 60)`. The bounds are
    /// inclusive, and the error is line-numbered and names the time and the
    /// bound.
    #[test]
    fn event_times_outside_the_widened_horizon_are_rejected() {
        for time in [-60.0, (-60.0f64).next_up(), 120.0f64.next_down(), 120.0] {
            let text = format!("{V1_HEADER}w 0 {time} 1 1 10 1\n");
            assert!(TraceReader::read_str(&text).is_ok(), "time {time} is inside the bound");
        }
        for time in [(-60.0f64).next_down(), 120.0f64.next_up(), -1e12, 1e300] {
            let text = format!("{V1_HEADER}t 0 5 1 1 5 1\nw 0 {time} 1 1 10 1\n");
            match TraceReader::read_str(&text).expect_err("must fail") {
                TraceError::Parse { line, message } => {
                    assert_eq!(line, 8, "{message}");
                    assert!(message.contains(&format!("{time}")), "names the time: {message}");
                    assert!(message.contains("[-60, 120]"), "names the bound: {message}");
                }
                other => panic!("expected parse error, got {other}"),
            }
        }
    }

    /// A non-finite slot start or slot length is rejected on the `slots`
    /// line itself.
    #[test]
    fn non_finite_slot_headers_are_rejected() {
        for slots in ["nan 15 12", "0 inf 12", "-inf 15 12", "inf 15 12", "0 NaN 12"] {
            let text = format!(
                "#ftoa-trace v2\nconfig region 0 0 12 12\nconfig grid 12 12\n\
                 config slots {slots}\nconfig velocity 1\nconfig defaults 30 30\n"
            );
            match TraceReader::read_str(&text).expect_err("must fail") {
                TraceError::Parse { line, message } => {
                    assert_eq!(line, 4, "{slots}: {message}");
                    assert!(message.contains("finite"), "{slots}: {message}");
                }
                other => panic!("expected parse error, got {other}"),
            }
        }
    }

    #[test]
    fn huge_ids_fail_cleanly_without_allocating() {
        // A corrupt id must produce a parse error, not an id-sized allocation.
        let text = "#ftoa-trace v1\nconfig region 0 0 10 10\nconfig grid 2 2\n\
                    config slots 0 15 4\nconfig velocity 1\nconfig defaults 10 5\n\
                    w 99999999999999 1 2 3 10 1\n";
        let err = TraceReader::read_str(text).expect_err("must fail");
        assert!(err.to_string().contains("not dense"), "got: {err}");
    }

    #[test]
    fn shortest_round_trip_floats_survive() {
        // A value with no short decimal representation must survive exactly.
        let v = 1.0 / 3.0;
        let printed = format!("{v}");
        assert_eq!(printed.parse::<f64>().unwrap(), v);
    }
}
