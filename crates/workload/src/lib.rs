//! Workload substrate: synthetic and city-scale instance generators.
//!
//! The paper evaluates on (i) synthetic datasets whose sizes, grids, slots,
//! deadlines and spatial/temporal normal distributions are swept per Table 4,
//! and (ii) proprietary taxi-calling traces from Beijing and Hangzhou
//! (Table 3). The traces are not publicly available, so this crate provides a
//! faithful *generator substitution* (see [`city`]): a hotspot-based city
//! trace generator with rush-hour temporal structure, weekday/weekend and
//! weather effects, and day-to-day Poisson noise, parameterised to the
//! Table 3 scales. The generator also produces multi-week histories so the
//! prediction pipeline (Table 5) trains on genuinely out-of-sample data.
//!
//! Modules:
//!
//! * [`distributions`] — self-contained samplers (normal via Box–Muller,
//!   truncated normal, 2-D diagonal Gaussian, Poisson) and the normal CDF used
//!   to compute exact expected per-cell/per-slot counts.
//! * [`synthetic`] — Table 4 generator with the paper's defaults.
//! * [`city`] — Beijing/Hangzhou-like trace and history generator.
//! * [`presets`] — trace-shaped scenario presets (hotspot-skewed demand,
//!   rush-hour bursts, supply/demand imbalance) used by the trace tooling
//!   and the CI replay fixture.
//! * [`trace`] — the versioned text trace format: [`trace::TraceWriter`]
//!   captures any event stream to disk and the streaming
//!   [`trace::TraceReader`] replays it bit-identically.
//! * [`scenario`] — the bundled output consumed by `ftoa-core` and the
//!   experiment harness: a problem configuration, an online event stream and
//!   the predicted count matrices feeding the offline guide.

#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod city;
pub mod distributions;
pub mod presets;
pub mod scenario;
pub mod synthetic;
pub mod trace;

pub use city::{CityConfig, CityWorkload};
pub use scenario::Scenario;
pub use synthetic::SyntheticConfig;
pub use trace::{Trace, TraceError, TraceReader, TraceVersion, TraceWriter};
