//! The engine's sanctioned wall-clock: runtime metrics only.
//!
//! Everything this workspace promises rests on byte-exact determinism, so
//! reading the wall clock is confined to this one module: `clippy.toml` bans
//! `Instant` and `SystemTime` everywhere else, and this module carries the
//! one allow. A [`Stopwatch`] may time work for the
//! *non-deterministic* metric fields (`runtime`, `preprocessing`), which the
//! deterministic renderings (`--deterministic-only` replay JSON, sweep CSVs)
//! already omit. No simulation decision may ever depend on a value produced
//! here.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the one sanctioned clock: feeds only the runtime metric fields that deterministic outputs omit"
)]

use std::time::{Duration, Instant};

/// A started wall-clock stopwatch.
///
/// The only way to read elapsed wall time inside the deterministic crates:
/// start one around the work you want to report, and store the result in a
/// metric field that deterministic outputs drop.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Self { start: Instant::now() }
    }

    /// Wall-clock time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed();
        let b = sw.elapsed();
        assert!(b >= a);
    }
}
