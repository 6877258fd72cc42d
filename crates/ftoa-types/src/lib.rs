//! Core domain types for the FTOA problem.
//!
//! This crate defines the vocabulary shared by every other crate of the
//! workspace: locations and travel times in the 2-D plane, timestamps and
//! durations, workers and tasks (Definitions 1–3 of the paper), the grid /
//! time-slot partitions used by the offline prediction step (Section 3.1.1),
//! arrival event streams, and assignments together with the feasibility
//! constraints of Definition 4.
//!
//! The types are intentionally small, `Copy` where possible, and free of any
//! algorithmic logic so that the algorithm crates (`flow`, `ftoa-core`, …)
//! can depend on them without cycles.

#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod assignment;
pub mod candidate;
pub mod config;
pub mod error;
pub mod event;
pub mod grid;
pub mod handle;
pub mod ids;
pub mod location;
pub mod slot;
pub mod task;
pub mod time;
pub mod worker;

pub use assignment::{Assignment, AssignmentSet};
pub use candidate::Candidate;
pub use config::ProblemConfig;
pub use error::TypeError;
pub use event::{Event, EventKind, EventStream};
pub use grid::{BoundingBox, CellId, GridPartition};
pub use handle::PoolHandle;
pub use ids::{TaskId, WorkerId};
pub use location::Location;
pub use slot::{SlotId, SlotPartition};
pub use task::Task;
pub use time::{TimeDelta, TimeStamp};
pub use worker::Worker;

/// A `(slot, cell)` pair: the "type" of a predicted or real object in the
/// two-step framework (Section 3.1.1 of the paper).
///
/// Two objects of the same type are interchangeable from the point of view of
/// the offline guide: POLAR / POLAR-OP map an arriving real object onto a
/// guide node of the same `TypeKey`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeKey {
    /// Index of the time slot the object falls in.
    pub slot: SlotId,
    /// Index of the grid cell the object falls in.
    pub cell: CellId,
}

impl TypeKey {
    /// Create a new type key.
    pub fn new(slot: SlotId, cell: CellId) -> Self {
        Self { slot, cell }
    }

    /// Flatten the key to a dense index given the number of grid cells.
    ///
    /// The layout is row-major over slots: `slot * num_cells + cell`.
    pub fn dense_index(&self, num_cells: usize) -> usize {
        self.slot.0 * num_cells + self.cell.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_key_dense_index_is_row_major() {
        let k = TypeKey::new(SlotId(2), CellId(3));
        assert_eq!(k.dense_index(10), 23);
        let k0 = TypeKey::new(SlotId(0), CellId(0));
        assert_eq!(k0.dense_index(10), 0);
    }

    #[test]
    fn type_key_ordering_is_slot_major() {
        let a = TypeKey::new(SlotId(0), CellId(9));
        let b = TypeKey::new(SlotId(1), CellId(0));
        assert!(a < b);
    }
}
