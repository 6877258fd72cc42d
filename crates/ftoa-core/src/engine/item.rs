//! The [`SpatialItem`] trait: what the candidate pools store.

use ftoa_types::{Location, Task, TimeStamp, Worker};

/// An object that can live in the engine's pools: it has a dense index, a
/// location, and a deadline. The [`crate::engine::arena::ItemArena`] records all
/// three in its struct-of-arrays columns at admit time; the candidate
/// indexes only ever read them back through the arena, and expiry is owned
/// by the engine's priority queues ([`crate::engine::context::EngineContext`]).
pub trait SpatialItem: Copy {
    /// Dense 0-based identifier (`WorkerId` / `TaskId` index).
    fn item_index(&self) -> usize;
    /// Where the object is (its appearance location).
    fn item_location(&self) -> Location;
    /// When the object silently leaves the platform (inclusive).
    fn item_deadline(&self) -> TimeStamp;
    /// Utility accrued by matching this object (a task's payoff; `1.0` for
    /// workers, whose side of the objective carries no weight).
    fn item_payoff(&self) -> f64;
    /// How many times this object may be matched (a worker's capacity;
    /// `1` for tasks, which are served at most once).
    fn item_capacity(&self) -> u32;
}

impl SpatialItem for Worker {
    fn item_index(&self) -> usize {
        self.id.index()
    }
    fn item_location(&self) -> Location {
        self.location
    }
    fn item_deadline(&self) -> TimeStamp {
        self.deadline()
    }
    fn item_payoff(&self) -> f64 {
        1.0
    }
    fn item_capacity(&self) -> u32 {
        self.capacity
    }
}

impl SpatialItem for Task {
    fn item_index(&self) -> usize {
        self.id.index()
    }
    fn item_location(&self) -> Location {
        self.location
    }
    fn item_deadline(&self) -> TimeStamp {
        self.deadline()
    }
    fn item_payoff(&self) -> f64 {
        self.payoff
    }
    fn item_capacity(&self) -> u32 {
        1
    }
}
