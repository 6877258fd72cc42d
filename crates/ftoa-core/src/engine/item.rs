//! The [`SpatialItem`] trait: what the candidate pools store.

use ftoa_types::{Location, Task, TimeStamp, Worker};

/// An object that can live in the engine's pools: it has a dense index, a
/// location, a deadline and a matching capacity. The
/// [`crate::engine::arena::ItemArena`] keys its slots by the index, stores
/// the coordinates in its struct-of-arrays columns and keeps a debitable
/// copy of the capacity; the candidate indexes only ever read coordinates
/// back through the arena, and expiry is owned by the engine's priority
/// queues ([`crate::engine::context::EngineContext`]).
pub trait SpatialItem: Copy {
    /// Dense 0-based identifier (`WorkerId` / `TaskId` index).
    fn item_index(&self) -> usize;
    /// Where the object is (its appearance location).
    fn item_location(&self) -> Location;
    /// When the object silently leaves the platform (inclusive).
    fn item_deadline(&self) -> TimeStamp;
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
    fn item_capacity(&self) -> u32 {
        1
    }
}
