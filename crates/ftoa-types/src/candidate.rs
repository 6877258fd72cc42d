//! Candidates returned by engine index queries.
//!
//! A query answers one of the paper's two spatial questions (the nearest
//! feasible object, or every object in a reachable disk), so a result names
//! the object and how far it is from the query point. Payoff and remaining
//! capacity are not copied in: policies read them from the item or through
//! the engine's pool view.

use crate::handle::PoolHandle;

/// One query result from a candidate index: the pool handle of the item and
/// its squared distance from the query point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Stable handle of the item in its pool.
    pub handle: PoolHandle,
    /// Squared euclidean distance from the query point. Squared because the
    /// distance kernels work in the squared domain; take [`Candidate::distance`]
    /// when the true distance is needed.
    pub dist_sq: f64,
}

impl Candidate {
    /// The euclidean distance from the query point.
    pub fn distance(&self) -> f64 {
        self.dist_sq.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_sqrt_of_dist_sq() {
        let c = Candidate { handle: PoolHandle::new(0, 1), dist_sq: 9.0 };
        assert_eq!(c.distance(), 3.0);
    }
}
