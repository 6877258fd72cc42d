//! The slot × cell count matrix `a_ij` / `b_ij`.

use ftoa_types::{CellId, GridPartition, Location, SlotId, SlotPartition, TimeStamp, TypeKey};

/// A dense `slots × cells` matrix of (possibly fractional) object counts.
///
/// Real counts are integers; predictions are kept as `f64` and rounded only
/// when instantiated as guide nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatioTemporalMatrix {
    slots: usize,
    cells: usize,
    data: Vec<f64>,
}

impl SpatioTemporalMatrix {
    /// Create a zero matrix with the given dimensions.
    pub fn zeros(slots: usize, cells: usize) -> Self {
        Self { slots, cells, data: vec![0.0; slots * cells] }
    }

    /// Create a matrix from a dense row-major (slot-major) vector.
    ///
    /// # Panics
    /// Panics if `data.len() != slots * cells`.
    pub fn from_vec(slots: usize, cells: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), slots * cells, "dimension mismatch");
        Self { slots, cells, data }
    }

    /// Count a sequence of `(time, location)` arrivals into per-slot/per-cell
    /// bins: the *realised* counterpart of a predicted count matrix.
    ///
    /// This is the one canonical derivation of realised counts: scenario
    /// ground-truth counts (`workload::Scenario::actual_counts`) delegate
    /// here, and a replayed trace's predictions are those counts.
    pub fn from_arrivals<I>(slots: &SlotPartition, grid: &GridPartition, arrivals: I) -> Self
    where
        I: IntoIterator<Item = (TimeStamp, Location)>,
    {
        let mut out = Self::zeros(slots.num_slots(), grid.num_cells());
        for (time, location) in arrivals {
            out.increment_key(TypeKey::new(slots.slot_of(time), grid.cell_of(&location)));
        }
        out
    }

    /// Number of time slots (rows).
    pub fn num_slots(&self) -> usize {
        self.slots
    }

    /// Number of grid cells (columns).
    pub fn num_cells(&self) -> usize {
        self.cells
    }

    fn idx(&self, slot: usize, cell: usize) -> usize {
        debug_assert!(slot < self.slots && cell < self.cells, "index out of range");
        slot * self.cells + cell
    }

    /// Value at `(slot, cell)`.
    pub fn get(&self, slot: usize, cell: usize) -> f64 {
        self.data[self.idx(slot, cell)]
    }

    /// Set the value at `(slot, cell)`.
    pub fn set(&mut self, slot: usize, cell: usize, value: f64) {
        let i = self.idx(slot, cell);
        self.data[i] = value;
    }

    /// Add `delta` to the value at `(slot, cell)`.
    pub fn add(&mut self, slot: usize, cell: usize, delta: f64) {
        let i = self.idx(slot, cell);
        self.data[i] += delta;
    }

    /// Value for a [`TypeKey`].
    pub fn get_key(&self, key: TypeKey) -> f64 {
        self.get(key.slot.index(), key.cell.index())
    }

    /// Increment the count of a [`TypeKey`] by one (used when counting real
    /// arrivals).
    pub fn increment_key(&mut self, key: TypeKey) {
        self.add(key.slot.index(), key.cell.index(), 1.0);
    }

    /// Sum of all entries (the paper's `m = Σ a_ij` or `n = Σ b_ij`).
    pub fn total(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Sum over cells for a single slot.
    pub fn slot_total(&self, slot: usize) -> f64 {
        (0..self.cells).map(|c| self.get(slot, c)).sum()
    }

    /// Sum over slots for a single cell.
    pub fn cell_total(&self, cell: usize) -> f64 {
        (0..self.slots).map(|s| self.get(s, cell)).sum()
    }

    /// Raw data in slot-major order.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The values of one slot (a row).
    pub fn slot_row(&self, slot: usize) -> &[f64] {
        &self.data[slot * self.cells..(slot + 1) * self.cells]
    }

    /// Iterate over `(TypeKey, value)` pairs.
    pub fn iter_keys(&self) -> impl Iterator<Item = (TypeKey, f64)> + '_ {
        (0..self.slots).flat_map(move |s| {
            (0..self.cells).map(move |c| (TypeKey::new(SlotId(s), CellId(c)), self.get(s, c)))
        })
    }

    /// Round every entry to the nearest non-negative integer. This is how a
    /// fractional prediction is turned into guide node counts.
    pub fn rounded_counts(&self) -> Vec<usize> {
        self.data.iter().map(|&v| v.max(0.0).round() as usize).collect()
    }

    /// Largest-remainder rounding into non-negative integer counts whose sum
    /// is the rounded total: every entry is floored, then the entries with
    /// the largest fractional parts (ties by index) get one more. Negative
    /// entries count as zero. This turns a predicted matrix into guide node
    /// counts and expected counts into a synthetic prediction.
    pub fn round_preserving_total(&self) -> Vec<usize> {
        let target = self.total().round().max(0.0) as usize;
        let mut counts: Vec<usize> =
            self.data.iter().map(|&v| v.max(0.0).floor() as usize).collect();
        let floor_total: usize = counts.iter().sum();
        if target > floor_total {
            let mut remainders: Vec<(usize, f64)> = self
                .data
                .iter()
                .enumerate()
                .map(|(i, &v)| (i, v.max(0.0) - v.max(0.0).floor()))
                .collect();
            remainders.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            for &(i, _) in remainders.iter().take(target - floor_total) {
                counts[i] += 1;
            }
        }
        counts
    }

    /// Elementwise map.
    pub fn map<F: FnMut(f64) -> f64>(&self, mut f: F) -> Self {
        Self {
            slots: self.slots,
            cells: self.cells,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Elementwise addition of another matrix with the same shape.
    pub fn add_matrix(&mut self, other: &SpatioTemporalMatrix) {
        assert_eq!(self.slots, other.slots, "slot dimension mismatch");
        assert_eq!(self.cells, other.cells, "cell dimension mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Multiply every entry by a scalar.
    pub fn scale(&mut self, factor: f64) {
        for v in &mut self.data {
            *v *= factor;
        }
    }

    /// Clamp every entry to be non-negative.
    pub fn clamp_non_negative(&mut self) {
        for v in &mut self.data {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
    }

    /// Mean of all entries.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.total() / self.data.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_get_set() {
        let mut m = SpatioTemporalMatrix::zeros(3, 4);
        assert_eq!(m.num_slots(), 3);
        assert_eq!(m.num_cells(), 4);
        assert_eq!(m.total(), 0.0);
        m.set(1, 2, 5.0);
        m.add(1, 2, 1.5);
        assert_eq!(m.get(1, 2), 6.5);
        assert_eq!(m.slot_total(1), 6.5);
        assert_eq!(m.cell_total(2), 6.5);
        assert_eq!(m.mean(), 6.5 / 12.0);
    }

    #[test]
    fn key_access_and_iteration() {
        let mut m = SpatioTemporalMatrix::zeros(2, 2);
        let key = TypeKey::new(SlotId(1), CellId(0));
        m.increment_key(key);
        m.increment_key(key);
        assert_eq!(m.get_key(key), 2.0);
        let nonzero: Vec<_> = m.iter_keys().filter(|&(_, v)| v > 0.0).collect();
        assert_eq!(nonzero, vec![(key, 2.0)]);
    }

    #[test]
    fn rounding_clamps_negatives() {
        let m = SpatioTemporalMatrix::from_vec(1, 4, vec![-0.4, 0.4, 0.6, 2.5]);
        assert_eq!(m.rounded_counts(), vec![0, 0, 1, 3]);
    }

    #[test]
    fn largest_remainder_rounding_preserves_totals() {
        let m = SpatioTemporalMatrix::from_vec(1, 4, vec![0.3, 0.3, 0.3, 0.1]);
        let counts = m.round_preserving_total();
        assert_eq!(counts.iter().sum::<usize>(), 1);
        let m2 = SpatioTemporalMatrix::from_vec(1, 3, vec![1.5, 1.5, 1.0]);
        assert_eq!(m2.round_preserving_total().iter().sum::<usize>(), 4);
        let m3 = SpatioTemporalMatrix::from_vec(1, 2, vec![-1.0, 2.0]);
        assert_eq!(m3.round_preserving_total(), vec![0, 2]);
    }

    #[test]
    fn elementwise_operations() {
        let mut a = SpatioTemporalMatrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = SpatioTemporalMatrix::from_vec(1, 3, vec![0.5, 0.5, 0.5]);
        a.add_matrix(&b);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[3.0, 5.0, 7.0]);
        let mapped = a.map(|v| v - 4.0);
        assert_eq!(mapped.as_slice(), &[-1.0, 1.0, 3.0]);
        let mut c = mapped.clone();
        c.clamp_non_negative();
        assert_eq!(c.as_slice(), &[0.0, 1.0, 3.0]);
        assert_eq!(a.slot_row(0), &[3.0, 5.0, 7.0]);
    }

    #[test]
    fn from_arrivals_counts_into_the_right_bins() {
        use ftoa_types::TimeDelta;
        let slots = SlotPartition::over_horizon(TimeDelta::minutes(60.0), 4).unwrap();
        let grid = GridPartition::square(10.0, 2).unwrap();
        let m = SpatioTemporalMatrix::from_arrivals(
            &slots,
            &grid,
            [
                (TimeStamp::minutes(1.0), Location::new(1.0, 1.0)),
                (TimeStamp::minutes(2.0), Location::new(1.0, 1.0)),
                (TimeStamp::minutes(50.0), Location::new(9.0, 9.0)),
            ],
        );
        assert_eq!(m.total(), 3.0);
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(3, 3), 1.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn from_vec_checks_dimensions() {
        SpatioTemporalMatrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    #[should_panic(expected = "slot dimension mismatch")]
    fn add_matrix_checks_shape() {
        let mut a = SpatioTemporalMatrix::zeros(1, 2);
        let b = SpatioTemporalMatrix::zeros(2, 2);
        a.add_matrix(&b);
    }
}
