//! City-scale ("real data") workload generator.
//!
//! The paper evaluates on proprietary taxi-calling logs from Beijing and
//! Hangzhou (Table 3: ≈50k workers and ≈50k tasks per day, a 20 × 30 grid of
//! 0.01° × 0.01° cells, 12 time slots, `D_w = 2`, `D_r ∈ {0.5 … 1.5}`). Those
//! logs are not available, so this module substitutes a generative city
//! model with
//!
//! * a hotspot mixture for the spatial distribution (business districts,
//!   railway stations, …) with workers more dispersed than tasks,
//! * a double-peak (rush hour) temporal profile,
//! * weekday/weekend and weather effects plus day-to-day Poisson noise,
//!
//! from which both multi-week *histories* (to train the Table 5 predictors)
//! and held-out *test days* (to run the online algorithms) are drawn. The
//! online algorithms and the predictors only ever see arrival streams and
//! count matrices, so this exercises exactly the same code paths as the
//! original logs.

use crate::distributions::poisson;
use crate::scenario::Scenario;
use ftoa_types::{
    BoundingBox, EventStream, GridPartition, Location, ProblemConfig, SlotPartition, Task, TaskId,
    TimeDelta, TimeStamp, Worker, WorkerId,
};
use prediction::{DayMeta, DayRecord, HistoryStore, Predictor, Quantity, SpatioTemporalMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A spatial hotspot of demand, in fractional coordinates of the region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hotspot {
    /// Centre as fractions of the region width/height.
    pub center: (f64, f64),
    /// Gaussian spread as a fraction of the region size.
    pub spread: f64,
    /// Relative weight of this hotspot in the mixture.
    pub weight: f64,
}

/// Configuration of one city.
#[derive(Debug, Clone, PartialEq)]
pub struct CityConfig {
    /// City name (used in reports).
    pub name: &'static str,
    /// Expected number of worker appearances per day (Table 3 `|W|`).
    pub num_workers: usize,
    /// Expected number of tasks per day (Table 3 `|R|`).
    pub num_tasks: usize,
    /// Grid columns (longitude direction); the paper uses 20.
    pub grid_nx: usize,
    /// Grid rows (latitude direction); the paper uses 30.
    pub grid_ny: usize,
    /// Number of time slots per day (Table 3 uses 12).
    pub num_slots: usize,
    /// Cell side length in degrees (0.01° in the paper).
    pub cell_degrees: f64,
    /// South-west corner of the covered rectangle (longitude, latitude).
    pub origin: (f64, f64),
    /// Task deadline `D_r` in slots.
    pub dr_slots: f64,
    /// Worker waiting time `D_w` in slots.
    pub dw_slots: f64,
    /// Worker speed in km/h (≈ 40 in the paper).
    pub velocity_kmh: f64,
    /// Demand hotspots.
    pub hotspots: Vec<Hotspot>,
    /// How much wider the worker (supply) distribution is than the task
    /// distribution (1.0 = identical).
    pub worker_dispersion: f64,
    /// Base RNG seed; days are derived from it deterministically.
    pub seed: u64,
}

impl CityConfig {
    /// Preset mirroring the Beijing dataset of Table 3.
    pub fn beijing() -> Self {
        Self {
            name: "Beijing",
            num_workers: 50_637,
            num_tasks: 54_129,
            grid_nx: 20,
            grid_ny: 30,
            num_slots: 12,
            cell_degrees: 0.01,
            origin: (116.30, 39.85),
            dr_slots: 1.0,
            dw_slots: 2.0,
            velocity_kmh: 40.0,
            hotspots: vec![
                Hotspot { center: (0.55, 0.55), spread: 0.10, weight: 3.0 }, // CBD
                Hotspot { center: (0.35, 0.65), spread: 0.08, weight: 2.0 }, // Zhongguancun
                Hotspot { center: (0.70, 0.40), spread: 0.07, weight: 1.5 }, // railway station
                Hotspot { center: (0.45, 0.30), spread: 0.12, weight: 1.0 }, // south
                Hotspot { center: (0.25, 0.45), spread: 0.09, weight: 1.0 }, // west
            ],
            worker_dispersion: 1.6,
            seed: 0xBE111AA6,
        }
    }

    /// Preset mirroring the Hangzhou dataset of Table 3.
    pub fn hangzhou() -> Self {
        Self {
            name: "Hangzhou",
            num_workers: 49_324,
            num_tasks: 48_507,
            grid_nx: 20,
            grid_ny: 30,
            num_slots: 12,
            cell_degrees: 0.01,
            origin: (120.08, 30.18),
            dr_slots: 1.0,
            dw_slots: 2.0,
            velocity_kmh: 40.0,
            hotspots: vec![
                Hotspot { center: (0.50, 0.60), spread: 0.09, weight: 3.0 }, // West Lake CBD
                Hotspot { center: (0.65, 0.45), spread: 0.08, weight: 2.0 }, // Qianjiang
                Hotspot { center: (0.40, 0.35), spread: 0.10, weight: 1.2 }, // Binjiang
                Hotspot { center: (0.30, 0.70), spread: 0.08, weight: 1.0 }, // north-west
            ],
            worker_dispersion: 1.5,
            seed: 0x4A96_2019,
        }
    }

    /// A down-scaled variant (for tests and quick examples): same structure,
    /// `scale` times fewer objects and a coarser grid.
    pub fn scaled_down(mut self, scale: usize) -> Self {
        self.num_workers = (self.num_workers / scale).max(1);
        self.num_tasks = (self.num_tasks / scale).max(1);
        self
    }

    /// The problem configuration implied by this city.
    pub fn problem_config(&self) -> ProblemConfig {
        let width = self.grid_nx as f64 * self.cell_degrees;
        let height = self.grid_ny as f64 * self.cell_degrees;
        let bounds = BoundingBox::new(
            self.origin.0,
            self.origin.1,
            self.origin.0 + width,
            self.origin.1 + height,
        );
        let grid = GridPartition::new(bounds, self.grid_nx, self.grid_ny).expect("valid grid");
        let horizon = TimeDelta::minutes(1440.0);
        let slots = SlotPartition::over_horizon(horizon, self.num_slots).expect("valid slots");
        // Degrees per minute: km/h -> km/min -> degrees/min (≈111 km per degree).
        let velocity = self.velocity_kmh / 60.0 / 111.0;
        let slot_minutes = 1440.0 / self.num_slots as f64;
        ProblemConfig::new(
            grid,
            slots,
            velocity,
            TimeDelta::minutes(self.dw_slots * slot_minutes),
            TimeDelta::minutes(self.dr_slots * slot_minutes),
        )
    }
}

/// A city workload generator with pre-computed base intensities.
#[derive(Debug, Clone)]
pub struct CityWorkload {
    config: CityConfig,
    problem: ProblemConfig,
    /// Expected tasks per (slot, cell) on an average weekday.
    task_intensity: SpatioTemporalMatrix,
    /// Expected workers per (slot, cell) on an average weekday.
    worker_intensity: SpatioTemporalMatrix,
}

impl CityWorkload {
    /// Build the generator from a configuration.
    pub fn new(config: CityConfig) -> Self {
        let problem = config.problem_config();
        let task_intensity = Self::intensity(&config, &problem, 1.0, config.num_tasks as f64);
        let worker_intensity =
            Self::intensity(&config, &problem, config.worker_dispersion, config.num_workers as f64);
        Self { config, problem, task_intensity, worker_intensity }
    }

    /// The city configuration.
    pub fn config(&self) -> &CityConfig {
        &self.config
    }

    /// The problem configuration.
    pub fn problem_config(&self) -> &ProblemConfig {
        &self.problem
    }

    /// Base (average weekday) intensity for the given quantity.
    pub fn base_intensity(&self, quantity: Quantity) -> &SpatioTemporalMatrix {
        match quantity {
            Quantity::Workers => &self.worker_intensity,
            Quantity::Tasks => &self.task_intensity,
        }
    }

    /// Spatial × temporal intensity normalised to `total` objects per day.
    fn intensity(
        config: &CityConfig,
        problem: &ProblemConfig,
        dispersion: f64,
        total: f64,
    ) -> SpatioTemporalMatrix {
        let slots = config.num_slots;
        let cells = config.grid_nx * config.grid_ny;
        let width = config.grid_nx as f64 * config.cell_degrees;
        let height = config.grid_ny as f64 * config.cell_degrees;

        // Temporal profile over the day: base load + morning and evening peaks.
        let temporal: Vec<f64> = (0..slots)
            .map(|s| {
                let mid = problem.slots.slot_mid(ftoa_types::SlotId(s)).as_minutes();
                let hour = mid / 60.0;
                let peak = |center: f64, width: f64, height: f64| {
                    height * (-((hour - center) * (hour - center)) / (2.0 * width * width)).exp()
                };
                // Quiet nights, morning rush ~8:30, evening rush ~18:30.
                0.25 + peak(8.5, 1.8, 1.0) + peak(18.5, 2.2, 1.1) + peak(13.0, 3.0, 0.35)
            })
            .collect();

        // Spatial profile: hotspot mixture plus a uniform floor.
        let spatial: Vec<f64> = (0..cells)
            .map(|cell| {
                let center = problem.grid.cell_center(ftoa_types::CellId(cell));
                let fx = (center.x - config.origin.0) / width;
                let fy = (center.y - config.origin.1) / height;
                let mut v = 0.15; // uniform floor
                for h in &config.hotspots {
                    let dx = fx - h.center.0;
                    let dy = fy - h.center.1;
                    let spread = h.spread * dispersion;
                    v += h.weight * (-(dx * dx + dy * dy) / (2.0 * spread * spread)).exp();
                }
                v
            })
            .collect();

        let t_sum: f64 = temporal.iter().sum();
        let s_sum: f64 = spatial.iter().sum();
        let mut out = SpatioTemporalMatrix::zeros(slots, cells);
        for (s, &tv) in temporal.iter().enumerate() {
            for (c, &sv) in spatial.iter().enumerate() {
                out.set(s, c, total * (tv / t_sum) * (sv / s_sum));
            }
        }
        out
    }

    /// Multiplicative day factor applied to the base intensity.
    fn day_factor(meta: &DayMeta, quantity: Quantity) -> f64 {
        let weekday_factor =
            if meta.weekday >= 5 { 0.78 } else { 1.0 + 0.02 * meta.weekday as f64 };
        let weather_factor = match quantity {
            // Bad weather: more taxi-calling demand, slightly fewer drivers.
            Quantity::Tasks => 1.0 + 0.35 * meta.weather,
            Quantity::Workers => 1.0 - 0.20 * meta.weather,
        };
        weekday_factor * weather_factor
    }

    /// Draw the realised per-slot/per-cell counts of one day.
    pub fn generate_day_counts(
        &self,
        meta: &DayMeta,
        rng: &mut StdRng,
    ) -> (SpatioTemporalMatrix, SpatioTemporalMatrix) {
        let slots = self.config.num_slots;
        let cells = self.config.grid_nx * self.config.grid_ny;
        let mut workers = SpatioTemporalMatrix::zeros(slots, cells);
        let mut tasks = SpatioTemporalMatrix::zeros(slots, cells);
        let wf = Self::day_factor(meta, Quantity::Workers);
        let tf = Self::day_factor(meta, Quantity::Tasks);
        for s in 0..slots {
            for c in 0..cells {
                let lw = self.worker_intensity.get(s, c) * wf;
                let lt = self.task_intensity.get(s, c) * tf;
                workers.set(s, c, poisson(rng, lw) as f64);
                tasks.set(s, c, poisson(rng, lt) as f64);
            }
        }
        (workers, tasks)
    }

    /// Deterministic metadata of day number `day` (weekday cycle + weather
    /// drawn from the day-seeded RNG).
    pub fn day_meta(&self, day: usize) -> DayMeta {
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ (day as u64).wrapping_mul(0x9E37));
        let weather =
            if rng.gen::<f64>() < 0.25 { rng.gen::<f64>() } else { rng.gen::<f64>() * 0.2 };
        DayMeta::new(day % 7, weather)
    }

    /// Generate a multi-day history (days `0 .. num_days`).
    pub fn generate_history(&self, num_days: usize) -> HistoryStore {
        let mut store = HistoryStore::new();
        for day in 0..num_days {
            let meta = self.day_meta(day);
            let mut rng =
                StdRng::seed_from_u64(self.config.seed.wrapping_add(0xD41 * (day as u64 + 1)));
            let (workers, tasks) = self.generate_day_counts(&meta, &mut rng);
            store.push(DayRecord { meta, workers, tasks });
        }
        store
    }

    /// Materialise an arrival stream from realised per-slot/per-cell counts:
    /// each object gets a uniform time within its slot and a uniform location
    /// within its cell.
    pub fn materialize_stream(
        &self,
        workers: &SpatioTemporalMatrix,
        tasks: &SpatioTemporalMatrix,
        rng: &mut StdRng,
    ) -> EventStream {
        let mut worker_objs = Vec::new();
        let mut task_objs = Vec::new();
        let grid = &self.problem.grid;
        let slots = &self.problem.slots;
        let place = |rng: &mut StdRng, slot: usize, cell: usize| -> (Location, TimeStamp) {
            let b = grid.cell_bounds(ftoa_types::CellId(cell));
            let loc = Location::new(
                b.min_x + rng.gen::<f64>() * (b.max_x - b.min_x),
                b.min_y + rng.gen::<f64>() * (b.max_y - b.min_y),
            );
            let start = slots.slot_start(ftoa_types::SlotId(slot)).as_minutes();
            let end = slots.slot_end(ftoa_types::SlotId(slot)).as_minutes();
            let t = start + rng.gen::<f64>() * (end - start - 1e-9);
            (loc, TimeStamp::minutes(t))
        };
        for s in 0..workers.num_slots() {
            for c in 0..workers.num_cells() {
                for _ in 0..workers.get(s, c).round().max(0.0) as usize {
                    let (loc, t) = place(rng, s, c);
                    worker_objs.push(Worker::new(
                        WorkerId(worker_objs.len()),
                        loc,
                        t,
                        self.problem.default_worker_wait,
                    ));
                }
                for _ in 0..tasks.get(s, c).round().max(0.0) as usize {
                    let (loc, t) = place(rng, s, c);
                    task_objs.push(Task::new(
                        TaskId(task_objs.len()),
                        loc,
                        t,
                        self.problem.default_task_patience,
                    ));
                }
            }
        }
        EventStream::new(worker_objs, task_objs)
    }

    /// Generate a complete scenario: train the given predictor on
    /// `history_days` of history, draw a held-out test day, materialise its
    /// arrival stream and attach the predictor's forecast as the guide input.
    pub fn generate_scenario(
        &self,
        predictor: &dyn Predictor,
        history_days: usize,
    ) -> (Scenario, HistoryStore) {
        let history = self.generate_history(history_days);
        let test_day = history_days;
        let meta = self.day_meta(test_day);
        let mut rng =
            StdRng::seed_from_u64(self.config.seed.wrapping_add(0xABCD + test_day as u64));
        let (actual_workers, actual_tasks) = self.generate_day_counts(&meta, &mut rng);
        let stream = self.materialize_stream(&actual_workers, &actual_tasks, &mut rng);
        let predicted_workers = predictor.predict(&history, Quantity::Workers, &meta);
        let predicted_tasks = predictor.predict(&history, Quantity::Tasks, &meta);
        (
            Scenario { config: self.problem.clone(), stream, predicted_workers, predicted_tasks },
            history,
        )
    }

    /// The ground-truth counts of the test day used by [`Self::generate_scenario`]
    /// (same seeds), for evaluating prediction error (Table 5).
    pub fn test_day_truth(
        &self,
        history_days: usize,
    ) -> (DayMeta, SpatioTemporalMatrix, SpatioTemporalMatrix) {
        let test_day = history_days;
        let meta = self.day_meta(test_day);
        let mut rng =
            StdRng::seed_from_u64(self.config.seed.wrapping_add(0xABCD + test_day as u64));
        let (w, t) = self.generate_day_counts(&meta, &mut rng);
        (meta, w, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prediction::HistoricalAverage;

    fn small_city() -> CityWorkload {
        let mut cfg = CityConfig::beijing().scaled_down(50);
        cfg.grid_nx = 8;
        cfg.grid_ny = 12;
        CityWorkload::new(cfg)
    }

    #[test]
    fn presets_match_table3_sizes() {
        let b = CityConfig::beijing();
        assert_eq!(b.num_workers, 50_637);
        assert_eq!(b.num_tasks, 54_129);
        assert_eq!(b.grid_nx * b.grid_ny, 600);
        assert_eq!(b.num_slots, 12);
        let h = CityConfig::hangzhou();
        assert_eq!(h.num_workers, 49_324);
        assert_eq!(h.num_tasks, 48_507);
    }

    #[test]
    fn intensity_sums_to_daily_totals() {
        let city = small_city();
        let t_total = city.base_intensity(Quantity::Tasks).total();
        let w_total = city.base_intensity(Quantity::Workers).total();
        assert!((t_total - city.config().num_tasks as f64).abs() < 1.0);
        assert!((w_total - city.config().num_workers as f64).abs() < 1.0);
    }

    #[test]
    fn rush_hours_have_more_demand_than_night() {
        let city = small_city();
        let tasks = city.base_intensity(Quantity::Tasks);
        // Slot 0 covers 0:00-2:00 (night); slot 4 covers 8:00-10:00 (morning rush).
        assert!(tasks.slot_total(4) > 2.0 * tasks.slot_total(0));
        // Evening rush (slot 9, 18:00-20:00) is also busy.
        assert!(tasks.slot_total(9) > 2.0 * tasks.slot_total(0));
    }

    #[test]
    fn history_has_weekly_and_weather_structure() {
        let city = small_city();
        let h = city.generate_history(14);
        assert_eq!(h.len(), 14);
        assert_eq!(h.num_cells(), 96);
        // Weekends (days 5, 6, 12, 13) should have fewer tasks than weekdays.
        let weekday_mean: f64 =
            [0usize, 1, 2, 3, 4].iter().map(|&d| h.days()[d].tasks.total()).sum::<f64>() / 5.0;
        let weekend_mean: f64 =
            [5usize, 6].iter().map(|&d| h.days()[d].tasks.total()).sum::<f64>() / 2.0;
        assert!(weekend_mean < weekday_mean);
    }

    #[test]
    fn materialized_stream_matches_counts_and_bounds() {
        let city = small_city();
        let meta = city.day_meta(3);
        let mut rng = StdRng::seed_from_u64(1);
        let (w, t) = city.generate_day_counts(&meta, &mut rng);
        let stream = city.materialize_stream(&w, &t, &mut rng);
        assert_eq!(stream.num_workers(), w.total() as usize);
        assert_eq!(stream.num_tasks(), t.total() as usize);
        let bounds = city.problem_config().grid.bounds();
        for worker in stream.workers() {
            assert!(bounds.contains(&worker.location));
            assert!(worker.start.as_minutes() < 1440.0);
        }
    }

    #[test]
    fn scenario_generation_with_ha_predictor() {
        let city = small_city();
        let (scenario, history) = city.generate_scenario(&HistoricalAverage, 10);
        assert_eq!(history.len(), 10);
        assert!(!scenario.is_empty());
        assert_eq!(scenario.predicted_tasks.num_cells(), 96);
        // Prediction totals should be in the same ballpark as the actual day.
        let (_, actual_tasks) = scenario.actual_counts();
        let ratio = scenario.predicted_tasks.total() / actual_tasks.total().max(1.0);
        assert!(ratio > 0.5 && ratio < 2.0, "ratio {ratio}");
    }

    #[test]
    fn test_day_truth_is_consistent_with_scenario() {
        let city = small_city();
        let (scenario, _) = city.generate_scenario(&HistoricalAverage, 5);
        let (_, w_truth, t_truth) = city.test_day_truth(5);
        let (w_actual, t_actual) = scenario.actual_counts();
        assert_eq!(w_truth.total(), w_actual.total());
        assert_eq!(t_truth.total(), t_actual.total());
    }
}
