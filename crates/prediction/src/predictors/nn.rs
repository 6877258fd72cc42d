//! Neural Network (NN): a small multilayer perceptron trained with
//! mini-batch SGD on the recent-period features plus exogenous covariates
//! (weather, position), as in the paper's NN baseline.

#![allow(clippy::needless_range_loop, reason = "index loops mirror the math notation")]

use crate::features::FeatureExtractor;
use crate::history::{DayMeta, HistoryStore, Quantity};
use crate::linalg::DenseMatrix;
use crate::matrix::SpatioTemporalMatrix;
use crate::predictors::Predictor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// MLP predictor: one hidden ReLU layer, linear output, squared loss.
#[derive(Debug, Clone, PartialEq)]
pub struct NeuralNetwork {
    /// Hidden layer width.
    pub hidden: usize,
    /// Number of training epochs.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Number of recent corresponding periods used as features.
    pub k_recent: usize,
    /// Maximum number of training samples.
    pub max_samples: usize,
    /// RNG seed for weight initialisation and shuffling (deterministic).
    pub seed: u64,
}

impl Default for NeuralNetwork {
    fn default() -> Self {
        Self {
            hidden: 16,
            epochs: 30,
            learning_rate: 0.01,
            batch_size: 32,
            k_recent: 15,
            max_samples: 20_000,
            seed: 0xF70A,
        }
    }
}

/// A trained MLP (exposed for tests).
#[derive(Debug, Clone)]
pub struct Mlp {
    w1: Vec<Vec<f64>>, // hidden x input
    b1: Vec<f64>,
    w2: Vec<f64>, // hidden
    b2: f64,
    /// Per-feature standardisation: (mean, std).
    norm: Vec<(f64, f64)>,
    /// Target standardisation.
    target_norm: (f64, f64),
}

impl Mlp {
    /// Train an MLP on the given samples.
    pub fn train(
        x: &DenseMatrix,
        y: &[f64],
        hidden: usize,
        epochs: usize,
        learning_rate: f64,
        batch_size: usize,
        seed: u64,
    ) -> Self {
        let n = x.rows();
        let d = x.cols();
        let mut rng = StdRng::seed_from_u64(seed);
        // Feature standardisation.
        let mut norm = Vec::with_capacity(d);
        for c in 0..d {
            let mean = (0..n).map(|r| x.get(r, c)).sum::<f64>() / n.max(1) as f64;
            let var = (0..n).map(|r| (x.get(r, c) - mean).powi(2)).sum::<f64>() / n.max(1) as f64;
            norm.push((mean, var.sqrt().max(1e-9)));
        }
        let t_mean = y.iter().sum::<f64>() / n.max(1) as f64;
        let t_var = y.iter().map(|v| (v - t_mean).powi(2)).sum::<f64>() / n.max(1) as f64;
        let target_norm = (t_mean, t_var.sqrt().max(1e-9));

        let scale = (2.0 / d.max(1) as f64).sqrt();
        let mut w1 = vec![vec![0.0; d]; hidden];
        for row in &mut w1 {
            for w in row.iter_mut() {
                *w = (rng.gen::<f64>() - 0.5) * 2.0 * scale;
            }
        }
        let b1 = vec![0.0; hidden];
        let mut w2 = vec![0.0; hidden];
        for w in &mut w2 {
            *w = (rng.gen::<f64>() - 0.5) * 2.0 * (2.0 / hidden.max(1) as f64).sqrt();
        }
        let mut net = Self { w1, b1, w2, b2: 0.0, norm, target_norm };
        if n == 0 {
            return net;
        }

        let mut indices: Vec<usize> = (0..n).collect();
        let standardized: Vec<Vec<f64>> = (0..n)
            .map(|r| (0..d).map(|c| (x.get(r, c) - net.norm[c].0) / net.norm[c].1).collect())
            .collect();
        let targets_std: Vec<f64> = y.iter().map(|v| (v - target_norm.0) / target_norm.1).collect();

        for _epoch in 0..epochs {
            indices.shuffle(&mut rng);
            for chunk in indices.chunks(batch_size.max(1)) {
                // Accumulate gradients over the mini-batch.
                let mut gw1 = vec![vec![0.0; d]; hidden];
                let mut gb1 = vec![0.0; hidden];
                let mut gw2 = vec![0.0; hidden];
                let mut gb2 = 0.0;
                for &i in chunk {
                    let f = &standardized[i];
                    // Forward pass.
                    let mut h = vec![0.0; hidden];
                    for j in 0..hidden {
                        let mut z = net.b1[j];
                        for (k, fv) in f.iter().enumerate() {
                            z += net.w1[j][k] * fv;
                        }
                        h[j] = z.max(0.0);
                    }
                    let pred =
                        net.b2 + h.iter().zip(net.w2.iter()).map(|(a, b)| a * b).sum::<f64>();
                    let err = pred - targets_std[i];
                    // Backward pass.
                    gb2 += err;
                    for j in 0..hidden {
                        gw2[j] += err * h[j];
                        if h[j] > 0.0 {
                            let dh = err * net.w2[j];
                            gb1[j] += dh;
                            for (k, fv) in f.iter().enumerate() {
                                gw1[j][k] += dh * fv;
                            }
                        }
                    }
                }
                let step = learning_rate / chunk.len() as f64;
                net.b2 -= step * gb2;
                for j in 0..hidden {
                    net.w2[j] -= step * gw2[j];
                    net.b1[j] -= step * gb1[j];
                    for k in 0..d {
                        net.w1[j][k] -= step * gw1[j][k];
                    }
                }
            }
        }
        net
    }

    /// Predict a single (unstandardised) feature vector.
    pub fn predict_row(&self, features: &[f64]) -> f64 {
        let f: Vec<f64> = features
            .iter()
            .enumerate()
            .map(|(c, v)| (v - self.norm[c].0) / self.norm[c].1)
            .collect();
        let mut out = self.b2;
        for j in 0..self.w2.len() {
            let mut z = self.b1[j];
            for (k, fv) in f.iter().enumerate() {
                z += self.w1[j][k] * fv;
            }
            out += self.w2[j] * z.max(0.0);
        }
        out * self.target_norm.1 + self.target_norm.0
    }
}

impl Predictor for NeuralNetwork {
    fn name(&self) -> &'static str {
        "NN"
    }

    fn predict(
        &self,
        history: &HistoryStore,
        quantity: Quantity,
        target: &DayMeta,
    ) -> SpatioTemporalMatrix {
        let slots = history.num_slots();
        let cells = history.num_cells();
        let mut out = SpatioTemporalMatrix::zeros(slots, cells);
        if history.is_empty() {
            return out;
        }
        let k = self.k_recent.min(history.len().saturating_sub(1)).max(1);
        let fx = FeatureExtractor::with_exogenous(k);
        let (x, y) = fx.training_set(history, quantity, k, self.max_samples);
        let mlp = Mlp::train(
            &x,
            &y,
            self.hidden,
            self.epochs,
            self.learning_rate,
            self.batch_size,
            self.seed,
        );
        for s in 0..slots {
            for c in 0..cells {
                let f = fx.features(history.days(), quantity, target, s, c);
                out.set(s, c, mlp.predict_row(&f).max(0.0));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictors::test_util;

    #[test]
    fn learns_a_linear_function() {
        // y = 3*x0 - 2*x1 + 1 over a grid of inputs.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..300 {
            let a = (i % 10) as f64 / 10.0;
            let b = (i % 7) as f64 / 7.0;
            rows.push(vec![a, b]);
            y.push(3.0 * a - 2.0 * b + 1.0);
        }
        let x = DenseMatrix::from_rows(rows.clone());
        let mlp = Mlp::train(&x, &y, 8, 200, 0.05, 16, 42);
        let mut sse = 0.0;
        for (r, &t) in rows.iter().zip(y.iter()) {
            let p = mlp.predict_row(r);
            sse += (p - t) * (p - t);
        }
        let rmse = (sse / y.len() as f64).sqrt();
        assert!(rmse < 0.2, "rmse was {rmse}");
    }

    #[test]
    fn training_is_deterministic_given_the_seed() {
        let x = DenseMatrix::from_rows((0..50).map(|i| vec![(i % 5) as f64]).collect());
        let y: Vec<f64> = (0..50).map(|i| ((i % 5) * 2) as f64).collect();
        let a = Mlp::train(&x, &y, 4, 20, 0.05, 8, 7);
        let b = Mlp::train(&x, &y, 4, 20, 0.05, 8, 7);
        assert_eq!(a.predict_row(&[3.0]), b.predict_row(&[3.0]));
    }

    #[test]
    fn empty_training_set_is_handled() {
        let x = DenseMatrix::zeros(0, 2);
        let mlp = Mlp::train(&x, &[], 4, 5, 0.1, 8, 1);
        assert!(mlp.predict_row(&[0.0, 0.0]).is_finite());
    }

    #[test]
    fn reasonable_accuracy_on_synthetic_fixture() {
        let nn = NeuralNetwork { epochs: 40, max_samples: 4000, ..NeuralNetwork::default() };
        test_util::assert_reasonable_accuracy(&nn, 0.45);
    }
}
