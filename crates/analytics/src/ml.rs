//! The MLlib substitute: GLM, logistic regression, k-means.
//!
//! Every algorithm is written map-reduce style over [`FeatureSet`]
//! partitions — per-partition partials combined at the driver — which is
//! both how Spark executes them and what lets the same code run once per
//! shard and merge across an MPP cluster (the "prepackaged Stored
//! Procedures ... like GLM" of §II.D).

use crate::dataset::FeatureSet;
use dash_common::{DashError, Result};

/// A fitted linear model: `y ≈ intercept + w · x`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    /// Feature weights.
    pub weights: Vec<f64>,
    /// Intercept term.
    pub intercept: f64,
    /// Training iterations executed.
    pub iterations: usize,
}

impl LinearModel {
    /// Predict one observation.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.intercept + dot(&self.weights, x)
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Fit a Gaussian GLM (linear regression) by full-batch gradient descent.
///
/// Per iteration, each partition computes its gradient contribution
/// independently (the map); the driver sums them (the reduce) and steps.
pub fn linear_regression(
    data: &FeatureSet,
    iterations: usize,
    learning_rate: f64,
) -> Result<LinearModel> {
    let n = data.len();
    if n == 0 {
        return Err(DashError::exec("cannot fit a GLM on zero rows"));
    }
    let d = data.dim;
    let mut w = vec![0.0; d];
    let mut b = 0.0;
    // Feature scaling: normalize by per-dimension max |x| for stable steps.
    let scale = feature_scale(data);
    let mut iters = 0;
    for _ in 0..iterations {
        iters += 1;
        // Map: per-partition gradient partials.
        let mut grad_w = vec![0.0; d];
        let mut grad_b = 0.0;
        for (xs, ys) in &data.partitions {
            let (pw, pb) = partition_gradient(xs, ys, &w, b, &scale);
            for (g, p) in grad_w.iter_mut().zip(pw) {
                *g += p;
            }
            grad_b += pb;
        }
        // Reduce + step.
        let lr = learning_rate / n as f64;
        for (wi, g) in w.iter_mut().zip(&grad_w) {
            *wi -= lr * g;
        }
        b -= lr * grad_b;
    }
    // Un-scale the weights back to the raw feature space.
    let weights = w
        .iter()
        .zip(&scale)
        .map(|(wi, s)| if *s > 0.0 { wi / s } else { 0.0 })
        .collect();
    Ok(LinearModel {
        weights,
        intercept: b,
        iterations: iters,
    })
}

fn feature_scale(data: &FeatureSet) -> Vec<f64> {
    let mut scale = vec![0.0f64; data.dim];
    for (xs, _) in &data.partitions {
        for x in xs {
            for (s, v) in scale.iter_mut().zip(x) {
                *s = s.max(v.abs());
            }
        }
    }
    scale.iter().map(|&s| if s == 0.0 { 1.0 } else { s }).collect()
}

fn partition_gradient(
    xs: &[Vec<f64>],
    ys: &[f64],
    w: &[f64],
    b: f64,
    scale: &[f64],
) -> (Vec<f64>, f64) {
    let mut gw = vec![0.0; w.len()];
    let mut gb = 0.0;
    for (x, &y) in xs.iter().zip(ys) {
        let scaled: Vec<f64> = x.iter().zip(scale).map(|(v, s)| v / s).collect();
        let err = b + dot(w, &scaled) - y;
        for (g, xv) in gw.iter_mut().zip(&scaled) {
            *g += err * xv;
        }
        gb += err;
    }
    (gw, gb)
}

/// Fit a logistic regression (binary labels in {0, 1}) by gradient descent.
pub fn logistic_regression(
    data: &FeatureSet,
    iterations: usize,
    learning_rate: f64,
) -> Result<LinearModel> {
    let n = data.len();
    if n == 0 {
        return Err(DashError::exec("cannot fit on zero rows"));
    }
    let d = data.dim;
    let scale = feature_scale(data);
    let mut w = vec![0.0; d];
    let mut b = 0.0;
    for _ in 0..iterations {
        let mut gw = vec![0.0; d];
        let mut gb = 0.0;
        for (xs, ys) in &data.partitions {
            for (x, &y) in xs.iter().zip(ys) {
                let scaled: Vec<f64> = x.iter().zip(&scale).map(|(v, s)| v / s).collect();
                let p = sigmoid(b + dot(&w, &scaled));
                let err = p - y;
                for (g, xv) in gw.iter_mut().zip(&scaled) {
                    *g += err * xv;
                }
                gb += err;
            }
        }
        let lr = learning_rate / n as f64;
        for (wi, g) in w.iter_mut().zip(&gw) {
            *wi -= lr * g;
        }
        b -= lr * gb;
    }
    let weights = w
        .iter()
        .zip(&scale)
        .map(|(wi, s)| if *s > 0.0 { wi / s } else { 0.0 })
        .collect();
    Ok(LinearModel {
        weights,
        intercept: b,
        iterations,
    })
}

/// Sigmoid with clamping for numeric safety.
pub fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z.clamp(-30.0, 30.0)).exp())
}

/// A fitted k-means clustering.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansModel {
    /// Cluster centroids.
    pub centroids: Vec<Vec<f64>>,
    /// Iterations until convergence (or the cap).
    pub iterations: usize,
    /// Final within-cluster sum of squares.
    pub wcss: f64,
}

fn nearest(centroids: &[Vec<f64>], x: &[f64]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (i, c) in centroids.iter().enumerate() {
        let d: f64 = c.iter().zip(x).map(|(a, b)| (a - b) * (a - b)).sum();
        if d < best.1 {
            best = (i, d);
        }
    }
    best
}

/// Lloyd's k-means, map-reduce style: per-partition (sum, count) partials
/// per cluster, merged at the driver each iteration. Deterministic
/// initialization: the k observations most spread along the first feature.
pub fn kmeans(data: &FeatureSet, k: usize, max_iterations: usize) -> Result<KMeansModel> {
    let n = data.len();
    if k == 0 || n < k {
        return Err(DashError::exec(format!(
            "kmeans needs at least k={k} rows, have {n}"
        )));
    }
    // Deterministic seeding: sort a sample by the first dimension and take
    // k evenly spaced observations.
    let mut sample: Vec<Vec<f64>> = data
        .partitions
        .iter()
        .flat_map(|(xs, _)| xs.iter().cloned())
        .collect();
    sample.sort_by(|a, b| a[0].partial_cmp(&b[0]).unwrap_or(std::cmp::Ordering::Equal));
    let mut centroids: Vec<Vec<f64>> = (0..k)
        .map(|i| sample[i * (n - 1) / (k.max(2) - 1).max(1)].clone())
        .collect();
    let mut iterations = 0;
    let mut wcss = f64::INFINITY;
    for _ in 0..max_iterations {
        iterations += 1;
        // Map: per-partition accumulation.
        let dim = data.dim;
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0usize; k];
        let mut new_wcss = 0.0;
        for (xs, _) in &data.partitions {
            for x in xs {
                let (c, d) = nearest(&centroids, x);
                counts[c] += 1;
                new_wcss += d;
                for (s, v) in sums[c].iter_mut().zip(x) {
                    *s += v;
                }
            }
        }
        // Reduce: recompute centroids.
        let mut moved = false;
        for c in 0..k {
            if counts[c] == 0 {
                continue; // keep the old centroid
            }
            let new_c: Vec<f64> = sums[c].iter().map(|s| s / counts[c] as f64).collect();
            if new_c
                .iter()
                .zip(&centroids[c])
                .any(|(a, b)| (a - b).abs() > 1e-9)
            {
                moved = true;
            }
            centroids[c] = new_c;
        }
        wcss = new_wcss;
        if !moved {
            break;
        }
    }
    Ok(KMeansModel {
        centroids,
        iterations,
        wcss,
    })
}

/// Merge per-shard gradient partials — the cross-shard reduce used when
/// the same GLM runs once per MPP shard (collocated workers) and the
/// driver combines. Exposed so the integration benchmark can fit one model
/// across shards without moving raw rows.
pub fn merge_gradients(partials: &[(Vec<f64>, f64, usize)]) -> (Vec<f64>, f64, usize) {
    let dim = partials.first().map_or(0, |(g, _, _)| g.len());
    let mut gw = vec![0.0; dim];
    let mut gb = 0.0;
    let mut n = 0usize;
    for (pg, pb, pn) in partials {
        for (a, b) in gw.iter_mut().zip(pg) {
            *a += b;
        }
        gb += pb;
        n += pn;
    }
    (gw, gb, n)
}

/// One shard's gradient contribution for the current weights (used with
/// [`merge_gradients`] for cross-shard GLM training).
pub fn shard_gradient(data: &FeatureSet, w: &[f64], b: f64) -> (Vec<f64>, f64, usize) {
    let ones = vec![1.0; data.dim];
    let mut gw = vec![0.0; data.dim];
    let mut gb = 0.0;
    let mut n = 0usize;
    for (xs, ys) in &data.partitions {
        let (pw, pb) = partition_gradient(xs, ys, w, b, &ones);
        for (a, p) in gw.iter_mut().zip(pw) {
            *a += p;
        }
        gb += pb;
        n += xs.len();
    }
    (gw, gb, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use dash_common::types::DataType;
    use dash_common::{row, Field, Row, Schema};

    fn linear_data(n: usize, parts: usize) -> FeatureSet {
        // y = 3x + 2 with mild deterministic noise.
        let schema = Schema::new(vec![
            Field::new("x", DataType::Float64),
            Field::new("y", DataType::Float64),
        ])
        .unwrap();
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                let x = i as f64 / 10.0;
                let noise = ((i * 7919) % 11) as f64 / 100.0 - 0.05;
                row![x, 3.0 * x + 2.0 + noise]
            })
            .collect();
        Dataset::from_rows(schema, rows, parts)
            .to_features(&[0], 1)
            .unwrap()
    }

    #[test]
    fn glm_recovers_line() {
        let data = linear_data(500, 4);
        let m = linear_regression(&data, 800, 0.5).unwrap();
        assert!((m.weights[0] - 3.0).abs() < 0.1, "slope {}", m.weights[0]);
        assert!((m.intercept - 2.0).abs() < 0.3, "intercept {}", m.intercept);
        assert!((m.predict(&[10.0]) - 32.0).abs() < 1.0);
    }

    #[test]
    fn glm_partition_invariance() {
        // Full-batch GD: gradients are sums, so partitioning must not
        // change the fit — the property that makes per-shard training valid.
        let a = linear_regression(&linear_data(300, 1), 200, 0.5).unwrap();
        let b = linear_regression(&linear_data(300, 8), 200, 0.5).unwrap();
        assert!((a.weights[0] - b.weights[0]).abs() < 1e-9);
        assert!((a.intercept - b.intercept).abs() < 1e-9);
    }

    #[test]
    fn glm_empty_errors() {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Float64),
            Field::new("y", DataType::Float64),
        ])
        .unwrap();
        let fs = Dataset::from_rows(schema, vec![], 2).to_features(&[0], 1).unwrap();
        assert!(linear_regression(&fs, 10, 0.1).is_err());
    }

    #[test]
    fn logistic_separates_classes() {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Float64),
            Field::new("y", DataType::Float64),
        ])
        .unwrap();
        let rows: Vec<Row> = (0..400)
            .map(|i| {
                let x = (i % 100) as f64 / 10.0;
                let y = if x > 5.0 { 1.0 } else { 0.0 };
                row![x, y]
            })
            .collect();
        let fs = Dataset::from_rows(schema, rows, 4).to_features(&[0], 1).unwrap();
        let m = logistic_regression(&fs, 2000, 2.0).unwrap();
        assert!(sigmoid(m.predict(&[9.0])) > 0.9);
        assert!(sigmoid(m.predict(&[1.0])) < 0.1);
    }

    #[test]
    fn kmeans_finds_clusters() {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Float64),
            Field::new("y", DataType::Float64),
        ])
        .unwrap();
        // Three tight clusters around 0, 10, 20 (y is the dummy target).
        let rows: Vec<Row> = (0..300)
            .map(|i| {
                let center = (i % 3) as f64 * 10.0;
                let jitter = ((i * 31) % 7) as f64 / 10.0 - 0.3;
                row![center + jitter, 0.0f64]
            })
            .collect();
        let fs = Dataset::from_rows(schema, rows, 3).to_features(&[0], 1).unwrap();
        let m = kmeans(&fs, 3, 50).unwrap();
        let mut centers: Vec<f64> = m.centroids.iter().map(|c| c[0]).collect();
        centers.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((centers[0] - 0.0).abs() < 1.0, "{centers:?}");
        assert!((centers[1] - 10.0).abs() < 1.0);
        assert!((centers[2] - 20.0).abs() < 1.0);
        assert!(m.wcss < 300.0);
        assert!(kmeans(&fs, 0, 10).is_err());
    }

    #[test]
    fn cross_shard_gradient_merge_equals_single() {
        // Two shards' merged gradient == one combined set's gradient.
        let all = linear_data(200, 1);
        let w = vec![0.5];
        let b = 0.1;
        let (g_all, gb_all, n_all) = shard_gradient(&all, &w, b);
        // Split the same data into two "shards".
        let (xs, ys) = &all.partitions[0];
        let shard1 = FeatureSet {
            dim: 1,
            partitions: vec![(xs[..100].to_vec(), ys[..100].to_vec())],
        };
        let shard2 = FeatureSet {
            dim: 1,
            partitions: vec![(xs[100..].to_vec(), ys[100..].to_vec())],
        };
        let p1 = shard_gradient(&shard1, &w, b);
        let p2 = shard_gradient(&shard2, &w, b);
        let (g_m, gb_m, n_m) = merge_gradients(&[p1, p2]);
        assert!((g_all[0] - g_m[0]).abs() < 1e-9);
        assert!((gb_all - gb_m).abs() < 1e-9);
        assert_eq!(n_all, n_m);
    }
}
