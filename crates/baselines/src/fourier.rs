//! The Fourier Perturbation Algorithm FPA_k ([Rastogi & Nath 2010], with the
//! user-level sensitivity analysis of [Leukam Lako et al. 2021]).
//!
//! Each spatial pillar (a disjoint set of users, so parallel composition
//! grants it the full budget) is transformed with the DFT; the `k` lowest
//! frequencies are perturbed with Laplace noise and the rest are dropped;
//! the inverse transform yields the DP series. Only the kept coefficients
//! are ever computed, from one shared cos/sin table, so a pillar costs
//! O(kT) rather than the O(T²) of a full transform pair.
//!
//! Removing one user changes the pillar series by at most `clip` per step,
//! i.e. by L2 distance `clip·√T` — which the orthonormal DFT preserves. The
//! L1 sensitivity of the 2k real components (re/im) of `k` retained
//! orthonormal coefficients is then bounded by `√(2k) · clip·√T =
//! clip·√(2kT)`.

use crate::mechanism::Mechanism;
use stpt_data::ConsumptionMatrix;
use stpt_dp::prelude::*;

/// FPA_k over every pillar.
#[derive(Debug, Clone, Copy)]
pub struct Fourier {
    /// Number of low-frequency coefficients retained and perturbed.
    pub k: usize,
}

impl Fourier {
    /// FPA with `k` retained coefficients (the paper uses 10 and 20).
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        Fourier { k }
    }
}

impl Mechanism for Fourier {
    fn name(&self) -> String {
        format!("Fourier-{}", self.k)
    }

    // xtask-allow(XT09): comparison baseline outside the audited STPT path — it receives a pre-split eps_total directly instead of spending on the central accountant
    fn sanitize(
        &self,
        c: &ConsumptionMatrix,
        clip: f64,
        eps_total: f64,
        rng: &mut DpRng,
    ) -> ConsumptionMatrix {
        let _span = stpt_obs::span!("baseline.fourier");
        let t = c.ct();
        // A real series has ⌊T/2⌋+1 distinct frequencies; the rest are
        // conjugate mirrors of those, so a larger k would keep nothing new.
        let k = self.k.min(t / 2 + 1);
        // The √(2kT) bound applies to the *orthonormal* (1/√T-scaled) DFT
        // coefficients (2k real components); the ones below are unnormalised
        // (as in [`dft`]), so the per-component noise carries an extra √T.
        let scale = clip * ((2 * k * t) as f64).sqrt() * (t as f64).sqrt() / eps_total;
        // cos/sin of 2πm/T: the angle of term (j, n) is 2π·(n·j mod T)/T.
        let angle = |m: usize| 2.0 * std::f64::consts::PI * m as f64 / t as f64;
        let cos: Vec<f64> = (0..t).map(|m| angle(m).cos()).collect();
        let sin: Vec<f64> = (0..t).map(|m| angle(m).sin()).collect();
        let mut re = vec![0.0; k];
        let mut im = vec![0.0; k];
        let mut out = c.clone();
        for (x, y) in c.pillar_coords() {
            let pillar = c.pillar(x, y);
            // Only the k lowest frequencies survive, so only they are
            // computed, each perturbed as it is formed. The DC (and
            // Nyquist) terms of a real signal have no imaginary part.
            for j in 0..k {
                let (mut r, mut i, mut m) = (0.0, 0.0, 0);
                for &xn in pillar {
                    r += xn * cos[m];
                    i -= xn * sin[m];
                    m += j;
                    if m >= t {
                        m -= t;
                    }
                }
                re[j] = r + laplace_sample(scale, rng);
                im[j] = if j > 0 && 2 * j < t {
                    i + laplace_sample(scale, rng)
                } else {
                    0.0
                };
            }
            // Real inverse over the kept set: every frequency but DC and
            // Nyquist also stands for its conjugate mirror T−j, which keeps
            // the output real and doubles its term.
            for (n, o) in out.pillar_mut(x, y).iter_mut().enumerate() {
                let (mut acc, mut m) = (0.0, 0);
                for j in 0..k {
                    let term = re[j] * cos[m] - im[j] * sin[m];
                    acc += if j == 0 || 2 * j == t {
                        term
                    } else {
                        2.0 * term
                    };
                    m += n;
                    if m >= t {
                        m -= t;
                    }
                }
                *o = acc / t as f64;
            }
        }
        out
    }
}

/// Naive O(T²) discrete Fourier transform of a real series, returning
/// `(re, im)` coefficient vectors. [`Fourier`] does not call it: it is the
/// trivially correct oracle that tests hold the O(kT) kept-coefficient
/// path against.
pub fn dft(x: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let t = x.len();
    let mut re = vec![0.0; t];
    let mut im = vec![0.0; t];
    for (j, (rj, ij)) in re.iter_mut().zip(im.iter_mut()).enumerate() {
        let w = -2.0 * std::f64::consts::PI * j as f64 / t as f64;
        for (n, &xn) in x.iter().enumerate() {
            let angle = w * n as f64;
            *rj += xn * angle.cos();
            *ij += xn * angle.sin();
        }
    }
    (re, im)
}

/// Inverse DFT returning the real part (the oracle's other half).
pub fn idft_real(re: &[f64], im: &[f64]) -> Vec<f64> {
    let t = re.len();
    let mut out = vec![0.0; t];
    for (n, o) in out.iter_mut().enumerate() {
        let w = 2.0 * std::f64::consts::PI * n as f64 / t as f64;
        let mut acc = 0.0;
        for j in 0..t {
            let angle = w * j as f64;
            acc += re[j] * angle.cos() - im[j] * angle.sin();
        }
        *o = acc / t as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FPA the naive way: full [`dft`], keep and perturb the k lowest
    /// frequencies (re before im, ascending j), mirror them, full
    /// [`idft_real`].
    fn fpa_oracle(
        c: &ConsumptionMatrix,
        k: usize,
        clip: f64,
        eps_total: f64,
        rng: &mut DpRng,
    ) -> ConsumptionMatrix {
        let t = c.ct();
        let k = k.min(t / 2 + 1);
        let scale = clip * ((2 * k * t) as f64).sqrt() * (t as f64).sqrt() / eps_total;
        let mut out = c.clone();
        for (x, y) in c.pillar_coords() {
            let (re, im) = dft(c.pillar(x, y));
            let (mut kre, mut kim) = (vec![0.0; t], vec![0.0; t]);
            for j in 0..k {
                kre[j] = re[j] + laplace_sample(scale, rng);
                if j > 0 && j < t - j {
                    kim[j] = im[j] + laplace_sample(scale, rng);
                }
                if j > 0 {
                    kre[t - j] = kre[j];
                    kim[t - j] = -kim[j];
                }
            }
            out.pillar_mut(x, y).copy_from_slice(&idft_real(&kre, &kim));
        }
        out
    }

    fn wiggly(cx: usize, cy: usize, t: usize) -> ConsumptionMatrix {
        let mut m = ConsumptionMatrix::zeros(cx, cy, t);
        for (i, v) in m.data_mut().iter_mut().enumerate() {
            *v = 3.0 + (i as f64 * 0.7).sin() + ((i * 7919) % 13) as f64 / 13.0;
        }
        m
    }

    fn max_abs_diff(a: &ConsumptionMatrix, b: &ConsumptionMatrix) -> f64 {
        a.data()
            .iter()
            .zip(b.data())
            .map(|(p, q)| (p - q).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn kept_coefficient_path_matches_naive_oracle() {
        use rand::RngCore;
        for t in [1, 2, 7, 8, 220] {
            let side = if t > 100 { 3 } else { 2 };
            let m = wiggly(side, side, t);
            for k in [1, t / 2, t / 2 + 1, 10, 20] {
                if k == 0 {
                    continue;
                }
                let mut fast_rng = DpRng::seed_from_u64(t as u64 * 31 + k as u64);
                let mut slow_rng = fast_rng.clone();
                let fast = Fourier::new(k).sanitize(&m, 1.5, 20.0, &mut fast_rng);
                let slow = fpa_oracle(&m, k, 1.5, 20.0, &mut slow_rng);
                let diff = max_abs_diff(&fast, &slow);
                assert!(diff < 1e-9, "T={t} k={k}: max diff {diff}");
                assert_eq!(
                    fast_rng.next_u64(),
                    slow_rng.next_u64(),
                    "T={t} k={k}: draw order or count differs from the oracle"
                );
            }
        }
    }

    #[test]
    fn every_frequency_kept_reproduces_the_input() {
        // k = T exceeds the ⌊T/2⌋+1 distinct frequencies of a real series;
        // it must keep them all (sine parts included), not fold the upper
        // half back onto the lower.
        for t in [7, 8, 33, 36] {
            let m = wiggly(1, 1, t);
            let mut rng = DpRng::seed_from_u64(t as u64);
            let out = Fourier::new(t).sanitize(&m, 1.0, 1e12, &mut rng);
            let diff = max_abs_diff(&out, &m);
            assert!(diff < 1e-6, "T={t}: max diff {diff}");
        }
    }

    #[test]
    fn noiseless_error_never_grows_with_k() {
        for t in [8, 9] {
            let m = wiggly(1, 1, t);
            let err = |k: usize| {
                let mut rng = DpRng::seed_from_u64(5);
                let out = Fourier::new(k).sanitize(&m, 1.0, 1e12, &mut rng);
                max_abs_diff(&out, &m)
            };
            for k in 1..t {
                assert!(
                    err(k + 1) <= err(k) + 1e-6,
                    "T={t}: error rose from k={k} ({}) to k={} ({})",
                    err(k),
                    k + 1,
                    err(k + 1)
                );
            }
        }
    }

    #[test]
    fn dft_roundtrip_is_identity() {
        let x: Vec<f64> = (0..37)
            .map(|i| (i as f64 * 0.7).sin() + 0.1 * i as f64)
            .collect();
        let (re, im) = dft(&x);
        let back = idft_real(&re, &im);
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn dft_of_constant_is_dc_only() {
        let x = vec![3.0; 16];
        let (re, im) = dft(&x);
        assert!((re[0] - 48.0).abs() < 1e-9);
        for j in 1..16 {
            assert!(re[j].abs() < 1e-9 && im[j].abs() < 1e-9);
        }
    }

    #[test]
    fn dft_parseval() {
        let x: Vec<f64> = (0..20).map(|i| ((i * 7 % 13) as f64) / 13.0).collect();
        let (re, im) = dft(&x);
        let time_energy: f64 = x.iter().map(|v| v * v).sum();
        let freq_energy: f64 =
            re.iter().zip(&im).map(|(r, i)| r * r + i * i).sum::<f64>() / x.len() as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9);
    }

    #[test]
    fn huge_budget_recovers_smooth_signal() {
        // A low-frequency signal is captured by k=10 coefficients almost
        // exactly once noise vanishes.
        let t = 64;
        let mut m = ConsumptionMatrix::zeros(1, 1, t);
        for i in 0..t {
            m.set(
                0,
                0,
                i,
                5.0 + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin(),
            );
        }
        let mut rng = DpRng::seed_from_u64(0);
        let out = Fourier::new(10).sanitize(&m, 1.0, 1e9, &mut rng);
        for i in 0..t {
            assert!(
                (out.get(0, 0, i) - m.get(0, 0, i)).abs() < 1e-6,
                "t={i}: {} vs {}",
                out.get(0, 0, i),
                m.get(0, 0, i)
            );
        }
    }

    #[test]
    fn output_is_real_and_shape_preserved() {
        let mut m = ConsumptionMatrix::zeros(2, 2, 30);
        for i in 0..m.len() {
            m.data_mut()[i] = (i % 7) as f64;
        }
        let mut rng = DpRng::seed_from_u64(1);
        let out = Fourier::new(5).sanitize(&m, 1.5, 20.0, &mut rng);
        assert_eq!(out.shape(), m.shape());
        assert!(out.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn larger_k_keeps_more_detail_at_high_budget() {
        // A signal with energy at a frequency above k=2 but below k=12.
        let t = 64;
        let mut m = ConsumptionMatrix::zeros(1, 1, t);
        for i in 0..t {
            let phase = 2.0 * std::f64::consts::PI * i as f64 / t as f64;
            m.set(0, 0, i, (8.0 * phase).sin());
        }
        let mut rng = DpRng::seed_from_u64(2);
        let low = Fourier::new(2).sanitize(&m, 1.0, 1e9, &mut rng);
        let high = Fourier::new(12).sanitize(&m, 1.0, 1e9, &mut rng);
        let err = |o: &ConsumptionMatrix| {
            o.data()
                .iter()
                .zip(m.data())
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
        };
        assert!(err(&high) < 1e-3, "high-k err {}", err(&high));
        assert!(err(&low) > 1.0);
    }
}
