//! The optimizer: Adam (used by NeuroCard's training loop).
//!
//! It operates on a flat list of mutable [`Param`] references so a model can expose its
//! parameters without the optimizer knowing anything about the architecture.  The optimizer
//! zeroes gradients after applying them.

use crate::layers::Param;

/// Adam hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 2e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

/// The Adam optimizer (Kingma & Ba, 2015) with per-parameter moment buffers.
#[derive(Debug, Clone)]
pub struct Adam {
    config: AdamConfig,
    /// (first moment, second moment) per registered parameter, flattened.
    moments: Vec<(Vec<f32>, Vec<f32>)>,
    step: u64,
}

impl Adam {
    /// Creates an optimizer for a model whose parameters have the given flat sizes.
    pub fn new(config: AdamConfig, param_sizes: &[usize]) -> Self {
        Adam {
            config,
            moments: param_sizes
                .iter()
                .map(|&n| (vec![0.0; n], vec![0.0; n]))
                .collect(),
            step: 0,
        }
    }

    /// Convenience: builds the optimizer directly from the parameter list.
    pub fn for_params(config: AdamConfig, params: &[&Param]) -> Self {
        let sizes: Vec<usize> = params.iter().map(|p| p.num_params()).collect();
        Self::new(config, &sizes)
    }

    /// Number of optimizer steps taken so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.config.lr
    }

    /// Sets the learning rate (used for simple decay schedules).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.config.lr = lr;
    }

    /// Applies one Adam update using the accumulated gradients, then zeroes them.
    ///
    /// The parameter list must always be passed in the same order it was registered with.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        assert_eq!(
            params.len(),
            self.moments.len(),
            "parameter count changed between optimizer steps"
        );
        self.step += 1;
        let t = self.step as f32;
        let c = self.config;
        let bias1 = 1.0 - c.beta1.powf(t);
        let bias2 = 1.0 - c.beta2.powf(t);
        for (param, (m, v)) in params.iter_mut().zip(self.moments.iter_mut()) {
            let Param { value, grad } = &mut **param;
            assert_eq!(grad.data().len(), m.len(), "parameter shape changed");
            // Four slices walked in lock-step: no index, no bounds check, so the loop
            // vectorises — `/`, `sqrt` and `*` round exactly, lane by lane, to the scalar
            // bits.
            let moments = m.iter_mut().zip(v.iter_mut());
            let weights = value.data_mut().iter_mut().zip(grad.data());
            for ((m, v), (w, &g)) in moments.zip(weights) {
                *m = c.beta1 * *m + (1.0 - c.beta1) * g;
                *v = c.beta2 * *v + (1.0 - c.beta2) * g * g;
                let m_hat = *m / bias1;
                let v_hat = *v / bias2;
                *w -= c.lr * m_hat / (v_hat.sqrt() + c.eps);
            }
            param.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Matrix;

    /// Minimises f(w) = (w - 3)²; Adam must converge to 3.
    #[test]
    fn adam_converges_on_quadratic() {
        let mut p = Param::zeros(1, 1);
        p.value.set(0, 0, -2.0);
        let mut adam = Adam::new(
            AdamConfig {
                lr: 0.1,
                ..Default::default()
            },
            &[1],
        );
        for _ in 0..500 {
            let w = p.value.get(0, 0);
            p.grad = Matrix::from_vec(1, 1, vec![2.0 * (w - 3.0)]);
            adam.step(&mut [&mut p]);
        }
        let w = p.value.get(0, 0);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn gradients_are_zeroed_after_step() {
        let mut p = Param::zeros(2, 2);
        p.grad.set(1, 1, 4.0);
        let mut adam = Adam::for_params(AdamConfig::default(), &[&p]);
        adam.step(&mut [&mut p]);
        assert_eq!(p.grad.get(1, 1), 0.0);
        assert_eq!(adam.steps(), 1);
        adam.set_learning_rate(1e-4);
        assert!((adam.learning_rate() - 1e-4).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "parameter count changed")]
    fn mismatched_parameter_count_panics() {
        let mut p = Param::zeros(1, 1);
        let mut adam = Adam::new(AdamConfig::default(), &[1, 1]);
        adam.step(&mut [&mut p]);
    }
}
