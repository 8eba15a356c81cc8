//! Evidence churn with a steady evidence size.
//!
//! Findings are drawn from a fixed pool of most-probable-explanation
//! states, so every evidence set is feasible, and targets come from a
//! reserved set that is never observed. A stream first sets a base of
//! `band` findings, then toggles one finding per step while keeping
//! the evidence size within one of `band`. Each stream is periodic: a
//! seeded walk of `half` steps followed by the same toggles undone in
//! reverse, so it visits `half + 1` evidence sets and the oracle needs
//! one propagation per set, not one per step.

use evprop_core::{CompiledModel, InferenceSession, SequentialEngine};
use evprop_potential::{EvidenceSet, VarId};
use rand::Rng;

/// Observable findings and reserved query targets of one model.
#[derive(Clone, Debug)]
pub struct ChurnPool {
    pub findings: Vec<(VarId, usize)>,
    pub targets: Vec<VarId>,
}

impl ChurnPool {
    /// Every fourth variable of the empty-evidence MPE assignment is a
    /// target; the rest are findings fixed at their MPE state. Any
    /// subset of an MPE assignment has positive probability.
    pub fn from_mpe(model: &std::sync::Arc<CompiledModel>) -> ChurnPool {
        let session = InferenceSession::from_model(std::sync::Arc::clone(model));
        let mpe = session
            .most_probable_explanation(&SequentialEngine, &EvidenceSet::new())
            .expect("empty-evidence MPE exists");
        let mut findings = Vec::new();
        let mut targets = Vec::new();
        for (i, &(v, s)) in mpe.assignment.iter().enumerate() {
            if i % 4 == 0 {
                targets.push(v);
            } else {
                findings.push((v, s));
            }
        }
        ChurnPool { findings, targets }
    }

    /// The evidence size a stream holds steady around.
    pub fn band(&self) -> usize {
        (self.findings.len() / 2).clamp(1, 8)
    }
}

/// One evidence delta.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Delta {
    Set(VarId, usize),
    Retract(VarId),
}

/// One churn step: a delta, then a query of `target`.
#[derive(Clone, Copy, Debug)]
pub struct Step {
    pub delta: Delta,
    pub target: VarId,
}

/// A periodic churn stream.
#[derive(Clone, Debug)]
pub struct Stream {
    /// Findings set before the first step (untimed).
    pub base: Vec<(VarId, usize)>,
    /// One period of steps.
    pub steps: Vec<Step>,
    /// Evidence after each step of the period, as an index into
    /// `configs`.
    pub config_of_step: Vec<usize>,
    /// The distinct evidence sets of the period.
    pub configs: Vec<EvidenceSet>,
}

impl Stream {
    pub fn new(pool: &ChurnPool, half: usize, rng: &mut impl Rng) -> Stream {
        let band = pool.band();
        let n = pool.findings.len();
        let mut observed = vec![false; n];
        let mut base = Vec::new();
        while base.len() < band {
            let i = rng.gen_range(0..n);
            if !observed[i] {
                observed[i] = true;
                base.push(pool.findings[i]);
            }
        }
        let mut size = band;
        let mut evidence = EvidenceSet::new();
        for &(v, s) in &base {
            evidence.observe(v, s);
        }
        let mut configs = vec![evidence.clone()];
        let mut forward = Vec::with_capacity(half);
        let mut toggled = Vec::with_capacity(half);
        let mut config_of_step = Vec::with_capacity(2 * half);
        for _ in 0..half {
            // Below the band: set; above it: retract; on it: either.
            let want = size < n && (size < band || (size == band && rng.gen_range(0..2) == 0));
            let i = loop {
                let i = rng.gen_range(0..n);
                if observed[i] != want {
                    break i;
                }
            };
            let (v, s) = pool.findings[i];
            observed[i] = want;
            let delta = if want {
                size += 1;
                evidence.observe(v, s);
                Delta::Set(v, s)
            } else {
                size -= 1;
                evidence.retract(v);
                Delta::Retract(v)
            };
            forward.push(delta);
            toggled.push(i);
            configs.push(evidence.clone());
            config_of_step.push(configs.len() - 1);
        }
        // Undo the walk in reverse: step k of the second half returns
        // to the evidence held before forward step half-1-k.
        let mut undo = Vec::with_capacity(half);
        for (k, &delta) in forward.iter().enumerate().rev() {
            undo.push(match delta {
                Delta::Set(v, _) => Delta::Retract(v),
                Delta::Retract(v) => Delta::Set(v, pool.findings[toggled[k]].1),
            });
            config_of_step.push(k);
        }
        let steps = forward
            .into_iter()
            .chain(undo)
            .map(|delta| Step {
                delta,
                target: pool.targets[rng.gen_range(0..pool.targets.len())],
            })
            .collect();
        Stream {
            base,
            steps,
            config_of_step,
            configs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn stream_is_periodic_and_steady() {
        let pool = ChurnPool {
            findings: (0..40).map(|i| (VarId(i), (i % 2) as usize)).collect(),
            targets: (40..50).map(VarId).collect(),
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let stream = Stream::new(&pool, 24, &mut rng);
        let mut ev = EvidenceSet::new();
        for &(v, s) in &stream.base {
            ev.observe(v, s);
        }
        let band = pool.band();
        assert_eq!(ev.len(), band);
        for _period in 0..2 {
            for (k, step) in stream.steps.iter().enumerate() {
                match step.delta {
                    Delta::Set(v, s) => {
                        assert!(ev.state_of(v).is_none());
                        ev.observe(v, s);
                    }
                    Delta::Retract(v) => assert!(ev.retract(v).is_some()),
                }
                assert!(ev.len() + 1 >= band && ev.len() <= band + 1);
                let config = &stream.configs[stream.config_of_step[k]];
                assert_eq!(ev.len(), config.len());
                for &(v, _) in &pool.findings {
                    assert_eq!(ev.state_of(v), config.state_of(v));
                }
                assert!(pool.targets.contains(&step.target));
            }
        }
    }
}
