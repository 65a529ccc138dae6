//! The blue/green atomic rollout state machine.

use weaver_macros::WeaverData;

/// How traffic is split between the two deployments of a rollout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficSplit {
    /// Version id serving the "old" share.
    pub old_version: u64,
    /// Version id serving the "new" share.
    pub new_version: u64,
    /// Fraction of *new requests* sent to the new version, in `[0, 1]`.
    pub new_fraction: f64,
}

impl TrafficSplit {
    /// Pins a request to a version: requests whose `request_key` falls in
    /// the new fraction go to the new version, deterministically, so
    /// retries of the same request land on the same version.
    pub fn version_for(&self, request_key: u64) -> u64 {
        // Map the key uniformly onto [0,1).
        let point = (request_key as f64) / (u64::MAX as f64);
        if point < self.new_fraction {
            self.new_version
        } else {
            self.old_version
        }
    }
}

/// Rollout lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, WeaverData)]
pub enum RolloutPhase {
    /// Traffic is being shifted in stages.
    Shifting,
    /// All traffic is on the new version; old can be torn down.
    Completed,
    /// A health gate failed; all traffic is back on the old version.
    RolledBack,
}

/// Rollout tunables.
#[derive(Debug, Clone)]
pub struct RolloutConfig {
    /// Traffic fractions to step through (each must be in `(0, 1]`,
    /// ascending; a final `1.0` is implied if absent).
    pub stages: Vec<f64>,
    /// Health evaluations a stage must pass before advancing.
    pub ticks_per_stage: u32,
    /// Error-rate ceiling per tick; above it the rollout rolls back.
    pub max_error_rate: f64,
}

impl Default for RolloutConfig {
    fn default() -> Self {
        RolloutConfig {
            stages: vec![0.01, 0.1, 0.5, 1.0],
            ticks_per_stage: 3,
            max_error_rate: 0.01,
        }
    }
}

/// A blue/green rollout from `old_version` to `new_version`.
#[derive(Debug)]
pub struct Rollout {
    old_version: u64,
    new_version: u64,
    config: RolloutConfig,
    stage: usize,
    ticks_in_stage: u32,
    phase: RolloutPhase,
}

impl Rollout {
    /// Starts a rollout.
    ///
    /// # Panics
    ///
    /// Panics on a malformed stage list (empty, out of range, or not
    /// ascending) — a configuration bug caught at deploy time.
    pub fn new(old_version: u64, new_version: u64, config: RolloutConfig) -> Self {
        assert!(
            !config.stages.is_empty(),
            "rollout needs at least one stage"
        );
        let mut prev = 0.0;
        for &s in &config.stages {
            assert!(s > 0.0 && s <= 1.0, "stage fraction {s} out of range");
            assert!(s > prev, "stages must ascend");
            prev = s;
        }
        Rollout {
            old_version,
            new_version,
            config,
            stage: 0,
            ticks_in_stage: 0,
            phase: RolloutPhase::Shifting,
        }
    }

    /// Current lifecycle phase.
    pub fn phase(&self) -> RolloutPhase {
        self.phase
    }

    /// The split ingress should apply right now.
    pub fn split(&self) -> TrafficSplit {
        let new_fraction = match self.phase {
            RolloutPhase::Completed => 1.0,
            RolloutPhase::RolledBack => 0.0,
            RolloutPhase::Shifting => self.config.stages[self.stage],
        };
        TrafficSplit {
            old_version: self.old_version,
            new_version: self.new_version,
            new_fraction,
        }
    }

    /// Feeds one health evaluation: the observed error rate of the new
    /// version since the last tick. Advances, completes, or rolls back.
    pub fn tick(&mut self, new_version_error_rate: f64) -> RolloutPhase {
        if self.phase != RolloutPhase::Shifting {
            return self.phase;
        }
        if new_version_error_rate > self.config.max_error_rate {
            self.phase = RolloutPhase::RolledBack;
            return self.phase;
        }
        self.ticks_in_stage += 1;
        if self.ticks_in_stage >= self.config.ticks_per_stage {
            self.ticks_in_stage = 0;
            if self.stage + 1 < self.config.stages.len() {
                self.stage += 1;
            } else if (self.config.stages[self.stage] - 1.0).abs() < f64::EPSILON {
                self.phase = RolloutPhase::Completed;
            } else {
                // Implied final stage at 100%.
                self.config.stages.push(1.0);
                self.stage += 1;
            }
        }
        self.phase
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weaver_codec::prelude::*;

    #[test]
    fn happy_path_walks_stages_then_completes() {
        let mut r = Rollout::new(1, 2, RolloutConfig::default());
        let mut fractions = vec![r.split().new_fraction];
        for _ in 0..100 {
            if r.tick(0.0) != RolloutPhase::Shifting {
                break;
            }
            let f = r.split().new_fraction;
            if *fractions.last().expect("non-empty") != f {
                fractions.push(f);
            }
        }
        assert_eq!(r.phase(), RolloutPhase::Completed);
        assert_eq!(fractions, vec![0.01, 0.1, 0.5, 1.0]);
        assert_eq!(r.split().new_fraction, 1.0);
    }

    #[test]
    fn unhealthy_stage_rolls_back() {
        let mut r = Rollout::new(1, 2, RolloutConfig::default());
        r.tick(0.0);
        assert_eq!(r.tick(0.5), RolloutPhase::RolledBack);
        // All traffic back on old.
        assert_eq!(r.split().new_fraction, 0.0);
        assert_eq!(r.split().version_for(0), 1);
        assert_eq!(r.split().version_for(u64::MAX), 1);
        // Further ticks are inert.
        assert_eq!(r.tick(0.0), RolloutPhase::RolledBack);
    }

    #[test]
    fn split_is_deterministic_per_request() {
        let split = TrafficSplit {
            old_version: 1,
            new_version: 2,
            new_fraction: 0.5,
        };
        for key in [0u64, 42, u64::MAX / 2, u64::MAX] {
            assert_eq!(split.version_for(key), split.version_for(key));
        }
    }

    #[test]
    fn split_fractions_are_respected() {
        let split = TrafficSplit {
            old_version: 1,
            new_version: 2,
            new_fraction: 0.25,
        };
        let n = 100_000u64;
        let step = u64::MAX / n;
        let to_new = (0..n).filter(|i| split.version_for(i * step) == 2).count();
        let frac = to_new as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.01, "observed {frac}");
    }

    #[test]
    fn boundary_fractions() {
        let zero = TrafficSplit {
            old_version: 1,
            new_version: 2,
            new_fraction: 0.0,
        };
        assert_eq!(zero.version_for(12345), 1);
        let one = TrafficSplit {
            old_version: 1,
            new_version: 2,
            new_fraction: 1.0,
        };
        assert_eq!(one.version_for(12345), 2);
    }

    #[test]
    fn stage_list_without_final_one_still_completes() {
        let mut r = Rollout::new(
            1,
            2,
            RolloutConfig {
                stages: vec![0.5],
                ticks_per_stage: 1,
                max_error_rate: 0.1,
            },
        );
        r.tick(0.0); // 0.5 passed → implied 1.0 stage.
        assert_eq!(r.split().new_fraction, 1.0);
        r.tick(0.0);
        assert_eq!(r.phase(), RolloutPhase::Completed);
    }

    #[test]
    #[should_panic(expected = "ascend")]
    fn non_ascending_stages_rejected() {
        let _ = Rollout::new(
            1,
            2,
            RolloutConfig {
                stages: vec![0.5, 0.1],
                ..Default::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_stage_rejected() {
        let _ = Rollout::new(
            1,
            2,
            RolloutConfig {
                stages: vec![1.5],
                ..Default::default()
            },
        );
    }

    #[test]
    fn phase_serializes() {
        let p = RolloutPhase::RolledBack;
        let back: RolloutPhase = decode_from_slice(&encode_to_vec(&p)).unwrap();
        assert_eq!(back, p);
    }
}
