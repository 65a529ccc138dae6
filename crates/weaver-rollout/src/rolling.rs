//! The rolling-update baseline: the failure mode the paper designs against.
//!
//! "During a rolling update, machines running different versions of the
//! code have to communicate with each other, which can lead to failures.
//! \[78\] shows that the majority of update failures are caused by these
//! cross-version interactions."
//!
//! `RollingUpdate` models a fleet of replicas per service tier being
//! upgraded one replica at a time. A request walks a chain of tiers,
//! hitting an arbitrary replica at each hop; whenever two adjacent hops run
//! different versions, that call is a cross-version interaction. With the
//! non-versioned wire format such a call is not merely risky — it decodes
//! garbage, which is exactly what the A5 experiment demonstrates live.

/// A rolling update across one or more service tiers.
#[derive(Debug, Clone)]
pub struct RollingUpdate {
    /// Per tier: number of replicas on the new version (index `< upgraded`
    /// means upgraded).
    tiers: Vec<Tier>,
    old_version: u64,
    new_version: u64,
}

#[derive(Debug, Clone)]
struct Tier {
    replicas: u32,
    upgraded: u32,
}

impl RollingUpdate {
    /// Starts a rolling update over tiers of the given replica counts.
    pub fn new(old_version: u64, new_version: u64, replicas_per_tier: &[u32]) -> Self {
        RollingUpdate {
            tiers: replicas_per_tier
                .iter()
                .map(|&replicas| Tier {
                    replicas: replicas.max(1),
                    upgraded: 0,
                })
                .collect(),
            old_version,
            new_version,
        }
    }

    /// Upgrades one replica (the standard one-by-one schedule). Tiers are
    /// drained in order. Returns `false` when everything is upgraded.
    pub fn step(&mut self) -> bool {
        for tier in &mut self.tiers {
            if tier.upgraded < tier.replicas {
                tier.upgraded += 1;
                return true;
            }
        }
        false
    }

    /// True when every replica runs the new version.
    pub fn done(&self) -> bool {
        self.tiers.iter().all(|t| t.upgraded == t.replicas)
    }

    /// The version served by replica `replica_index` of `tier`.
    pub fn version_of(&self, tier: usize, replica_index: u32) -> u64 {
        match self.tiers.get(tier) {
            Some(t) if replica_index < t.upgraded => self.new_version,
            _ => self.old_version,
        }
    }

    /// Picks the replica (and thus version) serving a call into `tier`,
    /// given a pseudo-random `pick` value — the load balancer does not know
    /// about versions, which is precisely the problem.
    pub fn route(&self, tier: usize, pick: u64) -> u64 {
        match self.tiers.get(tier) {
            Some(t) => self.version_of(tier, (pick % u64::from(t.replicas)) as u32),
            None => self.old_version,
        }
    }

    /// Probability that a request chaining through all tiers observes at
    /// least one cross-version hop, assuming uniform replica choice.
    ///
    /// For a single tier this is 0 (no inter-tier call), for two tiers with
    /// upgrade fractions `p` and `q` it is `p(1−q) + (1−p)q`, etc.
    pub fn mix_probability(&self) -> f64 {
        if self.tiers.len() < 2 {
            return 0.0;
        }
        let fractions: Vec<f64> = self
            .tiers
            .iter()
            .map(|t| f64::from(t.upgraded) / f64::from(t.replicas))
            .collect();
        // P(all hops same version) = P(all new) + P(all old).
        let all_new: f64 = fractions.iter().product();
        let all_old: f64 = fractions.iter().map(|p| 1.0 - p).product();
        1.0 - (all_new + all_old)
    }

    /// Replicas upgraded so far.
    pub fn total_upgraded(&self) -> u32 {
        self.tiers.iter().map(|t| t.upgraded).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_through_every_replica() {
        let mut ru = RollingUpdate::new(1, 2, &[3, 2]);
        assert!(!ru.done());
        let mut steps = 0;
        while ru.step() {
            steps += 1;
        }
        assert_eq!(steps, 5);
        assert!(ru.done());
        assert_eq!(ru.total_upgraded(), 5);
    }

    #[test]
    fn versions_flip_replica_by_replica() {
        let mut ru = RollingUpdate::new(1, 2, &[2]);
        assert_eq!(ru.version_of(0, 0), 1);
        assert_eq!(ru.version_of(0, 1), 1);
        ru.step();
        assert_eq!(ru.version_of(0, 0), 2);
        assert_eq!(ru.version_of(0, 1), 1);
    }

    #[test]
    fn mix_probability_peaks_mid_rollout() {
        let mut ru = RollingUpdate::new(1, 2, &[4, 4]);
        assert_eq!(ru.mix_probability(), 0.0);
        // Upgrade half of tier 0 only.
        ru.step();
        ru.step();
        let mid = ru.mix_probability();
        assert!(mid > 0.4, "mid-rollout mix {mid}");
        while ru.step() {}
        assert_eq!(ru.mix_probability(), 0.0);
    }

    #[test]
    fn mix_probability_formula_two_tiers() {
        let mut ru = RollingUpdate::new(1, 2, &[4, 4]);
        ru.step(); // tier0: 1/4 upgraded.
        let p = 0.25f64;
        let q = 0.0f64;
        let expected = 1.0 - (p * q + (1.0 - p) * (1.0 - q));
        assert!((ru.mix_probability() - expected).abs() < 1e-12);
    }

    #[test]
    fn single_tier_never_mixes() {
        let mut ru = RollingUpdate::new(1, 2, &[8]);
        ru.step();
        ru.step();
        assert_eq!(ru.mix_probability(), 0.0);
    }

    #[test]
    fn route_respects_replica_versions() {
        let mut ru = RollingUpdate::new(1, 2, &[2]);
        ru.step(); // Replica 0 upgraded.
        let versions: Vec<u64> = (0..2).map(|pick| ru.route(0, pick)).collect();
        assert!(versions.contains(&1));
        assert!(versions.contains(&2));
    }

    #[test]
    fn empirical_mix_matches_formula() {
        let mut ru = RollingUpdate::new(1, 2, &[4, 4]);
        ru.step();
        ru.step();
        ru.step(); // tier0: 3/4 upgraded, tier1: 0/4.
        let formula = ru.mix_probability();
        let mut mixed = 0u32;
        let trials = 100_000u64;
        // Cheap deterministic pseudo-random walk.
        let mut x = 0x1234_5678_9abc_def0u64;
        for _ in 0..trials {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v0 = ru.route(0, x);
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v1 = ru.route(1, x);
            if v0 != v1 {
                mixed += 1;
            }
        }
        let observed = f64::from(mixed) / trials as f64;
        assert!(
            (observed - formula).abs() < 0.02,
            "observed {observed} vs formula {formula}"
        );
    }
}
