//! Seeded schedule generation: one `u64` seed → one [`FaultSchedule`],
//! deterministically.
//!
//! The generator draws a topology (strategy, flavour, shard count,
//! population) and a fault timeline from a xoshiro stream seeded with the
//! schedule seed, under *recoverability rules* that keep every generated
//! schedule inside the deployment's contract:
//!
//! - publishers are never killed — the post-settle probe wave needs them;
//! - a killed rendezvous is always revived, **except** under the sharded
//!   mesh (where the rebalancing control plane exists precisely to adopt
//!   orphaned shards), and even there at most `shards - 1` rendezvous die
//!   for good;
//! - cut overlay links are always restored, and loss bursts always heal,
//!   before the settle window begins;
//! - subscriber kills may be permanent (a dead subscriber is simply removed
//!   from the delivery obligations), but at least half the subscribers
//!   survive so the probe wave still proves something.
//!
//! Anything the rules permit is fair game for the invariant checker in
//! [`crate::run`]: a clean sweep therefore means "no schedule inside the
//! contract breaks the invariants", and the canary self-test shows that a
//! schedule outside the *implementation's* actual behaviour is caught.

use crate::schedule::{Fault, FaultSchedule, StrategyKind, Target, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::{SimDuration, SimTime};
use ski_rental::Flavor;

/// Bounds for the generator; the CLI exposes these as flags so CI can run a
/// reduced sweep.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Largest subscriber population to draw (minimum population is 4).
    pub max_subscribers: usize,
    /// Largest publisher population to draw (minimum is 1).
    pub max_publishers: usize,
    /// Most fault intents per schedule (an intent may expand to a
    /// fault/recovery pair; minimum is 1).
    pub max_faults: usize,
    /// Convergence SLA stamped into every schedule. Must exceed the
    /// rebalancing plane's worst-case recovery (roughly 135 virtual seconds
    /// from kill to full adoption), or clean sweeps will flag schedules the
    /// deployment would in fact have recovered from.
    pub settle: SimDuration,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_subscribers: 12,
            max_publishers: 2,
            max_faults: 4,
            settle: SimDuration::from_secs(180),
        }
    }
}

/// Earliest fault instant: after the 30 s warm-up and the first event wave.
const WINDOW_START_S: u64 = 36;
/// Latest *initial* fault instant; recovery actions may land later.
const WINDOW_END_S: u64 = 96;

/// Generates the schedule for `seed` under the default bounds.
pub fn generate(seed: u64) -> FaultSchedule {
    generate_with(seed, &GenConfig::default())
}

/// Generates the schedule for `seed` under explicit bounds. Same seed, same
/// bounds → bit-identical schedule.
pub fn generate_with(seed: u64, cfg: &GenConfig) -> FaultSchedule {
    // Decorrelate from the simulation's own streams (the scenario is built
    // with the raw seed) without losing seed identity.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD57_FA017);

    // Two in ten schedules run a one-shard mesh (a single rendezvous tree),
    // four in ten a 2-4-shard one; only the latter draw a shard count.
    let strategy = rng.gen_range(0..10u32);
    let kind = match strategy {
        0..=1 => StrategyKind::DirectFanout,
        2..=7 => StrategyKind::RendezvousMesh,
        _ => StrategyKind::Gossip,
    };
    let flavor = if rng.gen_bool(0.7) {
        Flavor::SrTps
    } else {
        Flavor::JxtaWire
    };
    let shards = if (4..=7).contains(&strategy) {
        rng.gen_range(2..=4usize)
    } else {
        1
    };
    let publishers = rng.gen_range(1..=cfg.max_publishers.max(1));
    let subscribers = rng.gen_range(4..=cfg.max_subscribers.max(4));
    let topology = Topology {
        flavor,
        kind,
        shards,
        publishers,
        subscribers,
    };

    let mut faults: Vec<(SimTime, Fault)> = Vec::new();
    let mut killed_subs = 0usize;
    let mut permanent_rdv_kills = 0usize;
    let mut killed_rdv: Vec<usize> = Vec::new();
    let mut used_loss = false;
    let intents = rng.gen_range(1..=cfg.max_faults.max(1));
    for _ in 0..intents {
        let at = SimTime::from_secs(rng.gen_range(WINDOW_START_S..=WINDOW_END_S));
        match rng.gen_range(0..100u32) {
            // Permanent subscriber kill: drops that peer from the delivery
            // obligations, but never more than half the population.
            0..=29 => {
                if killed_subs < subscribers / 2 {
                    killed_subs += 1;
                    faults.push((at, Fault::Kill(Target::Sub(rng.gen_range(0..subscribers)))));
                }
            }
            // Rendezvous kill; permanent only where the adoption plane is
            // contractually obliged to cover for it.
            30..=54 => {
                let victim = rng.gen_range(0..shards);
                if killed_rdv.contains(&victim) {
                    continue;
                }
                killed_rdv.push(victim);
                faults.push((at, Fault::Kill(Target::Rdv(victim))));
                let mesh_can_adopt = kind == StrategyKind::RendezvousMesh && permanent_rdv_kills < shards - 1;
                if mesh_can_adopt && rng.gen_bool(0.5) {
                    permanent_rdv_kills += 1;
                } else {
                    let back = at + SimDuration::from_secs(rng.gen_range(10..=30u64));
                    faults.push((back, Fault::Revive(Target::Rdv(victim))));
                }
            }
            // Transient overlay cut between a subscriber and a rendezvous
            // (a no-op when that pair holds no lease — still a valid draw).
            55..=79 => {
                let sub = Target::Sub(rng.gen_range(0..subscribers));
                let rdv = Target::Rdv(rng.gen_range(0..shards));
                faults.push((at, Fault::Cut(sub, rdv)));
                let back = at + SimDuration::from_secs(rng.gen_range(5..=20u64));
                faults.push((back, Fault::Restore(sub, rdv)));
            }
            // One healed loss burst per schedule.
            _ => {
                if !used_loss {
                    used_loss = true;
                    faults.push((at, Fault::Loss(rng.gen_range(5..=30u32) as u8)));
                    let back = at + SimDuration::from_secs(rng.gen_range(5..=20u64));
                    faults.push((back, Fault::Heal));
                }
            }
        }
    }
    faults.sort_by_key(|&(t, _)| t);

    let schedule = FaultSchedule {
        seed,
        topology,
        settle: cfg.settle,
        faults,
    };
    debug_assert_eq!(schedule.validate(), Ok(()));
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_valid() {
        for seed in 0..200 {
            let a = generate(seed);
            let b = generate(seed);
            assert_eq!(a, b, "seed {seed} must generate identically");
            a.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
        assert_ne!(generate(1), generate(2), "different seeds diverge");
    }

    #[test]
    fn recoverability_rules_hold() {
        for seed in 0..300 {
            let s = generate(seed);
            let mut open_loss = 0i32;
            let mut open_cuts: Vec<(Target, Target)> = Vec::new();
            let mut dead_rdv: Vec<usize> = Vec::new();
            for &(_, fault) in &s.faults {
                match fault {
                    Fault::Kill(Target::Pub(_)) | Fault::Revive(Target::Pub(_)) => {
                        panic!("seed {seed}: publishers must never be touched")
                    }
                    Fault::Kill(Target::Rdv(i)) => dead_rdv.push(i),
                    Fault::Revive(Target::Rdv(i)) => {
                        dead_rdv.retain(|&d| d != i);
                    }
                    Fault::Cut(a, b) => open_cuts.push((a, b)),
                    Fault::Restore(a, b) => open_cuts.retain(|&pair| pair != (a, b)),
                    Fault::Loss(_) => open_loss += 1,
                    Fault::Heal => open_loss -= 1,
                    Fault::Kill(Target::Sub(_)) | Fault::Revive(Target::Sub(_)) => {}
                }
            }
            assert_eq!(open_loss, 0, "seed {seed}: loss bursts must heal");
            assert!(open_cuts.is_empty(), "seed {seed}: cuts must be restored");
            if s.topology.kind != StrategyKind::RendezvousMesh {
                assert!(
                    dead_rdv.is_empty(),
                    "seed {seed}: only the mesh may lose rendezvous permanently"
                );
            } else {
                assert!(
                    dead_rdv.len() < s.topology.shards,
                    "seed {seed}: at least one mesh rendezvous must survive"
                );
            }
        }
    }

    #[test]
    fn the_sweep_exercises_every_strategy() {
        let mut seen: Vec<StrategyKind> = Vec::new();
        let mut one_shard_mesh = false;
        for seed in 0..60 {
            let topology = generate(seed).topology;
            if !seen.contains(&topology.kind) {
                seen.push(topology.kind);
            }
            one_shard_mesh |= topology.kind == StrategyKind::RendezvousMesh && topology.shards == 1;
        }
        assert_eq!(
            seen.len(),
            StrategyKind::ALL.len(),
            "60 seeds cover all strategies"
        );
        assert!(one_shard_mesh, "60 seeds draw at least one one-shard mesh");
    }
}
