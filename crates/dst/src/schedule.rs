//! The fault-schedule script: a serializable description of one explorer
//! run — topology, fault timeline, convergence SLA — that round-trips
//! losslessly through [`fmt::Display`] and [`FromStr`].
//!
//! Every run of the explorer is a pure function of one [`FaultSchedule`], and
//! every schedule is a pure function of one seed, so a failure report is just
//! the schedule text plus the seed that produced it. Targets are
//! role-indexed (`rdv-1`, `pub-0`, `sub-3`) rather than raw simulation node
//! ids, which keeps a script valid while the minimizer shrinks the
//! population around it.
//!
//! # Script form
//!
//! ```text
//! dst-schedule v1
//! seed 42
//! flavor sr-tps
//! strategy rendezvous-mesh
//! shards 3
//! publishers 2
//! subscribers 8
//! settle 180s
//! at 40s kill rdv-2
//! at 55s loss 20%
//! at 63s heal
//! end
//! ```

use simnet::{SimDuration, SimTime};
use ski_rental::Flavor;
use std::fmt;
use std::str::FromStr;

pub use jxta::StrategyKind;

/// A role-indexed peer reference inside a schedule: rendezvous, publisher or
/// subscriber number `i` of the topology, independent of simulation node ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Target {
    /// Rendezvous peer `i` (shard `i` under the mesh strategy).
    Rdv(usize),
    /// Publisher `i`.
    Pub(usize),
    /// Subscriber `i`.
    Sub(usize),
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::Rdv(i) => write!(f, "rdv-{i}"),
            Target::Pub(i) => write!(f, "pub-{i}"),
            Target::Sub(i) => write!(f, "sub-{i}"),
        }
    }
}

impl FromStr for Target {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parse_index = |raw: &str| {
            raw.parse::<usize>()
                .map_err(|_| format!("'{s}' has a non-numeric index"))
        };
        if let Some(raw) = s.strip_prefix("rdv-") {
            parse_index(raw).map(Target::Rdv)
        } else if let Some(raw) = s.strip_prefix("pub-") {
            parse_index(raw).map(Target::Pub)
        } else if let Some(raw) = s.strip_prefix("sub-") {
            parse_index(raw).map(Target::Sub)
        } else {
            Err(format!("'{s}' is not a rdv-/pub-/sub- target"))
        }
    }
}

/// One scripted fault, in role-indexed terms. The runner lowers these onto
/// [`simnet::FaultAction`]s against the concrete node ids of the built
/// scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Shut the peer down; in-flight traffic to it is lost.
    Kill(Target),
    /// Bring a killed peer back (its `on_start` runs again).
    Revive(Target),
    /// Cut all delivery between two peers (overlay-link failure).
    Cut(Target, Target),
    /// Restore a cut pair.
    Restore(Target, Target),
    /// Start a LAN-wide loss burst of the given percentage (1..=100).
    Loss(u8),
    /// End the loss burst (restore the pristine LAN link).
    Heal,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Kill(t) => write!(f, "kill {t}"),
            Fault::Revive(t) => write!(f, "revive {t}"),
            Fault::Cut(a, b) => write!(f, "cut {a} {b}"),
            Fault::Restore(a, b) => write!(f, "restore {a} {b}"),
            Fault::Loss(pct) => write!(f, "loss {pct}%"),
            Fault::Heal => write!(f, "heal"),
        }
    }
}

impl FromStr for Fault {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut words = s.split_whitespace();
        let verb = words.next().ok_or("empty fault")?;
        let mut next = |what: &str| {
            words
                .next()
                .ok_or_else(|| format!("'{verb}' is missing its {what}"))
                .map(str::to_owned)
        };
        let fault = match verb {
            "kill" => Fault::Kill(next("target")?.parse()?),
            "revive" => Fault::Revive(next("target")?.parse()?),
            "cut" => Fault::Cut(next("first target")?.parse()?, next("second target")?.parse()?),
            "restore" => Fault::Restore(next("first target")?.parse()?, next("second target")?.parse()?),
            "loss" => {
                let raw = next("percentage")?;
                let pct: u8 = raw
                    .strip_suffix('%')
                    .ok_or_else(|| format!("loss '{raw}' needs a % suffix"))?
                    .parse()
                    .map_err(|_| format!("loss '{raw}' is not an integer percentage"))?;
                if pct == 0 || pct > 100 {
                    return Err(format!("loss {pct}% is outside 1..=100"));
                }
                Fault::Loss(pct)
            }
            "heal" => Fault::Heal,
            other => return Err(format!("unknown fault verb '{other}'")),
        };
        match words.next() {
            Some(extra) => Err(format!("trailing token '{extra}' after '{verb}'")),
            None => Ok(fault),
        }
    }
}

/// The population and strategy one schedule runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Which application flavour the edge peers run (`SR-TPS` or the bare
    /// `JXTA-WIRE` service; both carry the tracing plane).
    pub flavor: Flavor,
    /// The dissemination strategy under test.
    pub kind: StrategyKind,
    /// Rendezvous population: the shard count (at least 1) under
    /// [`StrategyKind::RendezvousMesh`], exactly 1 everywhere else.
    pub shards: usize,
    /// Publisher population (never killed — the probe wave needs them).
    pub publishers: usize,
    /// Subscriber population.
    pub subscribers: usize,
}

/// A complete, self-contained explorer run description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSchedule {
    /// The generator seed (also the simulation seed), kept in the script so
    /// a pasted schedule reproduces the run bit for bit.
    pub seed: u64,
    /// Population and strategy.
    pub topology: Topology,
    /// Convergence SLA: how long after the last fault the deployment gets to
    /// settle before the probe wave must be delivered exactly-once.
    pub settle: SimDuration,
    /// The fault timeline, sorted by instant (ties keep script order).
    pub faults: Vec<(SimTime, Fault)>,
}

impl FaultSchedule {
    /// The minimizer's size metric: scripted faults plus population. A
    /// minimized schedule must be strictly smaller under this metric.
    pub fn size(&self) -> usize {
        self.faults.len() + self.topology.publishers + self.topology.subscribers + self.topology.shards
    }

    /// The instant of the last scripted fault, if any.
    pub fn last_fault_at(&self) -> Option<SimTime> {
        self.faults.last().map(|&(t, _)| t)
    }

    /// Checks internal consistency: every target index in range, populations
    /// non-empty, shard count matching the strategy, fault times sorted.
    pub fn validate(&self) -> Result<(), String> {
        let t = &self.topology;
        if t.publishers == 0 || t.subscribers == 0 {
            return Err("topology needs at least one publisher and one subscriber".into());
        }
        if t.kind == StrategyKind::RendezvousMesh {
            if t.shards == 0 {
                return Err("rendezvous-mesh needs at least 1 shard".into());
            }
        } else if t.shards != 1 {
            return Err(format!("strategy {} runs exactly 1 rendezvous", t.kind.label()));
        }
        let check = |target: Target| match target {
            Target::Rdv(i) if i >= t.shards => Err(format!("rdv-{i} is outside 0..{}", t.shards)),
            Target::Pub(i) if i >= t.publishers => Err(format!("pub-{i} is outside 0..{}", t.publishers)),
            Target::Sub(i) if i >= t.subscribers => Err(format!("sub-{i} is outside 0..{}", t.subscribers)),
            _ => Ok(()),
        };
        for &(_, fault) in &self.faults {
            match fault {
                Fault::Kill(x) | Fault::Revive(x) => check(x)?,
                Fault::Cut(a, b) | Fault::Restore(a, b) => {
                    check(a)?;
                    check(b)?;
                }
                Fault::Loss(_) | Fault::Heal => {}
            }
        }
        if self.faults.windows(2).any(|w| w[0].0 > w[1].0) {
            return Err("fault timeline is not sorted by instant".into());
        }
        Ok(())
    }
}

fn flavor_token(flavor: Flavor) -> String {
    flavor.label().to_ascii_lowercase()
}

fn parse_flavor(token: &str) -> Result<Flavor, String> {
    Flavor::ALL
        .into_iter()
        .find(|f| flavor_token(*f) == token)
        .ok_or_else(|| format!("unknown flavor '{token}' (expected sr-tps, sr-jxta or jxta-wire)"))
}

impl fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "dst-schedule v1")?;
        writeln!(f, "seed {}", self.seed)?;
        writeln!(f, "flavor {}", flavor_token(self.topology.flavor))?;
        writeln!(f, "strategy {}", self.topology.kind.label())?;
        writeln!(f, "shards {}", self.topology.shards)?;
        writeln!(f, "publishers {}", self.topology.publishers)?;
        writeln!(f, "subscribers {}", self.topology.subscribers)?;
        writeln!(f, "settle {}", self.settle.to_compact_string())?;
        for &(when, fault) in &self.faults {
            writeln!(f, "at {} {}", when.to_compact_string(), fault)?;
        }
        writeln!(f, "end")
    }
}

impl FromStr for FaultSchedule {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut seed = None;
        let mut flavor = None;
        let mut kind = None;
        let mut shards = None;
        let mut publishers = None;
        let mut subscribers = None;
        let mut settle = None;
        let mut faults: Vec<(SimTime, Fault)> = Vec::new();
        let mut saw_header = false;
        let mut saw_end = false;

        for (index, raw) in s.lines().enumerate() {
            let line = raw.trim();
            let fail = |msg: String| format!("line {}: {msg}", index + 1);
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if saw_end {
                return Err(fail(format!("unexpected '{line}' after 'end'")));
            }
            if !saw_header {
                if line != "dst-schedule v1" {
                    return Err(fail("a schedule must start with 'dst-schedule v1'".into()));
                }
                saw_header = true;
                continue;
            }
            if line == "end" {
                saw_end = true;
                continue;
            }
            if let Some(rest) = line.strip_prefix("at ") {
                let (when, fault) = rest
                    .trim()
                    .split_once(' ')
                    .ok_or_else(|| fail("missing fault after the time".into()))?;
                let when: SimTime = when.parse().map_err(fail)?;
                if faults.last().is_some_and(|&(prev, _)| prev > when) {
                    return Err(fail("fault timeline must be sorted by instant".into()));
                }
                faults.push((when, fault.parse().map_err(fail)?));
                continue;
            }
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| fail(format!("expected '<key> <value>', got '{line}'")))?;
            let value = value.trim();
            let parse_count = |what: &str| {
                value
                    .parse::<usize>()
                    .map_err(|_| fail(format!("{what} '{value}' is not a count")))
            };
            match key {
                "seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| fail(format!("seed '{value}' is not a u64")))?,
                    );
                }
                "flavor" => flavor = Some(parse_flavor(value).map_err(fail)?),
                "strategy" => kind = Some(value.parse::<StrategyKind>().map_err(fail)?),
                "shards" => shards = Some(parse_count("shards")?),
                "publishers" => publishers = Some(parse_count("publishers")?),
                "subscribers" => subscribers = Some(parse_count("subscribers")?),
                "settle" => settle = Some(value.parse::<SimDuration>().map_err(fail)?),
                other => return Err(fail(format!("unknown key '{other}'"))),
            }
        }

        if !saw_header {
            return Err("empty schedule (missing 'dst-schedule v1' header)".into());
        }
        if !saw_end {
            return Err("schedule is missing its 'end' line".into());
        }
        let missing = |what: &str| format!("schedule is missing its '{what}' line");
        let schedule = FaultSchedule {
            seed: seed.ok_or_else(|| missing("seed"))?,
            topology: Topology {
                flavor: flavor.ok_or_else(|| missing("flavor"))?,
                kind: kind.ok_or_else(|| missing("strategy"))?,
                shards: shards.ok_or_else(|| missing("shards"))?,
                publishers: publishers.ok_or_else(|| missing("publishers"))?,
                subscribers: subscribers.ok_or_else(|| missing("subscribers"))?,
            },
            settle: settle.ok_or_else(|| missing("settle"))?,
            faults,
        };
        schedule.validate()?;
        Ok(schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FaultSchedule {
        FaultSchedule {
            seed: 42,
            topology: Topology {
                flavor: Flavor::SrTps,
                kind: StrategyKind::RendezvousMesh,
                shards: 3,
                publishers: 2,
                subscribers: 8,
            },
            settle: SimDuration::from_secs(180),
            faults: vec![
                (SimTime::from_secs(40), Fault::Kill(Target::Rdv(2))),
                (SimTime::from_secs(55), Fault::Loss(20)),
                (SimTime::from_secs(63), Fault::Heal),
                (SimTime::from_secs(70), Fault::Cut(Target::Sub(3), Target::Rdv(0))),
                (
                    SimTime::from_secs(80),
                    Fault::Restore(Target::Sub(3), Target::Rdv(0)),
                ),
            ],
        }
    }

    #[test]
    fn display_and_fromstr_are_a_fixpoint() {
        let schedule = sample();
        let text = schedule.to_string();
        assert!(text.starts_with("dst-schedule v1\nseed 42\n"), "{text}");
        assert!(text.contains("at 40s kill rdv-2\n"), "{text}");
        assert!(text.contains("at 55s loss 20%\n"), "{text}");
        let reparsed: FaultSchedule = text.parse().expect("schedule parses back");
        assert_eq!(reparsed, schedule);
        assert_eq!(reparsed.to_string(), text);

        // A one-shard mesh: a single rendezvous tree.
        let mut lone = sample();
        lone.topology.shards = 1;
        lone.faults = vec![(SimTime::from_secs(40), Fault::Kill(Target::Rdv(0)))];
        let text = lone.to_string();
        assert!(text.contains("strategy rendezvous-mesh\nshards 1\n"), "{text}");
        let reparsed: FaultSchedule = text.parse().expect("one-shard schedule parses back");
        assert_eq!(reparsed, lone);
        assert_eq!(reparsed.to_string(), text);
    }

    #[test]
    fn comments_and_blank_lines_are_tolerated() {
        let text = format!("# minimized from seed 42\n\n{}", sample());
        let reparsed: FaultSchedule = text.parse().expect("commented schedule parses");
        assert_eq!(reparsed, sample());
    }

    #[test]
    fn malformed_schedules_are_rejected_with_line_numbers() {
        let cases = [
            ("seed 1\nend\n", "dst-schedule"),
            ("dst-schedule v1\nend\n", "missing"),
            ("dst-schedule v1\nseed x\nend\n", "line 2"),
            ("dst-schedule v1\nseed 1\nflavor tps\nend\n", "line 3"),
        ];
        for (text, expected) in cases {
            let err = text.parse::<FaultSchedule>().unwrap_err();
            assert!(
                err.contains(expected) || err.contains("missing"),
                "'{text}' should fail mentioning '{expected}', got: {err}"
            );
        }
    }

    #[test]
    fn validation_catches_out_of_range_targets_and_shard_mismatches() {
        let mut bad = sample();
        bad.faults
            .push((SimTime::from_secs(90), Fault::Kill(Target::Sub(8))));
        assert!(bad.validate().unwrap_err().contains("sub-8"));

        let mut wrong_shards = sample();
        wrong_shards.topology.kind = StrategyKind::DirectFanout;
        assert!(wrong_shards.validate().unwrap_err().contains("exactly 1"));
        let mut no_shards = sample();
        no_shards.topology.shards = 0;
        no_shards.faults.clear();
        assert!(no_shards.validate().unwrap_err().contains("at least 1 shard"));

        let mut unsorted = sample();
        unsorted.faults.swap(0, 1);
        assert!(unsorted.validate().unwrap_err().contains("sorted"));
    }

    #[test]
    fn size_counts_faults_and_population() {
        assert_eq!(sample().size(), 5 + 2 + 8 + 3);
    }
}
