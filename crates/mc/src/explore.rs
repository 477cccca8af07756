//! Breadth-first state-space search with dedup, and counterexample replay.

use std::collections::{HashSet, VecDeque};

use crate::scenario::Scenario;
use crate::world::{Action, Violation, World};

/// What one bounded exploration did and found.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckReport {
    /// States expanded (dequeued and had their successors generated).
    pub states_explored: u64,
    /// Distinct protocol states seen (size of the dedup table).
    pub distinct_states: u64,
    /// Invariant evaluations performed (one full pass per transition).
    pub invariant_checks: u64,
    /// Terminal states reached (wire empty, nothing unacked).
    pub terminal_states: u64,
    /// Deepest action path examined.
    pub max_depth_seen: usize,
    /// `true` if a depth or state bound cut the search short.
    pub truncated: bool,
    /// The first (minimal, by breadth-first order) violation found.
    pub violation: Option<Counterexample>,
}

impl CheckReport {
    /// `true` when the search found no violation.
    pub fn passed(&self) -> bool {
        self.violation.is_none()
    }
}

/// A violation plus the exact action sequence that reaches it from the
/// initial state. Breadth-first search guarantees no shorter sequence
/// reaches any violation, so the trace is minimal.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    /// The contract that failed.
    pub violation: Violation,
    /// The action path from the initial state, replayable with
    /// [`replay`].
    pub actions: Vec<Action>,
    /// A human-readable rendering of the trace, one line per action.
    pub rendered: String,
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "violation: {}", self.violation)?;
        write!(f, "{}", self.rendered)
    }
}

/// What replaying an action sequence observed.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// The first violation hit, if any (including a livelock cycle — a
    /// replay that revisits one of its own states).
    pub violation: Option<Violation>,
    /// Human-readable rendering of the replayed trace.
    pub rendered: String,
    /// Whether the final state is terminal.
    pub terminal: bool,
}

/// Exhaustively explores `scenario` breadth-first up to its bounds,
/// checking every invariant after every transition. Deterministic: same
/// scenario, same report.
pub fn check(scenario: &Scenario) -> CheckReport {
    let mut report = CheckReport {
        states_explored: 0,
        distinct_states: 0,
        invariant_checks: 0,
        terminal_states: 0,
        max_depth_seen: 0,
        truncated: false,
        violation: None,
    };
    let counterexample = |actions: Vec<Action>, v: Violation| {
        let rendered = render(scenario, &actions);
        Counterexample {
            violation: v,
            actions,
            rendered,
        }
    };

    let root = World::new(scenario);
    report.invariant_checks += 1;
    if let Some(v) = root.check_invariants(scenario) {
        report.violation = Some(counterexample(Vec::new(), v));
        return report;
    }
    let mut visited: HashSet<u128> = HashSet::new();
    visited.insert(root.digest(scenario));
    report.distinct_states = 1;
    if root.is_terminal() {
        report.terminal_states += 1;
        if let Some(v) = root.check_terminal(scenario) {
            report.violation = Some(counterexample(Vec::new(), v));
        }
        return report;
    }

    let mut queue: VecDeque<Vec<Action>> = VecDeque::new();
    queue.push_back(Vec::new());
    'search: while let Some(path) = queue.pop_front() {
        report.states_explored += 1;
        report.max_depth_seen = report.max_depth_seen.max(path.len());
        if path.len() >= scenario.max_depth {
            report.truncated = true;
            continue;
        }
        // One replay to enumerate this state's successors and collect the
        // digests of every state along the path (for cycle detection).
        let (world, ancestors) = rebuild(scenario, &path);
        for action in world.enabled(scenario) {
            let (mut w, _) = rebuild(scenario, &path);
            let trace = || {
                let mut t = path.clone();
                t.push(action);
                t
            };
            if let Err(v) = w.apply(&action, scenario) {
                report.invariant_checks += 1;
                report.violation = Some(counterexample(trace(), v));
                break 'search;
            }
            report.invariant_checks += 1;
            if let Some(v) = w.check_invariants(scenario) {
                report.violation = Some(counterexample(trace(), v));
                break 'search;
            }
            let d = w.digest(scenario);
            if let Some(pos) = ancestors.iter().position(|&a| a == d) {
                let v = Violation::Livelock {
                    cycle_len: path.len() + 1 - pos,
                };
                report.violation = Some(counterexample(trace(), v));
                break 'search;
            }
            let terminal = w.is_terminal();
            if terminal {
                report.terminal_states += 1;
                if let Some(v) = w.check_terminal(scenario) {
                    report.violation = Some(counterexample(trace(), v));
                    break 'search;
                }
            }
            if visited.insert(d) {
                report.distinct_states += 1;
                if !terminal {
                    queue.push_back(trace());
                }
            }
            if visited.len() >= scenario.max_states {
                report.truncated = true;
                break 'search;
            }
        }
    }

    if report.violation.is_none() && !report.truncated && report.terminal_states == 0 {
        // the search closed without ever finding a state from which the
        // protocol can rest: every execution spins forever
        report.violation = Some(counterexample(Vec::new(), Violation::NoTerminalState));
    }
    report
}

/// Replays an action sequence from the initial state, re-checking every
/// invariant (and the ancestor-cycle livelock check) at each step. This is
/// how a checker-found counterexample becomes an ordinary regression test.
///
/// # Panics
/// Panics if the sequence references a frame that is not in flight — i.e.
/// the trace does not belong to this scenario.
pub fn replay(scenario: &Scenario, actions: &[Action]) -> ReplayOutcome {
    let mut world = World::new(scenario);
    let mut rendered = String::new();
    let mut digests = vec![world.digest(scenario)];
    if let Some(v) = world.check_invariants(scenario) {
        return ReplayOutcome {
            violation: Some(v),
            rendered,
            terminal: world.is_terminal(),
        };
    }
    for (i, action) in actions.iter().enumerate() {
        let step = match world.apply(action, scenario) {
            Ok(desc) => desc,
            Err(v) => {
                rendered.push_str(&format!(
                    "{:>3}. {} !! {v}\n",
                    i + 1,
                    describe_plain(action)
                ));
                return ReplayOutcome {
                    violation: Some(v),
                    rendered,
                    terminal: false,
                };
            }
        };
        rendered.push_str(&format!("{:>3}. {step}\n", i + 1));
        if let Some(v) = world.check_invariants(scenario) {
            rendered.push_str(&format!("     !! {v}\n"));
            return ReplayOutcome {
                violation: Some(v),
                rendered,
                terminal: false,
            };
        }
        let d = world.digest(scenario);
        if let Some(pos) = digests.iter().position(|&a| a == d) {
            let v = Violation::Livelock {
                cycle_len: i + 1 - pos,
            };
            rendered.push_str(&format!("     !! {v}\n"));
            return ReplayOutcome {
                violation: Some(v),
                rendered,
                terminal: false,
            };
        }
        digests.push(d);
    }
    let terminal = world.is_terminal();
    let violation = if terminal {
        world.check_terminal(scenario)
    } else {
        None
    };
    if let Some(v) = &violation {
        rendered.push_str(&format!("     !! {v}\n"));
    }
    ReplayOutcome {
        violation,
        rendered,
        terminal,
    }
}

/// Rebuilds the world at the end of `path`, returning it together with the
/// digest of every state along the way (initial state first). The prefix
/// was validated when it was first enqueued, so violations here are
/// checker bugs.
fn rebuild(scenario: &Scenario, path: &[Action]) -> (World, Vec<u128>) {
    let mut world = World::new(scenario);
    let mut digests = vec![world.digest(scenario)];
    for action in path {
        world
            .apply(action, scenario)
            .expect("validated prefix must replay cleanly");
        digests.push(world.digest(scenario));
    }
    (world, digests)
}

/// Renders an action path as a numbered trace (used for counterexamples).
fn render(scenario: &Scenario, actions: &[Action]) -> String {
    let mut world = World::new(scenario);
    let mut out = String::new();
    for (i, action) in actions.iter().enumerate() {
        match world.apply(action, scenario) {
            Ok(desc) => out.push_str(&format!("{:>3}. {desc}\n", i + 1)),
            Err(v) => {
                out.push_str(&format!(
                    "{:>3}. {} !! {v}\n",
                    i + 1,
                    describe_plain(action)
                ));
                break;
            }
        }
    }
    out
}

fn describe_plain(a: &Action) -> String {
    match a {
        Action::Deliver { uid } => format!("deliver frame {uid}"),
        Action::DeliverBatch { dst } => format!("deliver batch to r{dst}"),
        Action::Drop { uid } => format!("drop frame {uid}"),
        Action::Duplicate { uid } => format!("duplicate frame {uid}"),
        Action::Tick => "tick".to_string(),
    }
}
