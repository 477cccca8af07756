//! What to check: a bounded protocol workload plus a loss model.

use std::time::Duration;

use sbc_dist::comm::potrf_messages;
use sbc_dist::Distribution;
use sbc_net::{FaultConfig, NodeId, SessionConfig};

/// How the modeled network may misbehave.
///
/// `Clean` and `Nondet` put the *checker* in charge of faults: dropping and
/// duplicating become explicit, budgeted actions so every fault placement
/// is explored. `Periodic` and `Seeded` instead replay the two
/// deterministic gates the chaos transport has shipped — the strictly
/// periodic pre-fix filter and the splitmix fair-loss filter — applied at
/// network entry, so the checker can prove one livelocks and the other
/// does not.
#[derive(Debug, Clone, PartialEq)]
pub enum LossModel {
    /// A faithful FIFO network: the only nondeterminism is interleaving.
    Clean,
    /// Adversarial faults under explicit budgets. Each in-flight payload
    /// frame may be dropped (at most `max_drops` times per execution) or
    /// duplicated (at most `max_dups`); with `reorder`, frames on a
    /// channel may also be delivered in any order rather than FIFO.
    Nondet {
        /// Upper bound on checker-injected drops per execution.
        max_drops: u32,
        /// Upper bound on checker-injected duplicates per execution.
        max_dups: u32,
        /// Allow out-of-order delivery within a channel.
        reorder: bool,
    },
    /// The pre-fix strictly periodic drop gate: payload frame number `k`
    /// (a per-sender counter offset by `phase`) is censored whenever
    /// `k % drop_every == 0`. This is the filter that phase-locked with
    /// fixed retransmission batches and censored the same payload forever.
    Periodic {
        /// Censor every `drop_every`-th payload frame.
        drop_every: u64,
        /// Counter offset, to aim the gate at a particular frame.
        phase: u64,
    },
    /// The shipped fair-loss gate: [`FaultConfig::decide`] on the same
    /// per-sender counter, i.e. exactly what `Faulty` injects in the chaos
    /// suite (the `delay` field is ignored — the checker has no wall
    /// clock).
    Seeded(FaultConfig),
}

impl LossModel {
    /// Whether delivery order within a channel is adversarial.
    pub(crate) fn reorder(&self) -> bool {
        matches!(self, LossModel::Nondet { reorder: true, .. })
    }
}

/// A bounded model-checking problem: the mesh, the scripted payload sends,
/// the session configuration, the loss model, and the search bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Number of ranks in the modeled mesh.
    pub peers: usize,
    /// The scripted payload sends, issued in order before exploration
    /// starts. Payload `i` of the script carries producer id `i`, so the
    /// checker can recognize every delivery.
    pub sends: Vec<(NodeId, NodeId)>,
    /// Tile dimension of each payload (bytes per payload = `dim² · 8`).
    pub tile_dim: usize,
    /// Session tuning. `linger` is forcibly zeroed by the checker: a
    /// virtual clock never reaches a drain deadline, so a lingering drop
    /// would hang.
    pub session: SessionConfig,
    /// The loss model to explore under.
    pub loss: LossModel,
    /// Maximum action-path depth before a branch is truncated.
    pub max_depth: usize,
    /// Maximum number of distinct states before the search is truncated.
    pub max_states: usize,
}

impl Scenario {
    /// A scenario with an explicit send script and checker-friendly
    /// defaults: 2×2 tiles, a small reorder window, 10 ms virtual RTO with
    /// a 40 ms backoff cap, `Clean` loss, depth 40, 100 000 states.
    pub fn scripted(peers: usize, sends: &[(NodeId, NodeId)]) -> Self {
        for &(s, d) in sends {
            assert!((s as usize) < peers && (d as usize) < peers && s != d);
        }
        Scenario {
            peers,
            sends: sends.to_vec(),
            tile_dim: 2,
            session: SessionConfig {
                rto: Duration::from_millis(10),
                backoff_cap: Duration::from_millis(40),
                linger: Duration::ZERO,
                window: 4,
            },
            loss: LossModel::Clean,
            max_depth: 40,
            max_states: 100_000,
        }
    }

    /// The send script of one tiled Cholesky factorization (Algorithm 1)
    /// under `dist`: every producer-to-consumer tile message of
    /// [`potrf_messages`], in a deterministic order, so the checker
    /// exercises the protocol on the paper's actual traffic pattern. The
    /// script length equals the analytic message count by construction.
    pub fn potrf<D: Distribution>(dist: &D, nt: usize) -> Self {
        let mut sends = Vec::new();
        for i in 0..nt {
            let owner = dist.owner(i, i);
            let mut dests: Vec<NodeId> = Vec::new();
            for j in i + 1..nt {
                push_unique(&mut dests, dist.owner(j, i) as NodeId);
            }
            for d in dests.drain(..) {
                if d != owner as NodeId {
                    sends.push((owner as NodeId, d));
                }
            }
            for j in i + 1..nt {
                let owner = dist.owner(j, i);
                push_unique(&mut dests, dist.owner(j, j) as NodeId);
                for k in i + 1..j {
                    push_unique(&mut dests, dist.owner(j, k) as NodeId);
                }
                for j2 in j + 1..nt {
                    push_unique(&mut dests, dist.owner(j2, j) as NodeId);
                }
                for d in dests.drain(..) {
                    if d != owner as NodeId {
                        sends.push((owner as NodeId, d));
                    }
                }
            }
        }
        assert_eq!(
            sends.len() as u64,
            potrf_messages(dist, nt),
            "derived send script must match the analytic message count"
        );
        Scenario::scripted(dist.num_nodes(), &sends)
    }

    /// Replaces the loss model.
    pub fn loss(mut self, loss: LossModel) -> Self {
        self.loss = loss;
        self
    }

    /// Replaces the search depth bound.
    pub fn depth(mut self, max_depth: usize) -> Self {
        self.max_depth = max_depth;
        self
    }

    /// Replaces the distinct-state bound.
    pub fn states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Replaces the session reorder window.
    pub fn window(mut self, window: u64) -> Self {
        self.session.window = window;
        self
    }

    /// Scripted sends originating at `rank`.
    pub(crate) fn sends_from(&self, rank: NodeId) -> u64 {
        self.sends.iter().filter(|&&(s, _)| s == rank).count() as u64
    }

    /// Bytes of one payload under this scenario's tile dimension.
    pub(crate) fn payload_bytes(&self) -> u64 {
        let d = self.tile_dim as u64;
        d * d * 8
    }
}

fn push_unique(v: &mut Vec<NodeId>, n: NodeId) {
    if !v.contains(&n) {
        v.push(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_dist::{SbcExtended, TwoDBlockCyclic};

    #[test]
    fn potrf_script_matches_analytic_count_for_both_distributions() {
        for nt in [2, 3, 4, 6] {
            let s = Scenario::potrf(&TwoDBlockCyclic::new(1, 2), nt);
            assert_eq!(
                s.sends.len() as u64,
                potrf_messages(&TwoDBlockCyclic::new(1, 2), nt)
            );
            let s = Scenario::potrf(&SbcExtended::new(3), nt);
            assert_eq!(
                s.sends.len() as u64,
                potrf_messages(&SbcExtended::new(3), nt)
            );
        }
    }

    #[test]
    #[should_panic]
    fn self_sends_are_rejected() {
        Scenario::scripted(2, &[(0, 0)]);
    }
}
