//! The planner: the analytic search and the [`Plan`] handed to the
//! simulator or the threaded runtime.

use std::sync::Arc;

use sbc_obs::{Counter, Metrics};
use sbc_simgrid::{Platform, SimConfig, SimReport, Simulator};
use sbc_taskgraph::TaskGraph;
use sbc_topo::Topology;

use crate::cache::PlanCache;
use crate::candidates::{enumerate, DistChoice, Op};
use crate::model::{CostBreakdown, CostModel};

/// Tunables of the planner.
#[derive(Debug, Clone, Copy)]
pub struct PlannerConfig {
    /// Maximum number of memoized plans (strict bound).
    pub cache_capacity: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            cache_capacity: 256,
        }
    }
}

/// The planner's answer: a distribution choice and the model's reasoning.
/// How to schedule it is not part of a plan: every front end defaults to the
/// paper's Chameleon configuration (asynchronous, critical-path ranks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Operation planned for.
    pub op: Op,
    /// Matrix size in tiles.
    pub nt: usize,
    /// Tile dimension.
    pub b: usize,
    /// The selected distribution.
    pub choice: DistChoice,
    /// The analytic score that won the search.
    pub cost: CostBreakdown,
    /// `true` when this plan came from the cache rather than a search.
    pub cached: bool,
}

impl Plan {
    /// The shared task graph executing this plan (`DistChoice::graph`).
    pub fn graph(&self) -> Arc<TaskGraph> {
        self.choice.graph(self.op, self.nt)
    }

    /// Simulator configuration for this plan's tile size.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig::chameleon(self.b)
    }
}

/// Distribution autotuner: enumerate, score, memoize.
pub struct Planner {
    model: CostModel,
    config: PlannerConfig,
    cache: PlanCache,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
}

impl Planner {
    /// Planner over `platform` with the default [`PlannerConfig`].
    pub fn new(platform: Platform) -> Self {
        Self::with_config(platform, PlannerConfig::default())
    }

    /// Planner over `platform` with explicit tunables.
    pub fn with_config(platform: Platform, config: PlannerConfig) -> Self {
        Planner {
            cache: PlanCache::new(config.cache_capacity),
            model: CostModel::new(platform),
            config,
            cache_hits: Arc::new(Counter::default()),
            cache_misses: Arc::new(Counter::default()),
        }
    }

    /// Makes the planner topology-aware: candidates are priced over
    /// `topology`'s routes (rack-crossing traffic pays the oversubscribed
    /// uplink) and [`Planner::simulate`] runs over it. The cache starts empty,
    /// so a plan priced over the platform's single switch is never served.
    ///
    /// # Panics
    /// Panics if the topology has fewer hosts than the platform has nodes.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.model = self.model.with_topology(Arc::new(topology));
        self.cache = PlanCache::new(self.config.cache_capacity);
        self
    }

    /// Publishes this planner's cache traffic as `planner.cache.hit` /
    /// `planner.cache.miss` counters in `metrics`. A resident service calls
    /// this once at startup so every job's planning cost is observable.
    pub fn with_metrics(mut self, metrics: &Metrics) -> Self {
        self.cache_hits = metrics.counter("planner.cache.hit");
        self.cache_misses = metrics.counter("planner.cache.miss");
        self
    }

    /// Cache hits served since construction (or metrics attachment).
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.get()
    }

    /// Cache misses (full searches) since construction.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.get()
    }

    /// The platform being planned for.
    pub(crate) fn platform(&self) -> &Platform {
        self.model.platform()
    }

    /// The plan cache (exposed for inspection in tests and benches).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Plans `op` on an `nt x nt` tile matrix with tile size `b`, serving
    /// a memoized plan when one exists (`plan.cached` tells which).
    pub fn plan(&self, op: Op, nt: usize, b: usize) -> Plan {
        let entry = self.cache.entry((op, nt, b));
        let mut searched = false;
        let mut plan = *entry.get_or_init(|| {
            searched = true;
            self.plan_uncached(op, nt, b)
        });
        if searched {
            self.cache_misses.inc();
        } else {
            self.cache_hits.inc();
            plan.cached = true;
        }
        plan
    }

    /// [`Planner::plan`] plus the task graph executing the plan, from the
    /// process-wide graph memo: built once per placement and shared by
    /// every caller.
    pub fn plan_with_graph(&self, op: Op, nt: usize, b: usize) -> (Plan, Arc<TaskGraph>) {
        let plan = self.plan(op, nt, b);
        (plan, plan.graph())
    }

    /// The cold path: the full candidate search, bypassing the cache.
    pub fn plan_uncached(&self, op: Op, nt: usize, b: usize) -> Plan {
        let Some(&(choice, cost)) = self.scored_candidates(op, nt, b).first() else {
            panic!(
                "no feasible distribution for {} nodes",
                self.platform().nodes
            );
        };
        Plan {
            op,
            nt,
            b,
            choice,
            cost,
            cached: false,
        }
    }

    /// Every feasible candidate with its analytic score, best first.
    pub fn scored_candidates(
        &self,
        op: Op,
        nt: usize,
        b: usize,
    ) -> Vec<(DistChoice, CostBreakdown)> {
        let mut scored: Vec<_> = enumerate(op, self.platform().nodes)
            .into_iter()
            .map(|c| (c, self.model.score(c, op, nt, b)))
            .collect();
        scored.sort_by(|a, b| a.1.rank(&b.1));
        scored
    }

    /// Discrete-event simulation of one candidate in the paper's Chameleon
    /// configuration, on a platform shrunk to the nodes it uses and over
    /// the topology this planner prices (the platform's single switch unless
    /// [`Planner::with_topology`] set one). The graph is the memo's.
    pub fn simulate(&self, choice: DistChoice, op: Op, nt: usize, b: usize) -> SimReport {
        let graph = choice.graph(op, nt);
        let mut platform = self.platform().clone();
        platform.nodes = choice.nodes_used();
        let topology = self.model.topology();
        Simulator::with_topology(&graph, &platform, SimConfig::chameleon(b), topology).run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_memoized() {
        let planner = Planner::new(Platform::bora(15));
        let first = planner.plan(Op::Potrf, 20, 500);
        assert!(!first.cached);
        let second = planner.plan(Op::Potrf, 20, 500);
        assert!(second.cached);
        assert_eq!(first.choice, second.choice);
        assert_eq!(planner.cache().len(), 1);
    }

    #[test]
    fn cache_traffic_is_counted_in_the_metrics_registry() {
        let metrics = Metrics::new();
        let planner = Planner::new(Platform::bora(8)).with_metrics(&metrics);
        planner.plan(Op::Potrf, 12, 8);
        planner.plan(Op::Potrf, 12, 8);
        planner.plan(Op::Potrf, 16, 8);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("planner.cache.hit"), Some(1));
        assert_eq!(snap.counter("planner.cache.miss"), Some(2));
        assert_eq!(planner.cache_hits(), 1);
        assert_eq!(planner.cache_misses(), 2);
    }

    #[test]
    fn topology_aware_plans_cache_separately_from_flat() {
        let p = Platform::bora(10);
        let flat = Planner::new(p.clone());
        let a = flat.plan(Op::Potrf, 20, 500);
        // a flat plan does not survive the planner becoming rack-aware
        let racks = flat.with_topology(p.rack_topology(2, 16.0));
        assert!(racks.cache().is_empty());
        let b = racks.plan(Op::Potrf, 20, 500);
        assert!(!a.cached && !b.cached);
        // the rack-aware score carries the boundary term
        assert!(b.cost.cross_boundary_seconds >= 0.0);
        assert_eq!(racks.model.topology().hosts(), 10);
        // the rack-aware planner simulates over its racks
        let sim = racks.simulate(b.choice, Op::Potrf, 20, 500);
        assert_eq!(sim.tasks_executed as usize, b.graph().len());
    }

    /// A planner over an explicit single switch plans every operation
    /// exactly as the default one, which prices over the same switch.
    #[test]
    fn single_switch_plans_like_the_flat_model() {
        for p in [4, 6, 8, 10] {
            let platform = Platform::bora(p);
            let flat = Planner::new(platform.clone());
            let single =
                Planner::new(platform.clone()).with_topology(platform.single_switch_topology());
            for nt in [8, 12] {
                for op in Op::ALL {
                    for b in [128, 500] {
                        let (a, z) = (flat.plan(op, nt, b), single.plan(op, nt, b));
                        assert_eq!(a, z, "P={p} {op:?} nt={nt} b={b}");
                        let (x, y) = (a.cost.total_seconds, z.cost.total_seconds);
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
            }
        }
    }

    /// The plan's message count is what its graph sends, for every
    /// operation.
    #[test]
    fn plan_graph_matches_choice() {
        let planner = Planner::new(Platform::bora(6));
        for op in Op::ALL {
            let plan = planner.plan(op, 8, 320);
            let g = plan.graph();
            assert_eq!(plan.cost.messages, g.count_messages(), "{op:?}");
            assert_eq!(plan.sim_config().tile_b, 320);
        }
    }
}
