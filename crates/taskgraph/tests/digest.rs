//! The graphs did not change: a 64-bit FNV-1a digest of every builder's
//! output, computed with the `HashMap`-keyed builder of PR 19 and pinned here
//! before the builder was moved onto [`TileSpace`] slots — plus the
//! properties of the numbering itself.

use sbc_dist::{RowCyclic, SbcBasic, SbcExtended, TwoDBlockCyclic, TwoPointFiveD};
use sbc_taskgraph::{
    build_lauum, build_lu, build_posv, build_potrf, build_potrf_25d, build_potri,
    build_potri_remap, build_trtri, EdgeKind, TaskGraph, TaskId, TileRef, TileSpace,
};
use std::collections::HashSet;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn word(&mut self, w: u32) {
        self.bytes(&w.to_le_bytes());
    }
    fn edges(&mut self, edges: impl Iterator<Item = (TaskId, EdgeKind)>) {
        let mut n = 0;
        for (t, kind) in edges {
            self.word(t);
            self.word((kind == EdgeKind::Ordering) as u32);
            n += 1;
        }
        self.word(n);
    }
}

/// Tasks, predecessor lists with edge kinds in stored order, successor
/// lists and initial fetches. Fetches that tie on the builder's own sort key
/// `(home, dest, first consumer)` are ordered here by tile, so the digest
/// does not depend on how the builder breaks that tie.
fn digest(g: &TaskGraph) -> u64 {
    let mut h = Fnv::new();
    h.word(g.len() as u32);
    h.word(g.num_nodes() as u32);
    h.word(g.nt as u32);
    h.word(g.slices as u32);
    h.bytes(format!("{:?}", g.result).as_bytes());
    for (t, task) in g.tasks().iter().enumerate() {
        h.bytes(format!("{task:?}").as_bytes());
        h.edges(g.preds(t as TaskId));
        h.edges(g.succs(t as TaskId));
    }
    let mut fetches: Vec<_> = g
        .initial_fetches()
        .iter()
        .map(|f| (f.home, f.dest, f.consumers.clone(), format!("{:?}", f.tile)))
        .collect();
    fetches.sort();
    h.word(fetches.len() as u32);
    for (home, dest, consumers, tile) in fetches {
        h.word(home);
        h.word(dest);
        h.bytes(tile.as_bytes());
        h.word(consumers.len() as u32);
        for c in consumers {
            h.word(c);
        }
    }
    h.0
}

/// All eight builders at `nt`: SBC r = 4 (6 nodes), 2DBC 3x2, 2.5D c = 3
/// and the SBC -> 2DBC remap.
fn graphs(nt: usize) -> Vec<(&'static str, TaskGraph)> {
    let sbc = SbcExtended::new(4);
    let bc = TwoDBlockCyclic::new(3, 2);
    let rhs = RowCyclic::new(6);
    let d25 = TwoPointFiveD::new(SbcBasic::new(4), 3);
    vec![
        ("potrf", build_potrf(&sbc, nt)),
        ("potrf_25d", build_potrf_25d(&d25, nt)),
        ("posv", build_posv(&sbc, &rhs, nt)),
        ("trtri", build_trtri(&bc, nt)),
        ("lauum", build_lauum(&bc, nt)),
        ("potri", build_potri(&sbc, nt)),
        ("lu", build_lu(&bc, nt)),
        ("potri_remap", build_potri_remap(&sbc, &bc, nt)),
    ]
}

/// Computed at commit 80cb794 (PR 19), builder order as in [`graphs`].
const PINNED: [(usize, [u64; 8]); 2] = [
    (
        5,
        [
            0x394cac52c956746f,
            0x7bcdb8a62c12fd62,
            0xc72f2961f70b800d,
            0x682c26fca63abb23,
            0x421d42ecc962d8c8,
            0x2ffa815fb84a25c3,
            0xe5af7ca24ebaf2db,
            0xec1494b6d159b798,
        ],
    ),
    (
        12,
        [
            0xe907cd83062fa781,
            0x237698a9ea287c8c,
            0xaca9183ddc384138,
            0x3de8821bc9630861,
            0x89b10896db1c9dd3,
            0x5ff4559435ecafaf,
            0x42f406751ba7c307,
            0xed30ed50ca5fd59f,
        ],
    ),
];

#[test]
fn every_builder_produces_the_graph_it_produced_before_tile_slots() {
    for (nt, expected) in PINNED {
        let got: Vec<u64> = graphs(nt).iter().map(|(_, g)| digest(g)).collect();
        let names: Vec<&str> = graphs(nt).iter().map(|(name, _)| *name).collect();
        assert_eq!(
            got, expected,
            "nt = {nt}, builders {names:?}: digests {got:#018x?}"
        );
    }
}

/// Every tile a graph names: each task's reads and output, and every fetch.
fn named_tiles(g: &TaskGraph) -> HashSet<TileRef> {
    let mut tiles = HashSet::new();
    for task in g.tasks() {
        tiles.extend(task.reads(g.slices).as_slice().iter().copied());
        tiles.insert(task.output(g.slices));
    }
    tiles.extend(g.initial_fetches().iter().map(|f| f.tile));
    tiles
}

#[test]
fn tile_space_numbers_every_named_tile_once_and_back() {
    for nt in [5, 12] {
        for (name, g) in graphs(nt) {
            let space = g.tile_space();
            assert_eq!((space.nt, space.slices), (g.nt, g.slices), "{name}");
            let tiles = named_tiles(&g);
            let mut slots = HashSet::new();
            for &r in &tiles {
                let slot = space.slot(r);
                assert_eq!(space.tile(slot), r, "{name} nt={nt}: {r:?} via slot {slot}");
                assert!(
                    slots.insert(slot),
                    "{name} nt={nt}: slot {slot} named twice"
                );
                if g.slices == 1 {
                    assert!(!matches!(r, TileRef::Buf { .. }), "{name}: {r:?}");
                }
            }
        }
    }
}

#[test]
fn tile_space_round_trips_over_whole_planes() {
    for (nt, slices) in [(1, 1), (5, 1), (7, 3)] {
        let space = TileSpace { nt, slices };
        // three phases' worth of slots, every one of them a distinct tile
        let slots = space.slot(TileRef::A {
            phase: 3,
            slice: 0,
            i: 0,
            j: 0,
        });
        let mut seen = HashSet::new();
        for slot in 0..slots {
            let r = space.tile(slot);
            assert_eq!(space.slot(r), slot, "nt={nt} c={slices}: {r:?}");
            assert!(seen.insert(r));
            assert!(slices > 1 || !matches!(r, TileRef::Buf { .. }));
        }
    }
}
