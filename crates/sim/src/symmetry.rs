//! Translation-symmetry detection for one-chip quotient simulation.
//!
//! On a fault-free physical torus every chip owns its compute unit, its
//! four links and its HBM channel; the only coupling between chips is the
//! ring-step dependency of a collective (step `k` waits on the upstream
//! neighbor's step `k − 1`). When every chip runs the same op stream and
//! each ring upstream runs the same collective at the same stream
//! position, every chip follows one timeline. The engine then lowers and
//! runs only chip 0's stream, where ring step `k` waits on the chip's own
//! step `k − 1` — the *quotient graph* — and counts its report for every
//! chip.

use std::fmt;

use meshslice_mesh::{ChipId, CommAxis, LinkDir, Torus2d};

use crate::config::{NetworkModel, SimConfig};
use crate::program::{Op, OpId, OpKind, Program};

/// How report-only runs of a [`LoweredProgram`](crate::LoweredProgram)
/// are simulated, from [`LoweredProgram::symmetry`](crate::LoweredProgram::symmetry).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Symmetry {
    /// Every chip follows the same timeline: report-only runs simulate
    /// chip 0's quotient graph and count it for all `chips`.
    Reduced {
        /// Chips the simulated representative stands for.
        chips: usize,
    },
    /// Every run simulates the full graph, for the reason given.
    Full(FullReason),
}

/// Why a program cannot be simulated as a one-chip quotient graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FullReason {
    /// Chips run different op sequences: a different op count, or an op
    /// whose kind, sizes, shape, axis, lanes or dependency positions
    /// differ from chip 0's op at the same stream position (Cannon's
    /// skew, for one).
    AsymmetricStreams,
    /// An op depends directly on an op of another chip.
    CrossChipDep,
    /// A collective's ring upstream runs a different collective at the
    /// same stream position, so its steps would not pair up.
    MisalignedRingTags,
    /// The network is a shared fabric, where all chips' transfers contend
    /// for one bisection bandwidth.
    SharedFabric,
}

impl fmt::Display for FullReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FullReason::AsymmetricStreams => "asymmetric per-chip op streams",
            FullReason::CrossChipDep => "cross-chip dependency",
            FullReason::MisalignedRingTags => "misaligned ring tags",
            FullReason::SharedFabric => "shared fabric",
        })
    }
}

impl fmt::Display for Symmetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Symmetry::Reduced { chips } => write!(f, "reduced: 1 of {chips} chips simulated"),
            Symmetry::Full(reason) => write!(f, "full: {reason}"),
        }
    }
}

/// Decides whether `program` on `mesh` under `cfg` reduces to chip 0's
/// quotient graph. One pass over the ops and their dependencies.
pub(crate) fn detect(mesh: &Torus2d, cfg: &SimConfig, program: &Program) -> Symmetry {
    match check(mesh, cfg, program) {
        Ok(()) => Symmetry::Reduced {
            chips: mesh.num_chips(),
        },
        Err(reason) => Symmetry::Full(reason),
    }
}

fn check(mesh: &Torus2d, cfg: &SimConfig, program: &Program) -> Result<(), FullReason> {
    if let NetworkModel::SharedFabric { .. } = cfg.network {
        return Err(FullReason::SharedFabric);
    }
    let ops = program.ops();
    let chips = mesh.num_chips();
    if !ops.len().is_multiple_of(chips) {
        return Err(FullReason::AsymmetricStreams);
    }
    let per_chip = ops.len() / chips;
    // `pos[i]`: op i's position in its chip's stream; `at[c * per_chip +
    // j]`: the op at position j of chip c.
    let mut count = vec![0usize; chips];
    let mut pos = vec![0usize; ops.len()];
    let mut at = vec![0usize; ops.len()];
    for (i, op) in ops.iter().enumerate() {
        let c = op.chip.index();
        if count[c] == per_chip {
            return Err(FullReason::AsymmetricStreams);
        }
        pos[i] = count[c];
        at[c * per_chip + count[c]] = i;
        count[c] += 1;
    }
    // Every chip now holds exactly `per_chip` ops.
    for (i, op) in ops.iter().enumerate() {
        if op.deps.iter().any(|d| ops[d.index()].chip != op.chip) {
            return Err(FullReason::CrossChipDep);
        }
        let rep = &ops[at[pos[i]]];
        let same = same_work(&op.kind, &rep.kind)
            && op.deps.len() == rep.deps.len()
            && op
                .deps
                .iter()
                .zip(&rep.deps)
                .all(|(a, b)| pos[a.index()] == pos[b.index()]);
        if !same {
            return Err(FullReason::AsymmetricStreams);
        }
    }
    // Lane 0 flows forward and receives from the ring's previous chip;
    // lane 1 flows backward and receives from the next. One table per
    // (axis, lane), indexed by chip.
    let neighbors = |dir: LinkDir| -> Vec<usize> {
        mesh.chips()
            .map(|c| mesh.neighbor_chip(c, dir).index())
            .collect()
    };
    let [row, col] = [CommAxis::InterRow, CommAxis::InterCol].map(|axis| {
        [
            neighbors(axis.backward_link()),
            neighbors(axis.forward_link()),
        ]
    });
    for (i, op) in ops.iter().enumerate() {
        if let OpKind::Collective {
            axis, tag, lanes, ..
        } = op.kind
        {
            let by_lane = match axis {
                CommAxis::InterRow => &row,
                CommAxis::InterCol => &col,
            };
            for up in &by_lane[..lanes as usize] {
                let partner = &ops[at[up[op.chip.index()] * per_chip + pos[i]]];
                match partner.kind {
                    OpKind::Collective { tag: t, .. } if t == tag => {}
                    _ => return Err(FullReason::MisalignedRingTags),
                }
            }
        }
    }
    Ok(())
}

/// A reduced program kept for a deferred full lowering: chip 0's op
/// stream plus what differs between the chips' copies of it — the order
/// the copies interleave in and the collective tags. About 12 bytes per
/// op, against a [`Program`] clone's allocation per op.
#[derive(Clone, Debug)]
pub(crate) struct CompactProgram {
    /// Chip 0's ops, with dependencies as positions in this stream.
    stream: Vec<Op>,
    /// The chip of every op, in program order.
    chips: Vec<u32>,
    /// The tag of every collective op, in program order.
    tags: Vec<u64>,
    num_chips: usize,
}

impl CompactProgram {
    /// Compacts a program that [`detect`] reduced on a `num_chips` mesh.
    pub(crate) fn new(program: &Program, num_chips: usize) -> CompactProgram {
        let ops = program.ops();
        let mut pos = vec![0usize; ops.len()];
        let mut count = vec![0usize; num_chips];
        for (i, op) in ops.iter().enumerate() {
            pos[i] = count[op.chip.index()];
            count[op.chip.index()] += 1;
        }
        let stream = ops
            .iter()
            .filter(|op| op.chip.index() == 0)
            .map(|op| Op {
                chip: op.chip,
                kind: op.kind.clone(),
                deps: op.deps.iter().map(|d| OpId(pos[d.index()])).collect(),
            })
            .collect();
        let tags = ops
            .iter()
            .filter_map(|op| match op.kind {
                OpKind::Collective { tag, .. } => Some(tag),
                _ => None,
            })
            .collect();
        CompactProgram {
            stream,
            chips: ops.iter().map(|op| op.chip.index() as u32).collect(),
            tags,
            num_chips,
        }
    }

    /// The program this was compacted from, op for op.
    pub(crate) fn expand(&self) -> Program {
        let per_chip = self.stream.len();
        // `at[c * per_chip + j]`: the op index of position j on chip c.
        let mut at = vec![0usize; self.chips.len()];
        let mut count = vec![0usize; self.num_chips];
        for (i, &c) in self.chips.iter().enumerate() {
            let c = c as usize;
            at[c * per_chip + count[c]] = i;
            count[c] += 1;
        }
        count.fill(0);
        let mut tags = self.tags.iter();
        let ops = self
            .chips
            .iter()
            .map(|&c| {
                let c = c as usize;
                let rep = &self.stream[count[c]];
                count[c] += 1;
                let mut kind = rep.kind.clone();
                if let OpKind::Collective { tag, .. } = &mut kind {
                    *tag = *tags.next().expect("one tag per collective");
                }
                Op {
                    chip: ChipId(c),
                    kind,
                    deps: rep
                        .deps
                        .iter()
                        .map(|p| OpId(at[c * per_chip + p.index()]))
                        .collect(),
                }
            })
            .collect();
        Program { ops }
    }
}

/// Whether two ops do the same work, ignoring collective tags.
fn same_work(a: &OpKind, b: &OpKind) -> bool {
    match (a, b) {
        (
            OpKind::Collective {
                kind: k1,
                axis: a1,
                shard_bytes: s1,
                lanes: l1,
                tag: _,
            },
            OpKind::Collective {
                kind: k2,
                axis: a2,
                shard_bytes: s2,
                lanes: l2,
                tag: _,
            },
        ) => k1 == k2 && a1 == a2 && s1 == s2 && l1 == l2,
        _ => a == b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use meshslice_tensor::GemmShape;

    fn cfg() -> SimConfig {
        SimConfig::tpu_v4()
    }

    #[test]
    fn uniform_ring_program_reduces() {
        let mesh = Torus2d::new(2, 4);
        let mut b = ProgramBuilder::new(&mesh);
        let row = b.next_tag();
        let col = b.next_tag();
        for chip in mesh.chips() {
            let ag = b.all_gather(chip, row, CommAxis::InterRow, 1024, &[]);
            let rs = b.reduce_scatter(chip, col, CommAxis::InterCol, 512, &[ag]);
            b.gemm(chip, GemmShape::new(64, 64, 64), &[ag, rs]);
        }
        assert_eq!(
            detect(&mesh, &cfg(), &b.build()),
            Symmetry::Reduced { chips: 8 }
        );
    }

    #[test]
    fn per_ring_tags_reduce_when_aligned() {
        // One tag per ring, as the GeMM planners emit them.
        let mesh = Torus2d::new(2, 3);
        let mut b = ProgramBuilder::new(&mesh);
        let tags: Vec<u64> = (0..mesh.cols()).map(|_| b.next_tag()).collect();
        for chip in mesh.chips() {
            let col = mesh.coord_of(chip).col();
            b.collective(
                chip,
                tags[col],
                crate::CollectiveKind::AllGather,
                CommAxis::InterRow,
                256,
                2,
                &[],
            );
        }
        assert_eq!(
            detect(&mesh, &cfg(), &b.build()),
            Symmetry::Reduced { chips: 6 }
        );
    }

    #[test]
    fn compact_program_expands_to_the_original() {
        let mesh = Torus2d::new(2, 3);
        let mut b = ProgramBuilder::new(&mesh);
        let col_tags: Vec<u64> = (0..mesh.cols()).map(|_| b.next_tag()).collect();
        let row_tags: Vec<u64> = (0..mesh.rows()).map(|_| b.next_tag()).collect();
        let mut last = Vec::new();
        for chip in mesh.chips() {
            let coord = mesh.coord_of(chip);
            let s = b.slice_copy(chip, 64, &[]);
            let ag = b.all_gather(chip, col_tags[coord.col()], CommAxis::InterRow, 256, &[s]);
            let g = b.gemm(chip, GemmShape::new(16, 16, 16), &[s, ag]);
            last.push(g);
        }
        // A second round interleaved differently from the first.
        for chip in (0..mesh.num_chips()).rev().map(ChipId) {
            let coord = mesh.coord_of(chip);
            b.reduce_scatter(
                chip,
                row_tags[coord.row()],
                CommAxis::InterCol,
                128,
                &[last[chip.index()]],
            );
        }
        let program = b.build();
        assert_eq!(
            detect(&mesh, &cfg(), &program),
            Symmetry::Reduced { chips: 6 }
        );
        let compact = CompactProgram::new(&program, mesh.num_chips());
        assert_eq!(compact.expand(), program);
    }

    #[test]
    fn differing_streams_fall_back() {
        let mesh = Torus2d::new(1, 2);
        let mut b = ProgramBuilder::new(&mesh);
        b.gemm(ChipId(0), GemmShape::new(8, 8, 8), &[]);
        b.gemm(ChipId(1), GemmShape::new(8, 8, 16), &[]);
        assert_eq!(
            detect(&mesh, &cfg(), &b.build()),
            Symmetry::Full(FullReason::AsymmetricStreams)
        );
        let mut b = ProgramBuilder::new(&mesh);
        b.gemm(ChipId(0), GemmShape::new(8, 8, 8), &[]);
        assert_eq!(
            detect(&mesh, &cfg(), &b.build()),
            Symmetry::Full(FullReason::AsymmetricStreams)
        );
    }

    #[test]
    fn cross_chip_dependency_falls_back() {
        let mesh = Torus2d::new(1, 2);
        let mut b = ProgramBuilder::new(&mesh);
        let a = b.gemm(ChipId(0), GemmShape::new(8, 8, 8), &[]);
        b.gemm(ChipId(1), GemmShape::new(8, 8, 8), &[a]);
        b.send_recv(ChipId(0), LinkDir::ColPlus, 64, &[]);
        b.send_recv(ChipId(1), LinkDir::ColPlus, 64, &[]);
        assert_eq!(
            detect(&mesh, &cfg(), &b.build()),
            Symmetry::Full(FullReason::CrossChipDep)
        );
    }

    #[test]
    fn misaligned_ring_tags_fall_back() {
        // Chip 0 runs ring collective A then B, chip 1 runs B then A: the
        // streams match op for op, but step k of chip 1's first collective
        // waits on chip 0's *second*.
        let mesh = Torus2d::new(2, 1);
        let mut b = ProgramBuilder::new(&mesh);
        let (ta, tb) = (b.next_tag(), b.next_tag());
        for (chip, order) in [(ChipId(0), [ta, tb]), (ChipId(1), [tb, ta])] {
            for tag in order {
                b.all_gather(chip, tag, CommAxis::InterRow, 128, &[]);
            }
        }
        assert_eq!(
            detect(&mesh, &cfg(), &b.build()),
            Symmetry::Full(FullReason::MisalignedRingTags)
        );
    }

    #[test]
    fn shared_fabric_falls_back() {
        let mesh = Torus2d::new(1, 1);
        let mut b = ProgramBuilder::new(&mesh);
        b.gemm(ChipId(0), GemmShape::new(8, 8, 8), &[]);
        assert_eq!(
            detect(&mesh, &SimConfig::gpu_logical_mesh(1e11), &b.build()),
            Symmetry::Full(FullReason::SharedFabric)
        );
    }

    #[test]
    fn display_names_the_decision() {
        assert_eq!(
            Symmetry::Reduced { chips: 256 }.to_string(),
            "reduced: 1 of 256 chips simulated"
        );
        assert_eq!(
            Symmetry::Full(FullReason::MisalignedRingTags).to_string(),
            "full: misaligned ring tags"
        );
    }
}
