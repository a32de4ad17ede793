//! Symmetry-reduced simulation is exact: a report-only run that simulates
//! one chip's quotient graph reports bit for bit what the full graph
//! reports, and every case the reduction does not cover falls back to the
//! full graph.
//!
//! The grid: the seven distributed GeMM algorithms on the 1×4, 4×1, 2×8,
//! 8×2 and 4×4 tori, every dataflow, and granularity S ∈ {1, 2, 4}
//! (MeshSlice's slice count; SUMMA's panels per `lcm(Pr, Pc)`; Wang's,
//! 1D-TP's and FSDP's unroll groups; Collective and Cannon have no such
//! knob) wherever the algorithm accepts the problem. Every algorithm but
//! Cannon, whose skew gives each chip a different op stream, reduces.

use meshslice_gemm::{
    Cannon, Collective, Dataflow, DistributedGemm, Fsdp, GemmProblem, MeshSlice, OneDimTp, Summa,
    Wang,
};
use meshslice_mesh::{LinkDir, Torus2d};
use meshslice_sim::{ClusterProfile, Engine, FullReason, GemmShape, Program, SimConfig, Symmetry};

const MESHES: [(usize, usize); 5] = [(1, 4), (4, 1), (2, 8), (8, 2), (4, 4)];
const DATAFLOWS: [Dataflow; 3] = [Dataflow::Os, Dataflow::Ls, Dataflow::Rs];
const S_VALUES: [usize; 3] = [1, 2, 4];

/// Which way the reduction must decide for an algorithm's programs.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Expect {
    Reduce,
    Fallback(FullReason),
}

struct Case {
    label: String,
    mesh: Torus2d,
    program: Program,
    expect: Expect,
}

fn algorithms(mesh: &Torus2d, s: usize) -> Vec<(Box<dyn DistributedGemm>, Expect)> {
    let mut algos: Vec<(Box<dyn DistributedGemm>, Expect)> = vec![
        (Box::new(MeshSlice::new(s, 8)), Expect::Reduce),
        (
            Box::new(Summa::new(Summa::auto(mesh).panels() * s)),
            Expect::Reduce,
        ),
        (Box::new(Wang::new().with_unroll(s)), Expect::Reduce),
        (Box::new(OneDimTp::with_unroll(s)), Expect::Reduce),
        (Box::new(Fsdp::with_unroll(s)), Expect::Reduce),
    ];
    if s == 1 {
        algos.push((Box::new(Collective), Expect::Reduce));
        algos.push((
            Box::new(Cannon),
            Expect::Fallback(FullReason::AsymmetricStreams),
        ));
    }
    algos
}

/// Every legal (algorithm, mesh, dataflow, S) program of the grid.
fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for (rows, cols) in MESHES {
        let mesh = Torus2d::new(rows, cols);
        for dataflow in DATAFLOWS {
            let problem = GemmProblem::new(GemmShape::new(512, 1024, 768), dataflow);
            for s in S_VALUES {
                for (algo, expect) in algorithms(&mesh, s) {
                    let Ok(program) = algo.schedule(&mesh, problem, 2) else {
                        continue;
                    };
                    cases.push(Case {
                        label: format!("{} {rows}x{cols} {dataflow:?} S={s}", algo.name()),
                        mesh: mesh.clone(),
                        program,
                        expect,
                    });
                }
            }
        }
    }
    cases
}

/// A profile that slows the last chip's compute and halves one of its
/// links: a run that wrongly simulated chip 0 alone would not see it.
fn skewed_profile(chips: usize) -> ClusterProfile {
    ClusterProfile::ideal(chips)
        .with_compute_slowdown(chips - 1, 1.5)
        .with_link_multiplier(chips - 1, LinkDir::RowPlus, 0.5)
        .with_link_multiplier(chips - 1, LinkDir::ColPlus, 0.5)
}

#[test]
fn the_grid_covers_every_algorithm() {
    let cases = cases();
    for name in [
        "MeshSlice",
        "Collective",
        "SUMMA",
        "Cannon",
        "Wang",
        "1D TP",
        "FSDP",
    ] {
        assert!(
            cases.iter().any(|c| c.label.starts_with(name)),
            "no legal case for {name}"
        );
    }
    assert!(cases.len() > 100, "only {} cases", cases.len());
}

#[test]
fn report_runs_equal_full_instrumented_runs() {
    // The default model, and the real-hardware one that serializes every
    // chip's ops in program order.
    for cfg in [SimConfig::tpu_v4(), SimConfig::tpu_v4_real_hw()] {
        for case in cases() {
            let engine = Engine::new(case.mesh.clone(), cfg.clone());
            let (full, _, timeline) = engine.run_instrumented(&case.program);
            assert_eq!(engine.run(&case.program), full, "{}", case.label);
            let lowered = engine.lower_program(&case.program);
            assert_eq!(engine.run_lowered(&lowered), full, "{}", case.label);
            // A reduced program lowers one chip's share of the full graph.
            if let Symmetry::Reduced { chips } = lowered.symmetry() {
                assert_eq!(chips, case.mesh.num_chips(), "{}", case.label);
                assert_eq!(
                    lowered.num_nodes() * chips,
                    timeline.nodes.len(),
                    "{}",
                    case.label
                );
            } else {
                assert_eq!(lowered.num_nodes(), timeline.nodes.len(), "{}", case.label);
            }
        }
    }
}

#[test]
fn the_reduction_decides_as_expected() {
    for case in cases() {
        let engine = Engine::new(case.mesh.clone(), SimConfig::tpu_v4());
        let symmetry = engine.lower_program(&case.program).symmetry();
        let expected = match case.expect {
            Expect::Reduce => Symmetry::Reduced {
                chips: case.mesh.num_chips(),
            },
            Expect::Fallback(reason) => Symmetry::Full(reason),
        };
        assert_eq!(symmetry, expected, "{}: {symmetry}", case.label);
        // A shared fabric couples every chip's transfers.
        let fabric = Engine::new(case.mesh.clone(), SimConfig::gpu_logical_mesh(2e11));
        let lowered = fabric.lower_program(&case.program);
        assert_eq!(
            lowered.symmetry(),
            Symmetry::Full(FullReason::SharedFabric),
            "{}",
            case.label
        );
        assert_eq!(
            fabric.run_lowered(&lowered),
            fabric.run_instrumented(&case.program).0,
            "{}",
            case.label
        );
    }
}

#[test]
fn a_non_ideal_profile_runs_the_full_graph() {
    for case in cases() {
        let nominal = Engine::new(case.mesh.clone(), SimConfig::tpu_v4());
        let faulted = nominal.with_faults(skewed_profile(case.mesh.num_chips()));
        let lowered = nominal.lower_program(&case.program);
        let replayed = faulted.run_lowered(&lowered);
        assert_eq!(replayed, faulted.run(&case.program), "{}", case.label);
        assert_eq!(
            replayed,
            faulted.run_instrumented(&case.program).0,
            "{}",
            case.label
        );
        // The slowed chip shows: the full graph ran, not chip 0 alone.
        if case.mesh.num_chips() > 1 && case.program.total_flops() > 0 {
            assert!(
                replayed.makespan() > nominal.run_lowered(&lowered).makespan(),
                "{}",
                case.label
            );
        }
        // The nominal engine still takes the quotient afterwards, and an
        // ideal profile is no profile.
        let ideal = nominal.with_faults(ClusterProfile::ideal(case.mesh.num_chips()));
        assert_eq!(
            ideal.run_lowered(&lowered),
            nominal.run(&case.program),
            "{}",
            case.label
        );
    }
}
