#include "apps/minikab/minikab.hpp"

#include "arch/calibration.hpp"
#include "arch/toolchain.hpp"
#include "util/error.hpp"

#include <algorithm>
#include <cmath>

namespace armstice::apps {
namespace {

using arch::ComputePhase;
using arch::MemPattern;

/// Replicated per-process setup data (mesh, ordering, solver workspace).
/// Anchored by Fig 1: the largest plain-MPI configuration fitting two
/// 32 GB A64FX nodes is 48 processes, i.e. ~1.33 GB/process total footprint
/// (24 processes/node fit; 25 do not).
constexpr double kReplicatedBytes = 1.22e9;

/// Interface (halo) size of a row-slab decomposition of the structural
/// problem: cross-section of a ~213^3-dof body, 3 dofs/node coupling.
double slab_interface_bytes(const MinikabConfig& cfg) {
    const double cross_section = std::pow(static_cast<double>(cfg.rows), 2.0 / 3.0);
    return 8.0 * 3.0 * cross_section;
}

/// Iteration-count factor per solver on the Benchmark1-class structural
/// matrix: Jacobi preconditioning cuts iterations ~25% (verified by the
/// reference solver on random SPD systems); pipelining changes only the
/// communication schedule.
double solver_iteration_factor(MinikabSolver s) {
    switch (s) {
        case MinikabSolver::cg: return 1.0;
        case MinikabSolver::jacobi_pcg: return 0.75;
        case MinikabSolver::pipelined_cg: return 1.0;
    }
    return 1.0;
}

} // namespace

const char* minikab_solver_name(MinikabSolver s) {
    switch (s) {
        case MinikabSolver::cg: return "cg";
        case MinikabSolver::jacobi_pcg: return "jacobi-pcg";
        case MinikabSolver::pipelined_cg: return "pipelined-cg";
    }
    return "?";
}

double minikab_bytes_per_rank(const MinikabConfig& cfg) {
    const double share = 1.0 / cfg.ranks;
    const double matrix = (12.0 * cfg.nnz + 8.0 * cfg.rows) * share;
    const double vectors = 8.0 * 8.0 * cfg.rows * share;
    return matrix + vectors + kReplicatedBytes;
}

AppResult run_minikab(const arch::SystemSpec& sys, const MinikabConfig& cfg) {
    ARMSTICE_CHECK(cfg.ranks >= 1 && cfg.nodes >= 1 && cfg.threads >= 1,
                   "bad minikab config");
    const auto tc = arch::toolchain_for(sys.name, "minikab");
    const double eta = arch::calib::minikab_efficiency(sys);

    const double rows_per_rank = static_cast<double>(cfg.rows) / cfg.ranks;
    const double nnz_per_rank = cfg.nnz / cfg.ranks;

    // Per-iteration phases (plain CG): SpMV, two reduction dots, three
    // vector updates. OpenMP parallelises all loops well (the solver is
    // simple); the serial fraction covers the sequential halo pack/unpack.
    ComputePhase spmv;
    spmv.label = "spmv";
    spmv.flops = 2.0 * nnz_per_rank;
    spmv.main_bytes = 12.0 * nnz_per_rank + 24.0 * rows_per_rank;
    spmv.pattern = MemPattern::gather;
    spmv.vector_fraction = 0.85;
    spmv.parallel_fraction = 0.995;
    spmv.efficiency = eta;

    ComputePhase blas1;
    blas1.label = "blas1";
    blas1.flops = (2.0 + 2.0 + 2.0 + 2.0 + 2.0) * rows_per_rank;  // 2 dots + 3 updates
    blas1.main_bytes = (16.0 + 16.0 + 24.0 + 24.0 + 24.0) * rows_per_rank;
    blas1.pattern = MemPattern::stream;
    blas1.parallel_fraction = 0.99;
    blas1.efficiency = eta;

    // Slab decomposition: two neighbours in the chain interior.
    const simmpi::Halo chain(simmpi::chain_neighbors(cfg.ranks));
    const double halo = slab_interface_bytes(cfg);

    // Solver-variant work: the Jacobi sweep adds a diagonal solve per
    // iteration; pipelined CG carries two extra recurrence vectors.
    ComputePhase extra;
    extra.label = "solver-extra";
    extra.pattern = MemPattern::stream;
    extra.parallel_fraction = 0.99;
    extra.efficiency = eta;
    if (cfg.solver == MinikabSolver::jacobi_pcg) {
        extra.flops = rows_per_rank;
        extra.main_bytes = 24.0 * rows_per_rank;
    } else if (cfg.solver == MinikabSolver::pipelined_cg) {
        extra.flops = 4.0 * rows_per_rank;
        extra.main_bytes = 48.0 * rows_per_rank;
    }

    // CG iterations are identical in steady state; simulate a window and
    // scale the makespan (exact for a deterministic bulk-synchronous loop).
    const int iterations = static_cast<int>(
        std::lround(cfg.iterations * solver_iteration_factor(cfg.solver)));
    const int sim_iters = std::min(iterations, 120);
    const double scale = static_cast<double>(iterations) / sim_iters;

    simmpi::ProgramSet ps(cfg.ranks);
    ps.mark(std::string("minikab-") + minikab_solver_name(cfg.solver));
    for (int it = 0; it < sim_iters; ++it) {
        if (cfg.ranks > 1) ps.halo_exchange(chain, halo);
        ps.compute(spmv);
        ps.compute(blas1);
        if (extra.flops > 0) ps.compute(extra);
        if (cfg.ranks > 1) {
            // Plain/Jacobi CG: two blocking reduction points. Pipelined CG:
            // a single fused allreduce per iteration.
            ps.allreduce(8);
            if (cfg.solver != MinikabSolver::pipelined_cg) ps.allreduce(8);
        }
    }

    AppResult out = run_on(sys, cfg.nodes, cfg.ranks, cfg.threads, tc.vec_quality,
                           std::move(ps), minikab_bytes_per_rank(cfg), cfg.knobs);
    out.seconds *= scale;
    return out;
}

kern::CgResult minikab_reference(long n, int extra_per_row, int max_iters,
                                 MinikabSolver solver) {
    const auto a = kern::random_spd(n, extra_per_row, /*seed=*/42);
    std::vector<double> b(static_cast<std::size_t>(n), 1.0);
    std::vector<double> x(b.size(), 0.0);
    kern::Preconditioner precond;
    if (solver == MinikabSolver::jacobi_pcg) {
        precond = kern::jacobi_preconditioner(a);
    }
    return kern::cg_solve(a, b, x, {.max_iters = max_iters, .rel_tol = 1e-8}, precond);
}

} // namespace armstice::apps
