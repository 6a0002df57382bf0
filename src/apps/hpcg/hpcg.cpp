#include "apps/hpcg/hpcg.hpp"

#include "arch/calibration.hpp"
#include "arch/toolchain.hpp"
#include "util/error.hpp"

#include <cmath>

namespace armstice::apps {
namespace {

using arch::ComputePhase;
using arch::MemPattern;

/// Work at one multigrid level for one rank's local grid.
struct LevelWork {
    double rows = 0;
    double nnz = 0;
    double face_bytes = 0;  ///< halo payload per face per exchange
};

std::vector<LevelWork> level_work(const HpcgConfig& cfg) {
    std::vector<LevelWork> levels;
    int nx = cfg.nx, ny = cfg.ny, nz = cfg.nz;
    for (int l = 0; l < cfg.levels; ++l) {
        ARMSTICE_CHECK(nx % 2 == 0 || l == cfg.levels - 1,
                       "HPCG grid must halve per level");
        LevelWork w;
        w.rows = static_cast<double>(nx) * ny * nz;
        w.nnz = nnz_27pt(nx, ny, nz);
        w.face_bytes = 8.0 * nx * ny;  // one face of the local block
        levels.push_back(w);
        nx /= 2;
        ny /= 2;
        nz /= 2;
    }
    return levels;
}

ComputePhase spmv_phase(const LevelWork& w, double eta, const char* label) {
    ComputePhase p;
    p.label = label;
    p.flops = 2.0 * w.nnz;
    p.main_bytes = 12.0 * w.nnz + 24.0 * w.rows;
    p.pattern = MemPattern::gather;
    p.vector_fraction = 0.85;
    p.efficiency = eta;
    return p;
}

ComputePhase symgs_phase(const LevelWork& w, double eta, const char* label) {
    ComputePhase p;
    p.label = label;
    p.flops = 4.0 * w.nnz;
    p.main_bytes = 2.0 * (12.0 * w.nnz + 16.0 * w.rows) + 16.0 * w.rows;
    p.pattern = MemPattern::gather;  // plus forward/backward dependencies,
                                     // absorbed in the calibrated efficiency
    p.vector_fraction = 0.5;         // SymGS vectorises poorly everywhere
    p.efficiency = eta;
    return p;
}

ComputePhase vector_phase(double rows, double flops_per_row, double bytes_per_row,
                          double eta, const char* label) {
    ComputePhase p;
    p.label = label;
    p.flops = flops_per_row * rows;
    p.main_bytes = bytes_per_row * rows;
    p.pattern = MemPattern::stream;
    p.efficiency = eta;
    return p;
}

} // namespace

double nnz_27pt(long nx, long ny, long nz) {
    return static_cast<double>(3 * nx - 2) * static_cast<double>(3 * ny - 2) *
           static_cast<double>(3 * nz - 2);
}

double hpcg_bytes_per_rank(const HpcgConfig& cfg) {
    double bytes = 0;
    int nx = cfg.nx, ny = cfg.ny, nz = cfg.nz;
    for (int l = 0; l < cfg.levels; ++l) {
        const double rows = static_cast<double>(nx) * ny * nz;
        const double nnz = nnz_27pt(nx, ny, nz);
        bytes += 12.0 * nnz + 8.0 * rows;   // CSR values+cols, row pointers
        bytes += 8.0 * rows * 4.0;          // per-level work vectors
        nx /= 2;
        ny /= 2;
        nz /= 2;
    }
    bytes += 8.0 * static_cast<double>(cfg.nx) * cfg.ny * cfg.nz * 6.0;  // CG vectors
    return bytes;
}

HpcgOutcome run_hpcg(const arch::SystemSpec& sys, int nodes, const HpcgConfig& cfg) {
    ARMSTICE_CHECK(nodes >= 1, "hpcg needs >=1 node");
    const int ranks = nodes * sys.node.cores();  // MPI-only, fully populated
    const auto tc = arch::toolchain_for(sys.name, "hpcg");
    const double eta = arch::calib::hpcg_efficiency(sys, cfg.optimized);
    const auto levels = level_work(cfg);

    // 3D rank grid for halo neighbours.
    const auto dims = simmpi::dims_create(ranks, 3);
    const simmpi::Halo halo(simmpi::cart_neighbors(dims, /*periodic=*/false));

    // Every phase is invariant across CG iterations: build each once up
    // front instead of re-deriving the ComputePhase (label assignment and
    // all) on every iteration of a possibly-long solve.
    const int coarsest = cfg.levels - 1;
    const auto spmv0 = spmv_phase(levels[0], eta, "spmv0");
    const auto ddot_pap = vector_phase(levels[0].rows, 2.0, 16.0, eta, "ddot-pAp");
    const auto ddot_rtz = vector_phase(levels[0].rows, 2.0, 16.0, eta, "ddot-rtz");
    const auto waxpby =
        vector_phase(levels[0].rows, 3.0 * 3.0, 24.0 * 3.0, eta, "waxpby");
    const auto norm = vector_phase(levels[0].rows, 2.0, 16.0, eta, "norm");
    const auto symgs_coarse =
        symgs_phase(levels[static_cast<std::size_t>(coarsest)], eta, "symgs-coarse");
    std::vector<ComputePhase> symgs_pre, mg_residual, mg_restrict, symgs_post,
        mg_prolong;
    for (int l = 0; l < coarsest; ++l) {
        const auto& fine = levels[static_cast<std::size_t>(l)];
        const auto& coarse = levels[static_cast<std::size_t>(l) + 1];
        symgs_pre.push_back(symgs_phase(fine, eta, "symgs-pre"));
        mg_residual.push_back(spmv_phase(fine, eta, "mg-residual"));
        mg_restrict.push_back(vector_phase(coarse.rows, 1.0, 40.0, eta, "mg-restrict"));
        mg_prolong.push_back(vector_phase(coarse.rows, 1.0, 40.0, eta, "mg-prolong"));
        symgs_post.push_back(symgs_phase(fine, eta, "symgs-post"));
    }

    // No MarkOp here: per-phase labels (spmv0, symgs-pre, ...) feed the
    // phase_compute breakdown users inspect (see examples/quickstart.cpp).
    simmpi::ProgramSet ps(ranks);
    for (int it = 0; it < cfg.iters; ++it) {
        // Level-0 SpMV (w <- A p) with its halo exchange.
        ps.halo_exchange(halo, levels[0].face_bytes);
        ps.compute(spmv0);
        ps.compute(ddot_pap);
        ps.allreduce(8);

        // Multigrid V-cycle preconditioner.
        for (int l = 0; l < coarsest; ++l) {
            const auto li = static_cast<std::size_t>(l);
            ps.halo_exchange(halo, levels[li].face_bytes);
            ps.compute(symgs_pre[li]);
            ps.halo_exchange(halo, levels[li].face_bytes);
            ps.compute(mg_residual[li]);
            ps.compute(mg_restrict[li]);
        }
        ps.halo_exchange(halo, levels[static_cast<std::size_t>(coarsest)].face_bytes);
        ps.compute(symgs_coarse);
        for (int l = coarsest - 1; l >= 0; --l) {
            const auto li = static_cast<std::size_t>(l);
            ps.compute(mg_prolong[li]);
            ps.halo_exchange(halo, levels[li].face_bytes);
            ps.compute(symgs_post[li]);
        }

        // CG vector updates and reductions.
        ps.compute(ddot_rtz);
        ps.allreduce(8);
        ps.compute(waxpby);
        ps.compute(norm);
        ps.allreduce(8);
    }

    HpcgOutcome out;
    out.res = run_on(sys, nodes, ranks, /*threads=*/1, tc.vec_quality, std::move(ps),
                     hpcg_bytes_per_rank(cfg), cfg.knobs);
    if (out.res.feasible && sys.table_peak_gflops > 0) {
        out.pct_peak = 100.0 * out.res.gflops / (sys.table_peak_gflops * nodes);
    }
    return out;
}

kern::CgResult hpcg_reference(int n, int levels, int max_iters) {
    const kern::Multigrid mg(n, n, n, levels);
    const auto& a = mg.matrix(0);
    std::vector<double> b(static_cast<std::size_t>(a.rows()), 1.0);
    std::vector<double> x(b.size(), 0.0);
    return kern::cg_solve(
        a, b, x, {.max_iters = max_iters, .rel_tol = 1e-9},
        [&](std::span<const double> r, std::span<double> z, kern::OpCounts* c) {
            mg.vcycle(r, z, c);
        });
}

} // namespace armstice::apps
