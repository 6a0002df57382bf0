#include "apps/nekbone/nekbone.hpp"

#include "arch/calibration.hpp"
#include "arch/toolchain.hpp"
#include "util/error.hpp"

#include <algorithm>

namespace armstice::apps {
namespace {

using arch::ComputePhase;
using arch::MemPattern;

} // namespace

double nekbone_bytes_per_rank(const NekboneConfig& cfg) {
    const double epts = static_cast<double>(cfg.nx1) * cfg.nx1 * cfg.nx1;
    const double n = cfg.elems_per_rank * epts;
    // u, w, r, p, 6 geometric factor arrays, multiplicity, workspace.
    return 8.0 * n * 12.0;
}

AppResult run_nekbone(const arch::SystemSpec& sys, const NekboneConfig& cfg) {
    ARMSTICE_CHECK(cfg.ranks >= 1 && cfg.nodes >= 1, "bad nekbone config");
    const auto tc = arch::toolchain_for(sys.name, "nekbone");
    double eta = arch::calib::nekbone_efficiency(sys);
    if (cfg.fastmath) eta *= arch::calib::nekbone_fastmath_factor(sys);
    eta = std::min(eta, 1.5);  // cost-model efficiency bound

    const double epts = static_cast<double>(cfg.nx1) * cfg.nx1 * cfg.nx1;
    const double n = cfg.elems_per_rank * epts;  // local dofs

    // ax kernel: exact flop count from kern::NekMesh (cross-checked by
    // tests); traffic: u + w + 6 geometry arrays stream from memory, the
    // contraction temporaries stay in cache.
    ComputePhase ax;
    ax.label = "ax";
    ax.flops = kern::NekMesh::ax_flops(cfg.elems_per_rank, cfg.nx1);
    ax.main_bytes = 8.0 * n * (1.0 + 1.0 + 6.0);
    ax.cache_bytes = 8.0 * n * 6.0;      // ur/us/ut read+write in LLC
    ax.working_set = 8.0 * n * 8.0;      // streams the full element set
    ax.pattern = MemPattern::stream;
    ax.vector_fraction = 0.9;
    ax.parallel_fraction = 1.0;  // MPI-only in the paper's runs
    ax.efficiency = eta;

    // CG BLAS-1: 13n flops (2 dots + 3 updates), ~13 array sweeps.
    ComputePhase blas1;
    blas1.label = "cg-blas1";
    blas1.flops = 13.0 * n;
    blas1.main_bytes = 8.0 * n * 13.0;
    blas1.pattern = MemPattern::stream;
    blas1.efficiency = eta;

    // dssum face exchange: ranks form a chain of element slabs.
    const simmpi::Halo chain(simmpi::chain_neighbors(cfg.ranks));
    const double face_bytes = 8.0 * cfg.nx1 * cfg.nx1;

    const int sim_iters = std::min(cfg.cg_iters, 60);
    const double scale = static_cast<double>(cfg.cg_iters) / sim_iters;

    simmpi::ProgramSet ps(cfg.ranks);
    ps.mark("nekbone-cg");
    for (int it = 0; it < sim_iters; ++it) {
        ps.compute(ax);
        if (cfg.ranks > 1) ps.halo_exchange(chain, face_bytes);
        ps.compute(blas1);
        if (cfg.ranks > 1) {
            ps.allreduce(8);  // pAp
            ps.allreduce(8);  // rr
        }
    }

    AppResult out = run_on(sys, cfg.nodes, cfg.ranks, /*threads=*/1, tc.vec_quality,
                           std::move(ps), nekbone_bytes_per_rank(cfg), cfg.knobs);
    out.seconds *= scale;
    return out;
}

NekboneConfig nekbone_node_config(const arch::SystemSpec& sys, int nodes, bool fastmath) {
    NekboneConfig cfg;
    cfg.nodes = nodes;
    cfg.ranks = nodes * sys.node.cores();
    cfg.fastmath = fastmath;
    return cfg;
}

kern::CgResult nekbone_reference(int elems, int nx1, int iters) {
    const kern::NekMesh mesh(elems, nx1);
    std::vector<double> f(static_cast<std::size_t>(mesh.local_dofs()), 1.0);
    mesh.mask(f);
    std::vector<double> u(f.size(), 0.0);
    return mesh.cg(f, u, iters);
}

} // namespace armstice::apps
