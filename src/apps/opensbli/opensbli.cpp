#include "apps/opensbli/opensbli.hpp"

#include "arch/calibration.hpp"
#include "arch/toolchain.hpp"
#include "util/error.hpp"

#include <algorithm>
#include <cmath>

namespace armstice::apps {
namespace {

using arch::ComputePhase;
using arch::MemPattern;

} // namespace

double opensbli_bytes_per_rank(const OpensbliConfig& cfg, int ranks) {
    const double n3 = static_cast<double>(cfg.grid) * cfg.grid * cfg.grid;
    // OPS allocates ~30 field arrays (conservatives, primitives, fluxes,
    // RK work arrays) plus halo buffers and the replicated runtime.
    return 8.0 * n3 * 30.0 / ranks + 150e6;
}

AppResult run_opensbli(const arch::SystemSpec& sys, const OpensbliConfig& cfg) {
    ARMSTICE_CHECK(cfg.nodes >= 1, "bad opensbli config");
    const int ranks = cfg.ranks > 0 ? cfg.ranks : cfg.nodes * sys.node.cores();
    const auto tc = arch::toolchain_for(sys.name, "opensbli");
    const double eta = arch::calib::opensbli_efficiency(sys);
    const double kernel_ovh = arch::calib::opensbli_kernel_overhead(sys);

    const double n3 = static_cast<double>(cfg.grid) * cfg.grid * cfg.grid;

    ComputePhase stencil;
    stencil.label = "ops-kernels";
    stencil.flops = n3 * kern::TaylorGreen::step_flops_per_point() / ranks;
    stencil.main_bytes = n3 * kern::TaylorGreen::step_bytes_per_point() / ranks;
    // OPS-generated kernels access fields through block/index indirection.
    stencil.pattern = MemPattern::gather;
    stencil.vector_fraction = 0.7;
    stencil.efficiency = eta;
    stencil.overhead_s = cfg.kernels_per_step * kernel_ovh;

    // 3D Cartesian decomposition; halos carry 2 ghost layers of 5 variables.
    const auto dims = simmpi::dims_create(ranks, 3);
    const simmpi::Halo halo(simmpi::cart_neighbors(dims, /*periodic=*/true));
    const double face_pts =
        std::pow(n3 / ranks, 2.0 / 3.0);  // points per subdomain face
    const double halo_bytes = 8.0 * 5.0 * 2.0 * face_pts;

    const int sim_steps = std::min(cfg.steps, 60);
    const double scale = static_cast<double>(cfg.steps) / sim_steps;

    // One RK stage is a third of the step stencil; scale once, not per stage.
    const ComputePhase stage_stencil = stencil.scaled(1.0 / 3.0);

    simmpi::ProgramSet ps(ranks);
    ps.mark("opensbli-tgv");
    for (int s = 0; s < sim_steps; ++s) {
        // OPS exchanges halos once per RK stage (3 per step).
        for (int stage = 0; stage < 3; ++stage) {
            if (ranks > 1) ps.halo_exchange(halo, halo_bytes);
            ps.compute(stage_stencil);
        }
    }

    AppResult out = run_on(sys, cfg.nodes, ranks, /*threads=*/1, tc.vec_quality,
                           std::move(ps), opensbli_bytes_per_rank(cfg, ranks), cfg.knobs);
    out.seconds *= scale;
    return out;
}

TgvReference opensbli_reference(int grid, int steps) {
    kern::TaylorGreen tg(grid);
    TgvReference ref;
    ref.ke_initial = tg.kinetic_energy();
    const double m0 = tg.total_mass();
    for (int s = 0; s < steps; ++s) tg.step(tg.stable_dt(), &ref.counts);
    ref.ke_final = tg.kinetic_energy();
    ref.mass_drift = std::abs(tg.total_mass() - m0) / std::abs(m0);
    return ref;
}

} // namespace armstice::apps
