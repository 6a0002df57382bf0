// Pins the engine-internal contracts the scaling work in this PR relies on:
// the noise_sample(rank, op_index) stream (results are bit-identical only
// while this function is), the phase-label interner, ProgramBundle structural
// dedup, the take()/take_bundle() bit-identity promise, and the
// distance-aware alltoall pricing (block vs round-robin placement).

#include "arch/system.hpp"
#include "net/collectives.hpp"
#include "sim/engine.hpp"
#include "simmpi/minimpi.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

namespace aa = armstice::arch;
namespace an = armstice::net;
namespace as = armstice::sim;
namespace am = armstice::simmpi;

namespace {

aa::ComputePhase phase(const char* label, double flops, double bytes) {
    aa::ComputePhase p;
    p.label = label;
    p.flops = flops;
    p.main_bytes = bytes;
    p.pattern = aa::MemPattern::stream;
    p.efficiency = 0.8;
    return p;
}

// ---- noise_sample ----------------------------------------------------------

// The OS-noise stretch applied to compute op `pc` on rank `r` is
//   u  = (splitmix64(0x9e3779b97f4a7c15 ^ (r << 32) ^ pc) >> 11) * 2^-53
//   dt *= 1 + os_noise * min(8, -log1p(-u))
// Every golden in tests/engine/goldens bakes this stream in; changing the
// seed mix, the 53-bit mantissa draw, or the exponential clamp is a model
// change and must bump arch::kModelVersion.
TEST(NoiseSample, PinsExactFormula) {
    for (int rank : {0, 1, 47, 1023}) {
        for (std::size_t pc : {std::size_t{0}, std::size_t{1}, std::size_t{999},
                               std::size_t{1} << 40}) {
            std::uint64_t state = 0x9e3779b97f4a7c15ULL ^
                                  (static_cast<std::uint64_t>(rank) << 32) ^ pc;
            const double u =
                static_cast<double>(armstice::util::splitmix64(state) >> 11) *
                0x1.0p-53;
            const double expect = std::min(8.0, -std::log1p(-u));
            EXPECT_EQ(as::noise_sample(rank, pc), expect)
                << "rank " << rank << " pc " << pc;
        }
    }
}

TEST(NoiseSample, DeterministicAndBounded) {
    std::set<double> seen;
    for (int rank = 0; rank < 8; ++rank) {
        for (std::size_t pc = 0; pc < 64; ++pc) {
            const double v = as::noise_sample(rank, pc);
            EXPECT_EQ(v, as::noise_sample(rank, pc));  // pure function
            EXPECT_GE(v, 0.0);
            EXPECT_LE(v, 8.0);
            seen.insert(v);
        }
    }
    // The stream must vary by rank AND op index — a collapse to a few values
    // would mean the seed mix lost one of its inputs.
    EXPECT_GT(seen.size(), 500u);
}

// ---- phase-label interner --------------------------------------------------

TEST(PhaseTable, EmptyLabelIsAlwaysKNoPhase) {
    EXPECT_EQ(as::intern_phase_label(""), as::kNoPhase);
    EXPECT_EQ(as::kNoPhase, 0u);
}

TEST(PhaseTable, StableIdsAndRoundTrip) {
    const as::PhaseId a = as::intern_phase_label("engine-internals-spmv");
    const as::PhaseId b = as::intern_phase_label("engine-internals-symgs");
    EXPECT_NE(a, b);
    EXPECT_EQ(as::intern_phase_label("engine-internals-spmv"), a);
    EXPECT_EQ(as::phase_table().str(a), "engine-internals-spmv");
    EXPECT_EQ(as::phase_table().str(b), "engine-internals-symgs");
}

// ---- ProgramBundle structural sharing --------------------------------------

TEST(ProgramBundle, DedupsStructurallyIdenticalPrograms) {
    // Ranks 0 and 2 run the same program built independently; rank 1 differs
    // in a send destination, rank 3 in a phase's flop count.
    auto make = [](int dst, double flops) {
        as::Program p;
        p.compute(phase("halo-pack", flops, 4096));
        p.send(dst, 1024, 7);
        p.recv(as::kAnySource, 7);
        p.allreduce(8);
        return p;
    };
    std::vector<as::Program> progs;
    progs.push_back(make(1, 100.0));
    progs.push_back(make(0, 100.0));
    progs.push_back(make(1, 100.0));
    progs.push_back(make(1, 101.0));

    const auto bundle = as::ProgramBundle::from(std::move(progs));
    EXPECT_EQ(bundle.ranks(), 4);
    EXPECT_EQ(bundle.distinct(), 3);
    EXPECT_EQ(&bundle.of(0), &bundle.of(2));  // shared storage, not a copy
    EXPECT_NE(&bundle.of(0), &bundle.of(1));
    EXPECT_NE(&bundle.of(0), &bundle.of(3));
}

TEST(ProgramBundle, SharedIsSingleProgram) {
    as::Program p;
    p.compute(phase("spmd", 10.0, 10.0)).barrier();
    const auto bundle = as::ProgramBundle::shared(std::move(p), 48);
    EXPECT_EQ(bundle.ranks(), 48);
    EXPECT_EQ(bundle.distinct(), 1);
    EXPECT_EQ(&bundle.of(0), &bundle.of(47));
}

TEST(ProgramBundle, EqualCostDifferentLabelStaysDistinct) {
    // Same numeric cost inputs under two labels must not merge: per-phase
    // attribution (RunResult::phase_compute) depends on the label id.
    as::Program a;
    a.compute(phase("jacobi-x", 5.0, 40.0));
    as::Program b;
    b.compute(phase("jacobi-y", 5.0, 40.0));
    std::vector<as::Program> progs;
    progs.push_back(std::move(a));
    progs.push_back(std::move(b));
    const auto bundle = as::ProgramBundle::from(std::move(progs));
    EXPECT_EQ(bundle.distinct(), 2);
}

// ---- take() vs take_bundle() bit-identity ----------------------------------

am::ProgramSet mixed_workload(int ranks, int iters) {
    // SPMD prefix, then a rank-dependent middle (splits the rank groups),
    // then more SPMD — exercises one-group sharing AND per-group appends.
    am::ProgramSet ps(ranks);
    ps.mark("mixed");
    for (int it = 0; it < iters; ++it) {
        ps.compute(phase("stencil", 2.5e6, 1.6e7));
        ps.compute_by_rank([&](int r) {
            return phase("tail", 1e5 * (1 + r % 3), 8e5);
        });
        ps.halo_exchange({{1}, {0}}, 32768.0);
        ps.allreduce(8);
    }
    return ps;
}

TEST(ProgramSetBundle, BitIdenticalToPerRankVector) {
    const int ranks = 2;
    const as::Engine engine(
        aa::a64fx(), as::Placement::block(aa::a64fx().node, 1, ranks, 1), 0.8,
        aa::ModelKnobs{});

    const auto res_vec = engine.run(mixed_workload(ranks, 5).take());
    const auto res_bun = engine.run(mixed_workload(ranks, 5).take_bundle());

    EXPECT_EQ(res_vec.makespan, res_bun.makespan);  // exact, not NEAR
    EXPECT_EQ(res_vec.total_flops, res_bun.total_flops);
    ASSERT_EQ(res_vec.ranks.size(), res_bun.ranks.size());
    for (std::size_t r = 0; r < res_vec.ranks.size(); ++r) {
        EXPECT_EQ(res_vec.ranks[r].compute, res_bun.ranks[r].compute);
        EXPECT_EQ(res_vec.ranks[r].recv_wait, res_bun.ranks[r].recv_wait);
        EXPECT_EQ(res_vec.ranks[r].collective_wait,
                  res_bun.ranks[r].collective_wait);
        EXPECT_EQ(res_vec.ranks[r].finish, res_bun.ranks[r].finish);
    }
    EXPECT_EQ(res_vec.phase_compute, res_bun.phase_compute);
}

// ---- distance-aware alltoall (block vs round-robin) ------------------------

TEST(AlltoallPlacement, RoundRobinPricesAboveBlock) {
    // 6 ranks on 4 Fulhame nodes. Block packs (2,2,2,-): every rank has a
    // co-resident partner, so one of the 5 pairwise rounds stays on-node.
    // Round-robin scatters (2,2,1,1): the ranks alone on nodes 2 and 3 cross
    // the fabric for all 5 rounds, and the collective finishes when they do.
    // The old uniform-round-split model priced both layouts identically.
    const auto& sys = aa::fulhame();
    const int nodes = 4, ranks = 6;

    am::ProgramSet ps_b(ranks), ps_r(ranks);
    ps_b.alltoall(4096);
    ps_r.alltoall(4096);

    const as::Engine block(sys, as::Placement::block(sys.node, nodes, ranks, 1),
                           0.8, aa::ModelKnobs{});
    const as::Engine rr(
        sys, as::Placement::round_robin(sys.node, nodes, ranks, 1), 0.8,
        aa::ModelKnobs{});

    const double t_block = block.run(ps_b.take_bundle()).makespan;
    const double t_rr = rr.run(ps_r.take_bundle()).makespan;
    EXPECT_GT(t_rr, t_block);

    // Same contrast straight at the model: min occupancy 1 vs 2 with every
    // other layout field equal.
    const an::CollectiveModel coll(block.network());
    EXPECT_GT(coll.alltoall({4, 2, 6, 1}, 4096.0),
              coll.alltoall({3, 2, 6, 2}, 4096.0));
}

} // namespace
