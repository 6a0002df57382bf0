// simmpi::ProgramSet's rank groups (DESIGN.md §8): the set builds one
// program per group and splits a group only where the ranks' appended
// content differs, so take_bundle() must hand the engine exactly the
// partition ProgramBundle::from would find by dedup. These property tests
// drive seeded random mixes of SPMD ops, compute_by_rank and halo exchanges
// through three builders at once — a ProgramSet for take_bundle(), one for
// take(), and a naive per-rank vector that appends every op to every rank —
// and check the partitions, every rank's program and the engine results.
// Mixes that reuse simmpi::Halo plans run the take_bundle() side through the
// plans and the take() side through the unplanned neighbour-list overloads,
// so a plan's refined-partition skip is checked against a fresh refinement.

#include "arch/system.hpp"
#include "sim/check.hpp"
#include "sim/engine.hpp"
#include "simmpi/minimpi.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace {

namespace aa = armstice::arch;
namespace as = armstice::sim;
namespace am = armstice::simmpi;
namespace ck = armstice::sim::check;
namespace au = armstice::util;

using Neighbors = std::vector<std::vector<int>>;

aa::ComputePhase phase(const std::string& label, double flops) {
    aa::ComputePhase p;
    p.label = label;
    p.flops = flops;
    p.main_bytes = 8.0 * flops;
    p.pattern = aa::MemPattern::stream;
    p.efficiency = 0.8;
    return p;
}

/// Applies every op to two ProgramSets and to a naive per-rank reference.
struct Builder {
    explicit Builder(int ranks)
        : bundle_side(ranks), vector_side(ranks), ref(static_cast<std::size_t>(ranks)) {}

    int ranks() const { return bundle_side.ranks(); }

    template <typename F>
    void each_set(F&& f) {
        f(bundle_side);
        f(vector_side);
    }

    void compute(const aa::ComputePhase& p) {
        each_set([&](am::ProgramSet& ps) { ps.compute(p); });
        for (auto& prog : ref) prog.compute(p);
    }
    void allreduce(double bytes) {
        each_set([&](am::ProgramSet& ps) { ps.allreduce(bytes); });
        for (auto& prog : ref) prog.allreduce(bytes);
    }
    void barrier() {
        each_set([](am::ProgramSet& ps) { ps.barrier(); });
        for (auto& prog : ref) prog.barrier();
    }
    void alltoall(double bytes) {
        each_set([&](am::ProgramSet& ps) { ps.alltoall(bytes); });
        for (auto& prog : ref) prog.alltoall(bytes);
    }
    void mark(const std::string& label) {
        each_set([&](am::ProgramSet& ps) { ps.mark(label); });
        for (auto& prog : ref) prog.mark(label);
    }
    template <typename F>
    void compute_by_rank(F&& make) {
        each_set([&](am::ProgramSet& ps) { ps.compute_by_rank(make); });
        for (int r = 0; r < ranks(); ++r) ref[static_cast<std::size_t>(r)].compute(make(r));
    }
    void halo(const Neighbors& nb, double bytes, int tag) {
        each_set([&](am::ProgramSet& ps) { ps.halo_exchange(nb, bytes, tag); });
        std::vector<std::vector<double>> by(nb.size());
        for (std::size_t r = 0; r < nb.size(); ++r) by[r].assign(nb[r].size(), bytes);
        ref_halo(nb, by, tag);
    }
    void halo(const Neighbors& nb, const std::vector<std::vector<double>>& by, int tag) {
        each_set([&](am::ProgramSet& ps) { ps.halo_exchange(nb, by, tag); });
        ref_halo(nb, by, tag);
    }
    /// Planned exchange on the bundle side, unplanned on the vector side.
    void halo(const am::Halo& plan, const Neighbors& nb, double bytes, int tag) {
        bundle_side.halo_exchange(plan, bytes, tag);
        vector_side.halo_exchange(nb, bytes, tag);
        std::vector<std::vector<double>> by(nb.size());
        for (std::size_t r = 0; r < nb.size(); ++r) by[r].assign(nb[r].size(), bytes);
        ref_halo(nb, by, tag);
    }
    void halo(const am::Halo& plan, const Neighbors& nb,
              const std::vector<std::vector<double>>& by, int tag) {
        bundle_side.halo_exchange(plan, by, tag);
        vector_side.halo_exchange(nb, by, tag);
        ref_halo(nb, by, tag);
    }
    void ref_halo(const Neighbors& nb, const std::vector<std::vector<double>>& by, int tag) {
        for (int r = 0; r < ranks(); ++r) {
            auto& prog = ref[static_cast<std::size_t>(r)];
            const auto& n = nb[static_cast<std::size_t>(r)];
            for (std::size_t i = 0; i < n.size(); ++i) {
                prog.send_rel(n[i] - r, by[static_cast<std::size_t>(r)][i], tag);
            }
            for (int x : n) prog.recv_rel(x - r, tag);
        }
    }

    am::ProgramSet bundle_side;
    am::ProgramSet vector_side;
    std::vector<as::Program> ref;
};

/// Rank -> first rank running the same program object: the partition a
/// bundle induces, independent of how its distinct programs are numbered.
std::vector<int> partition(const as::ProgramBundle& b) {
    std::map<const as::Program*, int> first;
    std::vector<int> out;
    for (int r = 0; r < b.ranks(); ++r) out.push_back(first.emplace(&b.of(r), r).first->second);
    return out;
}

/// Pairs up ranks [lo, hi) as (lo, lo+1), (lo+2, lo+3), ...; the rest idle.
/// Sliding the window between exchanges gives ranks that fall out of step
/// and realign, the case where groups must merge again.
Neighbors window_pairs(int ranks, int lo, int hi) {
    Neighbors nb(static_cast<std::size_t>(ranks));
    for (int r = lo; r + 1 < hi; r += 2) {
        nb[static_cast<std::size_t>(r)].push_back(r + 1);
        nb[static_cast<std::size_t>(r + 1)].push_back(r);
    }
    return nb;
}

Neighbors random_neighbors(au::Rng& rng, int ranks) {
    switch (rng.next_below(4)) {
    case 0: {
        const int ndims = 1 + static_cast<int>(rng.next_below(3));
        return am::cart_neighbors(am::dims_create(ranks, ndims), rng.next_below(2) == 0);
    }
    case 1:
        return am::chain_neighbors(ranks, 1 + static_cast<int>(rng.next_below(
                                               static_cast<std::uint64_t>(ranks))));
    case 2:
        return am::chain_neighbors(ranks);
    default: {
        const int lo = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(ranks)));
        const int hi = lo + static_cast<int>(rng.next_below(
                                static_cast<std::uint64_t>(ranks - lo + 1)));
        return window_pairs(ranks, lo, hi);
    }
    }
}

/// A pool of planned graphs that later exchanges draw from again.
struct PlanPool {
    std::vector<Neighbors> graphs;
    std::vector<am::Halo> plans;

    std::size_t add(Neighbors nb) {
        plans.emplace_back(nb);
        graphs.push_back(std::move(nb));
        return plans.size() - 1;
    }
};

/// One seeded mix of 6-20 ops over 1-40 ranks. With `reuse`, halo exchanges
/// go through simmpi::Halo plans, and half of them reuse an earlier plan
/// (with `reuse` off the draws are exactly those of the unplanned mixes).
Builder random_mix(std::uint64_t seed, bool reuse = false) {
    au::Rng rng(seed);
    const int ranks = 1 + static_cast<int>(rng.next_below(40));
    Builder b(ranks);
    PlanPool pool;
    // Exchange over a fresh graph, or (reuse: half the time) an old plan.
    const auto exchange = [&](Neighbors fresh, double bytes, int tag) {
        if (!reuse) {
            b.halo(fresh, bytes, tag);
            return;
        }
        std::size_t k;
        if (!pool.plans.empty() && rng.next_below(2) == 0) {
            k = rng.next_below(pool.plans.size());
        } else {
            k = pool.add(std::move(fresh));
        }
        b.halo(pool.plans[k], pool.graphs[k], bytes, tag);
    };
    const int ops = (reuse ? 12 : 6) + static_cast<int>(rng.next_below(15));
    for (int op = 0; op < ops; ++op) {
        switch (rng.next_below(9)) {
        case 0:
            b.compute(phase("spmv", 1.0e6 * static_cast<double>(1 + rng.next_below(3))));
            break;
        case 1:
            b.allreduce(8.0 * static_cast<double>(1 + rng.next_below(4)));
            break;
        case 2:
            if (rng.next_below(2) == 0) {
                b.barrier();
            } else {
                b.alltoall(64.0);
            }
            break;
        case 3:
            b.mark(rng.next_below(2) == 0 ? "phase-a" : "phase-b");
            break;
        case 4: {
            // 1-3 distinct phases, assigned to ranks by a seeded hash.
            const std::uint64_t kinds = 1 + rng.next_below(3);
            const std::uint64_t salt = rng.next_u64();
            b.compute_by_rank([=](int r) {
                std::uint64_t s = salt ^ static_cast<std::uint64_t>(r);
                const std::uint64_t k = au::splitmix64(s) % kinds;
                return phase(k == 2 ? "by-rank-b" : "by-rank",
                             1.0e5 * static_cast<double>(1 + k % 2));
            });
            break;
        }
        case 5:
        case 6: {
            Neighbors nb = random_neighbors(rng, ranks);
            const double bytes = 1.0e3 * static_cast<double>(1 + rng.next_below(3));
            exchange(std::move(nb), bytes, static_cast<int>(rng.next_below(3)));
            break;
        }
        case 7: {
            // Two back-to-back exchanges over disjoint windows: the ranks of
            // the second window catch up with those of the first, and their
            // groups must merge again.
            const int w = 2 * (1 + static_cast<int>(rng.next_below(
                                       static_cast<std::uint64_t>(ranks / 4 + 1))));
            const int lo = static_cast<int>(rng.next_below(2));
            exchange(window_pairs(ranks, lo, std::min(ranks, lo + w)), 256.0, 5);
            exchange(window_pairs(ranks, lo + w, std::min(ranks, lo + 2 * w)), 256.0, 5);
            break;
        }
        default: {
            // Asymmetric per-rank bytes drawn from a small set, so some
            // ranks coincide and some split.
            const Neighbors nb = random_neighbors(rng, ranks);
            std::vector<std::vector<double>> by(nb.size());
            for (std::size_t r = 0; r < nb.size(); ++r) {
                for (std::size_t i = 0; i < nb[r].size(); ++i) {
                    by[r].push_back(512.0 * static_cast<double>(1 + rng.next_below(3)));
                }
            }
            if (reuse) {
                b.halo(pool.plans[pool.add(nb)], nb, by, 7);
            } else {
                b.halo(nb, by, 7);
            }
            break;
        }
        }
    }
    return b;
}

/// Partition, programs and engine results of a built mix against dedup
/// and the naive per-rank programs.
void check_mix(Builder& b, std::uint64_t seed) {
    const int ranks = b.ranks();
    for (int r = 0; r < ranks; ++r) {
        ASSERT_TRUE(b.bundle_side.of(r) == b.ref[static_cast<std::size_t>(r)]) << "rank " << r;
    }

    const as::ProgramBundle bundle = b.bundle_side.take_bundle();
    const std::vector<as::Program> vec = b.vector_side.take();
    const as::ProgramBundle oracle = as::ProgramBundle::from(vec);
    ASSERT_EQ(bundle.ranks(), ranks);
    ASSERT_EQ(static_cast<int>(vec.size()), ranks);
    EXPECT_EQ(partition(bundle), partition(oracle));
    EXPECT_EQ(bundle.distinct(), oracle.distinct());
    EXPECT_EQ(partition(bundle), partition(as::ProgramBundle::from(b.ref)));
    for (int r = 0; r < ranks; ++r) {
        const auto ur = static_cast<std::size_t>(r);
        EXPECT_TRUE(bundle.of(r) == vec[ur]) << "rank " << r;
        EXPECT_TRUE(vec[ur] == b.ref[ur]) << "rank " << r;
    }

    // Odd seeds keep rank-keyed OS noise (every class splits at its
    // first compute op), even seeds run quiet so classes stay merged.
    aa::ModelKnobs knobs;
    if (seed % 2 == 0) knobs.os_noise = 0.0;
    const int nodes = ranks >= 2 ? 2 : 1;
    const as::Engine eng(aa::fulhame(),
                         as::Placement::block(aa::fulhame().node, nodes, ranks, 1), 0.8,
                         knobs);
    EXPECT_EQ(ck::diff_results(eng.run(bundle), eng.run(vec)), "");
}

TEST(ProgramGroups, RandomMixesMatchDedupAndPerRankPrograms) {
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Builder b = random_mix(seed);
        check_mix(b, seed);
    }
}

TEST(ProgramGroups, RandomMixesReusingPlansMatchDedupAndPerRankPrograms) {
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Builder b = random_mix(seed, /*reuse=*/true);
        check_mix(b, seed);
    }
}

TEST(ProgramGroups, RealignedRanksMergeBackIntoOneGroup) {
    // Ranks 0/1 exchange first, ranks 2/3 second: afterwards rank 2's program
    // equals rank 0's and rank 3's equals rank 1's, as dedup would find.
    am::ProgramSet ps(4);
    ps.halo_exchange(window_pairs(4, 0, 2), 64.0);
    EXPECT_TRUE(&ps.of(2) == &ps.of(3));  // groups {0}, {1}, idle {2, 3}
    EXPECT_FALSE(&ps.of(0) == &ps.of(2));
    ps.halo_exchange(window_pairs(4, 2, 4), 64.0);
    EXPECT_TRUE(&ps.of(0) == &ps.of(2));
    EXPECT_TRUE(&ps.of(1) == &ps.of(3));
    ps.allreduce(8);
    const auto bundle = ps.take_bundle();
    EXPECT_EQ(bundle.distinct(), 2);
    EXPECT_EQ(partition(bundle), (std::vector<int>{0, 1, 0, 1}));
}

TEST(ProgramGroups, ReusedPlanSplitsGroupsARealignedMergeJoined) {
    // After the merge, group {0, 2} holds rank 0 (offset +1 in plan A) and
    // idle rank 2: plan A no longer refines the partition, so exchanging
    // over it again must split the group rather than append rank 0's ops.
    const am::Halo a(window_pairs(4, 0, 2));
    const am::Halo b(window_pairs(4, 2, 4));
    Builder ref(4);
    ref.halo(a, window_pairs(4, 0, 2), 64.0, 0);
    ref.halo(b, window_pairs(4, 2, 4), 64.0, 0);
    EXPECT_TRUE(&ref.bundle_side.of(0) == &ref.bundle_side.of(2));
    ref.halo(a, window_pairs(4, 0, 2), 64.0, 1);
    EXPECT_FALSE(&ref.bundle_side.of(0) == &ref.bundle_side.of(2));
    check_mix(ref, 2);
}

TEST(ProgramGroups, PlanReusedOverIterationsMatchesUnplannedBuild) {
    // An HPCG-shaped loop: one plan, many exchanges with changing bytes and
    // tags, compute and reductions in between.
    for (const bool periodic : {false, true}) {
        const Neighbors nb = am::cart_neighbors({4, 3, 2}, periodic);
        const am::Halo plan(nb);
        Builder b(24);
        for (int it = 0; it < 40; ++it) {
            b.halo(plan, nb, 512.0 * static_cast<double>(1 + it % 3), it % 4);
            b.compute(phase("spmv", 1.0e6));
            if (it % 5 == 0) b.allreduce(8);
        }
        check_mix(b, static_cast<std::uint64_t>(periodic));
    }
}

TEST(ProgramGroups, HaloPlanClassesRanksByOffsets) {
    const am::Halo chain(am::chain_neighbors(6, /*active=*/4));
    EXPECT_EQ(chain.ranks(), 6);
    // First (+1), interior (-1, +1), last active (-1), idle ().
    EXPECT_EQ(chain.class_of(1), chain.class_of(2));
    EXPECT_EQ(chain.class_of(4), chain.class_of(5));
    EXPECT_NE(chain.class_of(0), chain.class_of(1));
    EXPECT_NE(chain.class_of(0), chain.class_of(3));
    EXPECT_NE(chain.class_of(0), chain.class_of(4));
    EXPECT_NE(chain.class_of(1), chain.class_of(3));
    EXPECT_NE(chain.class_of(1), chain.class_of(4));
    EXPECT_NE(chain.class_of(3), chain.class_of(4));
    EXPECT_EQ(chain.offsets(chain.class_of(0)), (std::vector<int>{1}));
    EXPECT_EQ(chain.offsets(chain.class_of(2)), (std::vector<int>{-1, 1}));
    const am::Halo copy = chain;
    EXPECT_EQ(copy.id(), chain.id());
    EXPECT_NE(am::Halo(am::chain_neighbors(6)).id(), chain.id());
}

TEST(ProgramGroups, InvalidPlanOrSizesLeaveProgramsUntouched) {
    EXPECT_THROW(am::Halo({{1}, {2}, {1}}), armstice::util::Error);  // asymmetric
    EXPECT_THROW(am::Halo({{3}, {}, {}}), armstice::util::Error);     // out of range
    EXPECT_THROW(am::Halo({{-1}, {}}), armstice::util::Error);
    am::ProgramSet ps(3);
    ps.compute(phase("a", 1.0));
    const am::Halo two(am::chain_neighbors(2));
    const am::Halo three(am::chain_neighbors(3));
    EXPECT_THROW(ps.halo_exchange(two, 1.0), armstice::util::Error);  // wrong rank count
    EXPECT_THROW(ps.halo_exchange(three, std::vector<std::vector<double>>{{1.0}, {1.0, 1.0}}),
                 armstice::util::Error);  // too few rows
    EXPECT_THROW(ps.halo_exchange(three,
                                  std::vector<std::vector<double>>{{1.0}, {1.0}, {1.0}}),
                 armstice::util::Error);  // rank 1 has two neighbours
    EXPECT_TRUE(ps.spmd());
    for (int r = 0; r < 3; ++r) EXPECT_EQ(ps.of(r).ops.size(), 1u);
    ps.halo_exchange(three, std::vector<std::vector<double>>{{1.0}, {1.0, 2.0}, {2.0}});
    EXPECT_EQ(ps.of(1).ops.size(), 5u);
}

TEST(ProgramGroups, CartesianHaloBuilds27Groups) {
    // Three x-, y- and z-positions each (low face, interior, high face).
    for (const bool periodic : {false, true}) {
        am::ProgramSet ps(6 * 5 * 4);
        const auto nb = am::cart_neighbors({6, 5, 4}, periodic);
        for (int it = 0; it < 3; ++it) {
            ps.halo_exchange(nb, 4096.0, it);
            ps.compute(phase("spmv", 1.0e6));
            ps.allreduce(8);
        }
        EXPECT_FALSE(ps.spmd());
        EXPECT_EQ(ps.take_bundle().distinct(), 27);
    }
}

TEST(ProgramGroups, SpmdMeansExactlyOneGroup) {
    am::ProgramSet ps(8);
    ps.mark("m").compute(phase("a", 1.0)).allreduce(8).barrier().alltoall(16);
    ps.compute_by_rank([](int) { return phase("uniform", 2.0); });
    EXPECT_TRUE(ps.spmd());
    EXPECT_TRUE(&ps.of(0) == &ps.of(7));
    ps.compute_by_rank([](int r) { return phase("split", r < 4 ? 1.0 : 2.0); });
    EXPECT_FALSE(ps.spmd());
    EXPECT_TRUE(&ps.of(0) == &ps.of(3));
    EXPECT_TRUE(&ps.of(4) == &ps.of(7));
    EXPECT_FALSE(&ps.of(0) == &ps.of(4));
    const auto bundle = ps.take_bundle();
    EXPECT_EQ(ps.ranks(), 0);
    EXPECT_EQ(bundle.distinct(), 2);
}

TEST(ProgramGroups, GroupedBundleRequiresFirstRankNumbering) {
    std::vector<as::Program> two(2);
    two[1].barrier();
    EXPECT_THROW((void)as::ProgramBundle::grouped(two, {1, 0}), armstice::util::Error);
    EXPECT_THROW((void)as::ProgramBundle::grouped(two, {0, 0}), armstice::util::Error);
    EXPECT_THROW((void)as::ProgramBundle::grouped(two, {0, 2}), armstice::util::Error);
    const auto bundle = as::ProgramBundle::grouped(two, {0, 1, 0});
    EXPECT_EQ(bundle.distinct(), 2);
    EXPECT_TRUE(&bundle.of(0) == &bundle.of(2));
}

TEST(ProgramGroups, InvalidHaloLeavesProgramsUntouched) {
    am::ProgramSet ps(3);
    ps.compute(phase("a", 1.0));
    // 0 -> 1 but 1 does not list 0: rejected before any op is appended.
    EXPECT_THROW(ps.halo_exchange({{1}, {2}, {1}}, 1.0), armstice::util::Error);
    EXPECT_TRUE(ps.spmd());
    EXPECT_EQ(ps.of(0).ops.size(), 1u);
}

} // namespace
