#include "simmpi/minimpi.hpp"

#include "util/error.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <numeric>
#include <utility>

namespace armstice::simmpi {

Halo::Halo(std::vector<std::vector<int>> neighbors) : neighbors_(std::move(neighbors)) {
    const int n = ranks();
    for (int r = 0; r < n; ++r) {
        for (int nb : neighbors_[static_cast<std::size_t>(r)]) {
            ARMSTICE_CHECK(nb >= 0 && nb < n, "neighbor out of range");
            // Exchange symmetry: we receive from everyone we send to. The
            // apps in this repo all use symmetric halo graphs; assert it.
            const auto& back = neighbors_[static_cast<std::size_t>(nb)];
            ARMSTICE_CHECK(std::find(back.begin(), back.end(), r) != back.end(),
                           "halo graph must be symmetric");
        }
    }
    // Class ranks by offset list. Runs of consecutive ranks usually share a
    // class (a Cartesian interior row), so try the previous rank's first.
    std::map<std::vector<int>, std::uint32_t> ids;
    class_of_.resize(neighbors_.size());
    std::vector<int> off;
    for (int r = 0; r < n; ++r) {
        off.clear();
        for (int nb : neighbors_[static_cast<std::size_t>(r)]) off.push_back(nb - r);
        std::uint32_t c;
        if (r > 0 && offsets_[class_of_[static_cast<std::size_t>(r) - 1]] == off) {
            c = class_of_[static_cast<std::size_t>(r) - 1];
        } else {
            const auto [it, fresh] = ids.emplace(off, static_cast<std::uint32_t>(offsets_.size()));
            if (fresh) offsets_.push_back(off);
            c = it->second;
        }
        class_of_[static_cast<std::size_t>(r)] = c;
    }
    static std::atomic<std::uint64_t> next_id{1};
    id_ = next_id.fetch_add(1, std::memory_order_relaxed);
}

ProgramSet::ProgramSet(int ranks) : nranks_(ranks) {
    ARMSTICE_CHECK(ranks >= 1, "ProgramSet needs >=1 rank");
    groups_.resize(1);
    group_of_.assign(static_cast<std::size_t>(ranks), 0);
    first_.assign(1, 0);
}

const sim::Program& ProgramSet::of(int rank) const {
    ARMSTICE_CHECK(rank >= 0 && rank < ranks(), "rank out of range");
    return groups_[group_of_[static_cast<std::size_t>(rank)]];
}

ProgramSet& ProgramSet::compute(const arch::ComputePhase& phase) {
    // Intern and sign once per call, not once per group.
    const sim::PhaseId label_id = sim::intern_phase_label(phase.label);
    const std::uint64_t cost_key = arch::cost_signature(phase);
    for (auto& p : groups_) p.compute(phase, label_id, cost_key);
    return *this;
}

ProgramSet& ProgramSet::allreduce(double bytes) {
    for (auto& p : groups_) p.allreduce(bytes);
    return *this;
}

ProgramSet& ProgramSet::barrier() {
    for (auto& p : groups_) p.barrier();
    return *this;
}

ProgramSet& ProgramSet::alltoall(double bytes_each) {
    for (auto& p : groups_) p.alltoall(bytes_each);
    return *this;
}

ProgramSet& ProgramSet::mark(const std::string& label) {
    for (auto& p : groups_) p.mark(label);
    return *this;
}

template <typename Bytes>
void ProgramSet::halo(const Halo& plan, Bytes&& bytes, bool uniform, int tag) {
    ARMSTICE_CHECK(plan.ranks() == ranks(), "neighbor lists must cover all ranks");
    // Emit *relative* p2p ops (dst/src as rank offsets): the offsets are the
    // neighbour relationship itself, so every interior rank of a Cartesian
    // halo appends the same ops and stays in one group, and the engine's
    // rank-equivalence collapse (DESIGN.md §11) executes the whole interior
    // as O(surface) merged classes instead of O(ranks) singletons — the
    // simulated timings are identical to the absolute form either way.
    // Ranks r and s append equal ops (SendOp/RecvOp ==) exactly when their
    // offset classes and payloads match, so the groups are refined by class
    // (and, for per-rank payloads, by payload row). A partition that already
    // refines the plan's classes needs no uniform-bytes refinement at all.
    const bool known =
        std::find(refined_.begin(), refined_.end(), plan.id()) != refined_.end();
    if (!uniform) {
        refine([](int r) { return r; }, [&](int r, int s) {
            if (plan.class_of(r) != plan.class_of(s)) return false;
            for (std::size_t i = 0; i < plan.neighbors(r).size(); ++i) {
                if (!(bytes(r, i) == bytes(s, i))) return false;
            }
            return true;
        });
    } else if (!known) {
        refine([&](int r) { return plan.class_of(r); }, std::equal_to<>());
    }
    if (!known) {
        // Forgetting a plan only costs one more refinement, so keep a few.
        constexpr std::size_t kRefinedCap = 8;
        if (refined_.size() == kRefinedCap) refined_.erase(refined_.begin());
        refined_.push_back(plan.id());
    }
    std::vector<std::size_t> before(groups_.size());
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        auto& prog = groups_[g];
        before[g] = prog.ops.size();
        const int r = first_[g];
        const auto& off = plan.offsets(plan.class_of(r));
        // All sends first, then matching receives (one per inbound edge).
        for (std::size_t i = 0; i < off.size(); ++i) prog.send_rel(off[i], bytes(r, i), tag);
        for (int d : off) prog.recv_rel(d, tag);
    }
    merge_equal_groups(before);
}

void ProgramSet::merge_equal_groups(const std::vector<std::size_t>& before) {
    // Groups are pairwise distinct on entry to halo(). Two that had equal
    // lengths differ at an op both still hold, so they stay distinct; only a
    // pair whose lengths differed before the exchange and match after it can
    // have become equal (the shorter was a prefix of the longer). Apps never
    // produce such a pair, but dedup would merge it, so this does too.
    const std::size_t n = groups_.size();
    if (n < 2 ||
        std::all_of(before.begin(), before.end(), [&](std::size_t b) { return b == before[0]; })) {
        return;
    }
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0U);
    const auto len = [&](std::uint32_t g) { return groups_[g].ops.size(); };
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
        return std::make_pair(len(a), before[a]) < std::make_pair(len(b), before[b]);
    });
    std::vector<std::uint32_t> into(n);
    std::iota(into.begin(), into.end(), 0U);
    bool merged = false;
    for (std::size_t i = 0, j = 0; i < n; i = j) {
        for (j = i + 1; j < n && len(order[j]) == len(order[i]); ++j) {
        }
        for (std::size_t a = i; a < j; ++a) {
            const std::uint32_t ga = order[a];
            if (into[ga] != ga) continue;
            for (std::size_t b = a + 1; b < j; ++b) {
                const std::uint32_t gb = order[b];
                if (before[gb] != before[ga] && into[gb] == gb && groups_[ga] == groups_[gb]) {
                    into[gb] = ga;
                    merged = true;
                }
            }
        }
    }
    if (!merged) return;
    // A merged group can hold ranks of different offset classes of an
    // earlier plan (or of this one): the pair only has to end up equal.
    refined_.clear();
    std::vector<std::uint32_t> renum(n);
    std::vector<sim::Program> kept;
    std::vector<int> kept_first;
    for (std::uint32_t g = 0; g < n; ++g) {
        if (into[g] != g) continue;
        renum[g] = static_cast<std::uint32_t>(kept.size());
        kept.push_back(std::move(groups_[g]));
        kept_first.push_back(first_[g]);
    }
    for (std::uint32_t g = 0; g < n; ++g) {
        int& f = kept_first[renum[into[g]]];
        f = std::min(f, first_[g]);
    }
    for (auto& g : group_of_) g = renum[into[g]];
    groups_ = std::move(kept);
    first_ = std::move(kept_first);
}

ProgramSet& ProgramSet::halo_exchange(const Halo& plan, double bytes_per_neighbor, int tag) {
    halo(plan, [bytes_per_neighbor](int, std::size_t) { return bytes_per_neighbor; },
         /*uniform=*/true, tag);
    return *this;
}

ProgramSet& ProgramSet::halo_exchange(const Halo& plan,
                                      const std::vector<std::vector<double>>& bytes, int tag) {
    ARMSTICE_CHECK(static_cast<int>(bytes.size()) == plan.ranks(), "bytes lists must match");
    for (int r = 0; r < plan.ranks(); ++r) {
        ARMSTICE_CHECK(plan.neighbors(r).size() == bytes[static_cast<std::size_t>(r)].size(),
                       "neighbor/bytes length mismatch");
    }
    halo(plan, [&](int r, std::size_t i) { return bytes[static_cast<std::size_t>(r)][i]; },
         /*uniform=*/false, tag);
    return *this;
}

ProgramSet& ProgramSet::halo_exchange(const std::vector<std::vector<int>>& neighbors,
                                      const std::vector<std::vector<double>>& bytes,
                                      int tag) {
    return halo_exchange(Halo(neighbors), bytes, tag);
}

ProgramSet& ProgramSet::halo_exchange(const std::vector<std::vector<int>>& neighbors,
                                      double bytes_per_neighbor, int tag) {
    return halo_exchange(Halo(neighbors), bytes_per_neighbor, tag);
}

std::vector<sim::Program> ProgramSet::take() {
    std::vector<sim::Program> out;
    out.reserve(group_of_.size());
    for (const std::uint32_t g : group_of_) out.push_back(groups_[g]);
    nranks_ = 0;
    groups_.clear();
    group_of_.clear();
    first_.clear();
    refined_.clear();
    return out;
}

sim::ProgramBundle ProgramSet::take_bundle() {
    // Renumber groups by first rank (ProgramBundle::from's numbering),
    // reusing group_of_ as the bundle's rank -> program index.
    constexpr std::uint32_t kNone = UINT32_MAX;
    std::vector<std::uint32_t> renum(groups_.size(), kNone);
    std::vector<sim::Program> distinct;
    distinct.reserve(groups_.size());
    std::vector<std::uint32_t> index = std::move(group_of_);
    for (auto& g : index) {
        if (renum[g] == kNone) {
            renum[g] = static_cast<std::uint32_t>(distinct.size());
            distinct.push_back(std::move(groups_[g]));
        }
        g = renum[g];
    }
    nranks_ = 0;
    groups_.clear();
    group_of_.clear();
    first_.clear();
    refined_.clear();
    return sim::ProgramBundle::grouped(std::move(distinct), std::move(index));
}

long chunk_size(long n, int p, int i) {
    ARMSTICE_CHECK(p >= 1 && i >= 0 && i < p, "bad chunk index");
    const long base = n / p;
    return base + (i < n % p ? 1 : 0);
}

long chunk_begin(long n, int p, int i) {
    ARMSTICE_CHECK(p >= 1 && i >= 0 && i < p, "bad chunk index");
    const long base = n / p;
    const long extra = n % p;
    return i * base + std::min<long>(i, extra);
}

std::vector<int> dims_create(int p, int ndims) {
    ARMSTICE_CHECK(p >= 1 && ndims >= 1, "bad dims_create input");
    std::vector<int> dims(static_cast<std::size_t>(ndims), 1);
    // Collect prime factors, then greedily assign the largest remaining
    // factor to the smallest dimension (MPI_Dims_create's balanced shape:
    // 48 -> 4x4x3, not 6x4x2).
    std::vector<int> factors;
    int rest = p;
    for (int f = 2; rest > 1;) {
        if (rest % f == 0) {
            factors.push_back(f);
            rest /= f;
        } else {
            ++f;
        }
    }
    std::sort(factors.begin(), factors.end(), std::greater<int>());
    for (int f : factors) {
        *std::min_element(dims.begin(), dims.end()) *= f;
    }
    std::sort(dims.begin(), dims.end(), std::greater<int>());
    return dims;
}

std::vector<std::vector<int>> cart_neighbors(const std::vector<int>& dims,
                                             bool periodic) {
    int p = 1;
    for (int d : dims) {
        ARMSTICE_CHECK(d >= 1, "bad cart dims");
        p *= d;
    }
    const int nd = static_cast<int>(dims.size());
    auto coords = [&](int rank) {
        std::vector<int> c(static_cast<std::size_t>(nd));
        for (int i = 0; i < nd; ++i) {
            c[static_cast<std::size_t>(i)] = rank % dims[static_cast<std::size_t>(i)];
            rank /= dims[static_cast<std::size_t>(i)];
        }
        return c;
    };
    auto rank_of = [&](const std::vector<int>& c) {
        int rank = 0;
        for (int i = nd - 1; i >= 0; --i) {
            rank = rank * dims[static_cast<std::size_t>(i)] + c[static_cast<std::size_t>(i)];
        }
        return rank;
    };

    std::vector<std::vector<int>> out(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
        const auto c = coords(r);
        for (int i = 0; i < nd; ++i) {
            const int d = dims[static_cast<std::size_t>(i)];
            if (d == 1) continue;
            for (int dir : {-1, +1}) {
                auto cc = c;
                int v = cc[static_cast<std::size_t>(i)] + dir;
                if (v < 0 || v >= d) {
                    if (!periodic) continue;
                    v = (v + d) % d;
                }
                cc[static_cast<std::size_t>(i)] = v;
                const int nb = rank_of(cc);
                if (nb != r) out[static_cast<std::size_t>(r)].push_back(nb);
            }
        }
        // Periodic dims of size 2 produce the same neighbour twice; dedupe.
        auto& v = out[static_cast<std::size_t>(r)];
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
    }
    return out;
}

std::vector<std::vector<int>> chain_neighbors(int ranks, int active) {
    ARMSTICE_CHECK(ranks >= 1, "chain_neighbors needs >=1 rank");
    if (active < 0) active = ranks;
    ARMSTICE_CHECK(active <= ranks, "active ranks exceed rank count");
    std::vector<std::vector<int>> out(static_cast<std::size_t>(ranks));
    for (int r = 0; r < active; ++r) {
        if (r > 0) out[static_cast<std::size_t>(r)].push_back(r - 1);
        if (r + 1 < active) out[static_cast<std::size_t>(r)].push_back(r + 1);
    }
    return out;
}

} // namespace armstice::simmpi
