#pragma once
// MiniMpi — the program-builder facade application skeletons use to express
// their communication structure. It looks like a tiny MPI: SPMD helpers emit
// the same op into every rank's Program; halo_exchange emits the
// sends-before-receives ordering that is deadlock-free under the engine's
// eager-send semantics (mirroring nonblocking-irecv/isend/waitall codes).
//
// Building keeps ranks in *groups*: every group is one sim::Program that all
// of its ranks share, and group_of_ maps each rank to its group. A fresh set
// is one group. SPMD helpers append once per group; the rank-dependent
// helpers (compute_by_rank, halo_exchange) compute each rank's appended
// content, split a group only where that content differs (the first child
// keeps the parent's program, the others copy it) and append once per
// child. Content equality is exactly ProgramBundle::from's, so the groups
// are the distinct programs dedup would find, and take_bundle() hands them
// to the engine by move with no hashing pass (DESIGN.md §8). take() still
// materialises the full per-rank vector for callers that inspect individual
// programs.
//
// A halo's neighbour graph is planned once (simmpi::Halo): the plan checks
// the graph and gives every rank an offset-class id, the list of its
// neighbour offsets. Apps build the plan outside their iteration loop. Once
// a set's partition refines a plan's classes (every group inside one class)
// it stays so — later ops only split groups — so a uniform-bytes exchange
// over an already-refined plan appends once per group from the group's
// first rank and never walks the ranks. A merge of realigned groups can
// join ranks of different classes, so it forgets every refined plan.

#include "arch/phase.hpp"
#include "sim/program.hpp"

#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

namespace armstice::simmpi {

/// A planned neighbour (halo) graph: rank r exchanges with neighbors[r].
/// Construction validates the graph (every neighbour in range, every edge
/// present in both directions) and classes the ranks by their list of
/// neighbour offsets (nb - r, in list order): ranks of one class append equal
/// relative halo ops, so a ProgramSet keeps them in one group. Build a plan
/// once and reuse it for every exchange over the same graph.
class Halo {
public:
    explicit Halo(std::vector<std::vector<int>> neighbors);

    [[nodiscard]] int ranks() const { return static_cast<int>(neighbors_.size()); }
    [[nodiscard]] const std::vector<int>& neighbors(int rank) const {
        return neighbors_[static_cast<std::size_t>(rank)];
    }
    /// Offset-class id of `rank` (ranks with equal offset lists share it).
    [[nodiscard]] std::uint32_t class_of(int rank) const {
        return class_of_[static_cast<std::size_t>(rank)];
    }
    /// Neighbour offsets (nb - r) of every rank in class `c`.
    [[nodiscard]] const std::vector<int>& offsets(std::uint32_t c) const {
        return offsets_[c];
    }
    /// Process-unique plan id, shared by copies (they plan the same graph).
    [[nodiscard]] std::uint64_t id() const { return id_; }

private:
    std::vector<std::vector<int>> neighbors_;
    std::vector<std::uint32_t> class_of_;      ///< rank -> offset class
    std::vector<std::vector<int>> offsets_;    ///< class -> offsets
    std::uint64_t id_ = 0;
};

class ProgramSet {
public:
    explicit ProgramSet(int ranks);

    [[nodiscard]] int ranks() const { return nranks_; }
    /// True while every rank shares one program (exactly one group). The
    /// engine's rank-equivalence collapse (DESIGN.md §11) keys classes on
    /// shared program identity, so an SPMD set collapses to one class per
    /// ExecContext class; bench_engine asserts the scale skeletons stay SPMD
    /// all the way into take_bundle().
    [[nodiscard]] bool spmd() const { return groups_.size() == 1; }
    /// Read-only view of one rank's program (shared with its group). Valid
    /// until the next op is added: a split may move the group programs.
    [[nodiscard]] const sim::Program& of(int rank) const;

    /// SPMD: every rank executes `phase`.
    ProgramSet& compute(const arch::ComputePhase& phase);
    /// Rank-dependent phases (callable rank -> ComputePhase, called once per
    /// rank). Ranks whose phases match (same_cost_inputs and label) stay in
    /// one group, so uniform "per-rank" work keeps the sharing that feeds
    /// the engine's rank-equivalence collapse.
    template <typename F>
    ProgramSet& compute_by_rank(F&& make_phase) {
        std::vector<arch::ComputePhase> phase = refine(
            make_phase, [](const arch::ComputePhase& a, const arch::ComputePhase& b) {
                return arch::same_cost_inputs(a, b) && a.label == b.label;
            });
        for (std::size_t g = 0; g < groups_.size(); ++g) {
            groups_[g].compute(std::move(phase[g]));
        }
        return *this;
    }
    ProgramSet& allreduce(double bytes = 8);
    ProgramSet& barrier();
    ProgramSet& alltoall(double bytes_each);
    ProgramSet& mark(const std::string& label);

    /// Neighbour (halo) exchange over a planned graph: rank r sends
    /// `bytes` to each of its neighbours and receives from each. Posts all
    /// sends first, then the receives (deadlock-free with eager sends).
    /// Emitted in *relative* form (send_rel/recv_rel with offset = neighbour
    /// - rank), so ranks of one offset class — a Cartesian halo's whole
    /// interior — share one program and stay merged through the engine's
    /// rank-equivalence collapse (DESIGN.md §11). Timings are identical to
    /// hand-rolled absolute send/recv pairs. The plan's rank count must match.
    ProgramSet& halo_exchange(const Halo& plan, double bytes_per_neighbor, int tag = 0);
    /// Per-rank payloads: rank r sends `bytes[r][i]` to its i-th neighbour.
    /// Sizes are validated before any program changes.
    ProgramSet& halo_exchange(const Halo& plan, const std::vector<std::vector<double>>& bytes,
                              int tag = 0);
    /// Unplanned forms: validate and plan `neighbors` for this one call.
    ProgramSet& halo_exchange(const std::vector<std::vector<int>>& neighbors,
                              const std::vector<std::vector<double>>& bytes,
                              int tag = 0);
    ProgramSet& halo_exchange(const std::vector<std::vector<int>>& neighbors,
                              double bytes_per_neighbor, int tag = 0);
    /// Braced neighbour lists bind here: a one-element list would otherwise
    /// convert to a Halo and to a vector equally well.
    ProgramSet& halo_exchange(std::initializer_list<std::vector<int>> neighbors,
                              double bytes_per_neighbor, int tag = 0) {
        return halo_exchange(Halo(neighbors), bytes_per_neighbor, tag);
    }
    ProgramSet& halo_exchange(std::initializer_list<std::vector<int>> neighbors,
                              const std::vector<std::vector<double>>& bytes, int tag = 0) {
        return halo_exchange(Halo(neighbors), bytes, tag);
    }

    /// Move the built programs out as a full per-rank vector (ProgramSet is
    /// then empty). Copies each group's program once per member rank.
    [[nodiscard]] std::vector<sim::Program> take();

    /// Move the groups out as a bundle, numbered by first rank (ProgramSet is
    /// then empty). The partition equals ProgramBundle::from(take())'s, so
    /// engine results are bit-identical to the take() path.
    [[nodiscard]] sim::ProgramBundle take_bundle();

private:
    /// Split every group by per-rank content: key(r) is rank r's content and
    /// eq(a, b) its equality. Ranks are visited in order; a group's first
    /// rank keeps the group (and its program), every further distinct
    /// content gets a new group holding a copy of the parent's program.
    /// Returns the content of each group's first rank, indexed by group.
    /// A parent's first rank lands in the parent's own slot, so first_ stays
    /// each group's lowest rank.
    template <typename Key, typename Eq>
    auto refine(Key&& key, Eq&& eq) {
        using K = decltype(key(0));
        constexpr std::uint32_t kNone = UINT32_MAX;
        const std::size_t parents = groups_.size();
        std::vector<std::uint32_t> head(parents, kNone);  // parent -> newest child
        std::vector<std::uint32_t> next(parents, kNone);  // child -> older sibling
        std::vector<K> content(parents);                  // child -> content
        for (int r = 0; r < nranks_; ++r) {
            auto& g = group_of_[static_cast<std::size_t>(r)];
            const std::uint32_t parent = g;
            K k = key(r);
            std::uint32_t hit = head[parent];
            while (hit != kNone && !eq(k, content[hit])) hit = next[hit];
            if (hit == kNone) {
                // The parent's first child keeps its slot; later children
                // get a copy of the (not yet appended) parent program.
                if (head[parent] == kNone) {
                    hit = parent;
                } else {
                    hit = static_cast<std::uint32_t>(groups_.size());
                    sim::Program copy = groups_[parent];
                    groups_.push_back(std::move(copy));
                    first_.push_back(r);
                }
                if (hit >= parents) {
                    content.emplace_back();
                    next.push_back(kNone);
                }
                content[hit] = std::move(k);
                next[hit] = head[parent];
                head[parent] = hit;
            }
            g = hit;
        }
        return content;
    }

    /// Shared body of the halo_exchange overloads; bytes(r, i) is rank r's
    /// payload to its i-th neighbour, and `uniform` says it ignores (r, i).
    template <typename Bytes>
    void halo(const Halo& plan, Bytes&& bytes, bool uniform, int tag);
    /// Merge groups whose programs became equal although their lengths
    /// differed before the last halo_exchange (`before[g]`); keeps the
    /// groups pairwise distinct.
    void merge_equal_groups(const std::vector<std::size_t>& before);

    int nranks_ = 0;
    std::vector<sim::Program> groups_;       ///< one program per group
    std::vector<std::uint32_t> group_of_;    ///< rank -> index into groups_
    std::vector<int> first_;                 ///< group -> its lowest rank
    /// Ids of the plans whose offset classes the partition refines.
    std::vector<std::uint64_t> refined_;
};

/// Split n items over p parts as evenly as possible; part i gets
/// chunk_size(n,p,i) items (the first n%p parts get one extra).
long chunk_size(long n, int p, int i);
/// First item of part i under the same split.
long chunk_begin(long n, int p, int i);

/// Near-cubic process grid for p ranks in `ndims` dimensions
/// (MPI_Dims_create semantics: factors sorted descending).
std::vector<int> dims_create(int p, int ndims);

/// Neighbour lists for a Cartesian decomposition: 2*ndims face neighbours
/// per rank (non-periodic boundaries drop the missing side).
std::vector<std::vector<int>> cart_neighbors(const std::vector<int>& dims,
                                             bool periodic);

/// Neighbour lists for a 1D chain (slab) decomposition: rank r talks to
/// r-1 and r+1, chain ends have one neighbour. Only the first `active`
/// ranks participate (ranks past it get empty lists); active < 0 means all.
/// The apps' slab/block-chain halos all route through this so their
/// exchanges hit halo_exchange's relative emission with a uniform shape.
std::vector<std::vector<int>> chain_neighbors(int ranks, int active = -1);

} // namespace armstice::simmpi
