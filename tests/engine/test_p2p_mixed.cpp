// Mixed addressing on one (src, dst) FIFO. The engine finds the queue of a
// relative send or receive through its dense (offset, rank) index and that
// of an absolute or MPI_ANY_SOURCE receive through the rank's mailbox
// (DESIGN.md §11.6); both must name the same queue, whichever form created
// it, so a relative send is consumed by an absolute or wildcard receive, an
// absolute send by a relative receive, and interleaved forms keep FIFO
// order. The oracle is sim::RefEngine (one flat message list, no indexes),
// with collapse on and off and under perturbed schedules.

#include "arch/system.hpp"
#include "sim/check.hpp"
#include "sim/engine.hpp"
#include "sim/ref_engine.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

namespace {

namespace aa = armstice::arch;
namespace as = armstice::sim;
namespace ck = armstice::sim::check;
namespace au = armstice::util;

enum class SendForm { rel, abs };
enum class RecvForm { rel, abs, any };

/// One message of a pairing: sender r sends to r + half, receiver r + half
/// receives it.
struct Msg {
    SendForm send;
    RecvForm recv;
    int tag;
    double bytes;
};

aa::ComputePhase work(double flops) {
    aa::ComputePhase p;
    p.label = "work";
    p.flops = flops;
    p.main_bytes = 8.0 * flops;
    p.pattern = aa::MemPattern::stream;
    p.efficiency = 0.8;
    return p;
}

/// Senders [0, half) send `msgs` in order; receiver r + half posts the
/// receives in `recv_order`. Every sender (and every receiver) gets an equal
/// program up to its first absolute op, so collapsed runs start merged.
std::vector<as::Program> build(int ranks, const std::vector<Msg>& msgs,
                               const std::vector<std::size_t>& recv_order,
                               const std::vector<std::size_t>& send_work,
                               const std::vector<std::size_t>& recv_work) {
    const int half = ranks / 2;
    std::vector<as::Program> progs(static_cast<std::size_t>(ranks));
    for (int r = 0; r < half; ++r) {
        auto& p = progs[static_cast<std::size_t>(r)];
        for (std::size_t k = 0; k < msgs.size(); ++k) {
            const Msg& m = msgs[k];
            if (std::find(send_work.begin(), send_work.end(), k) != send_work.end()) {
                p.compute(work(1.0e6));
            }
            if (m.send == SendForm::rel) {
                p.send_rel(half, m.bytes, m.tag);
            } else {
                p.send(r + half, m.bytes, m.tag);
            }
        }
    }
    for (int r = half; r < 2 * half; ++r) {
        auto& p = progs[static_cast<std::size_t>(r)];
        for (const std::size_t k : recv_order) {
            const Msg& m = msgs[k];
            if (std::find(recv_work.begin(), recv_work.end(), k) != recv_work.end()) {
                p.compute(work(4.0e5));
            }
            switch (m.recv) {
            case RecvForm::rel: p.recv_rel(-half, m.tag); break;
            case RecvForm::abs: p.recv(r - half, m.tag); break;
            case RecvForm::any: p.recv(as::kAnySource, m.tag); break;
            }
        }
    }
    return progs;
}

/// Engine == RefEngine with collapse on and off, and under 8 perturb seeds.
void expect_matches_reference(int ranks, int nodes, const aa::ModelKnobs& knobs,
                              const std::vector<as::Program>& progs, const std::string& what) {
    const auto placement = as::Placement::block(aa::fulhame().node, nodes, ranks, 1);
    const as::Engine eng(aa::fulhame(), placement, 0.8, knobs);
    const as::RefEngine ref(aa::fulhame(), placement, 0.8, knobs);
    const as::RunResult want = ref.run(progs);
    const as::ProgramBundle bundle = as::ProgramBundle::from(progs);
    EXPECT_EQ(ck::diff_results(eng.run(progs), want), "") << what << ": per-rank vector";
    EXPECT_EQ(ck::diff_results(eng.run(bundle), want), "") << what << ": collapse on";
    as::RunOptions off;
    off.collapse = false;
    EXPECT_EQ(ck::diff_results(eng.run(bundle, off), want), "") << what << ": collapse off";
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        as::RunOptions opts;
        opts.perturb_seed = 0x5eed0000ULL + seed;
        EXPECT_EQ(ck::diff_results(eng.run(bundle, opts), want), "")
            << what << ": perturb seed " << seed;
    }
}

aa::ModelKnobs quiet() {
    aa::ModelKnobs knobs;
    knobs.os_noise = 0.0;
    return knobs;
}

TEST(P2pMixed, EveryFormPairSharesOneFifo) {
    // Each message differs in size, so each has its own arrival time and a
    // receive that took the wrong message would change the receiver's wait.
    // The first message is absolute, so the first relative lookup of the
    // queue misses the index and must find the queue the mailbox holds.
    const std::vector<Msg> msgs = {
        {SendForm::abs, RecvForm::rel, 0, 1.0e5},  // absolute -> relative
        {SendForm::rel, RecvForm::abs, 0, 2.0e3},  // relative -> absolute
        {SendForm::rel, RecvForm::any, 1, 3.0e5},  // relative -> wildcard
        {SendForm::rel, RecvForm::rel, 0, 4.0e3},
        {SendForm::abs, RecvForm::any, 0, 5.0e5},  // absolute -> wildcard
        {SendForm::abs, RecvForm::abs, 1, 6.0e3},
    };
    std::vector<std::size_t> order(msgs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (const bool noisy : {false, true}) {
        const aa::ModelKnobs knobs = noisy ? aa::ModelKnobs{} : quiet();
        expect_matches_reference(16, 4, knobs, build(16, msgs, order, {}, {3}),
                                 noisy ? "noisy" : "quiet");
    }
}

TEST(P2pMixed, RelativeFirstQueueServesAbsoluteAndWildcardReceives) {
    // Relative sends create the queue through the index; absolute and
    // wildcard receives must then find it through the mailbox.
    const std::vector<Msg> msgs = {
        {SendForm::rel, RecvForm::abs, 2, 1.0e4},
        {SendForm::rel, RecvForm::any, 2, 2.0e5},
        {SendForm::abs, RecvForm::rel, 2, 3.0e4},
        {SendForm::rel, RecvForm::rel, 2, 4.0e5},
    };
    std::vector<std::size_t> order(msgs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    expect_matches_reference(8, 2, quiet(), build(8, msgs, order, {0}, {}), "quiet");
}

TEST(P2pMixed, SeededInterleavingsKeepFifoOrder) {
    // Random forms, two tags and a shuffled receive order: a receive takes
    // the oldest pending message of its tag from the one queue, whichever
    // form sent it and whichever form asks.
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        au::Rng rng(seed);
        const int half = 2 + static_cast<int>(rng.next_below(6));
        const int ranks = 2 * half;
        const int nodes = 1 + static_cast<int>(rng.next_below(3));
        std::vector<Msg> msgs(4 + rng.next_below(9));
        for (auto& m : msgs) {
            m.send = rng.next_below(2) == 0 ? SendForm::rel : SendForm::abs;
            m.recv = static_cast<RecvForm>(rng.next_below(3));
            m.tag = static_cast<int>(rng.next_below(2));
            m.bytes = 1.0e3 * static_cast<double>(1 + rng.next_below(400));
        }
        std::vector<std::size_t> order(msgs.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        for (std::size_t i = order.size() - 1; i > 0; --i) {
            std::swap(order[i], order[rng.next_below(i + 1)]);
        }
        std::vector<std::size_t> send_work, recv_work;
        for (std::size_t k = 0; k < msgs.size(); ++k) {
            if (rng.next_below(4) == 0) send_work.push_back(k);
            if (rng.next_below(4) == 0) recv_work.push_back(k);
        }
        const aa::ModelKnobs knobs = seed % 2 == 0 ? aa::ModelKnobs{} : quiet();
        expect_matches_reference(ranks, nodes, knobs,
                                 build(ranks, msgs, order, send_work, recv_work),
                                 "seed " + std::to_string(seed));
    }
}

} // namespace
