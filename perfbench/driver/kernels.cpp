// kernels-ref: the real reference solvers behind the skeletons, single
// threaded, each run to its stated tolerance.
//
// One operation = one round of the five solves. minikab's CSR matrix comes
// from the seed and is sized to at least four times the host's last-level
// cache; the other four solvers build fixed inputs from their size
// arguments, exactly as the apps:: reference entry points do. Each solve
// runs on the next CPU of the process's affinity mask (CpuRotation).

#include "bench.hpp"

#include "apps/castep/castep.hpp"
#include "apps/hpcg/hpcg.hpp"
#include "apps/minikab/minikab.hpp"
#include "apps/nekbone/nekbone.hpp"
#include "apps/opensbli/opensbli.hpp"
#include "kern/fft/fft.hpp"
#include "kern/par.hpp"
#include "kern/sparse/cg.hpp"
#include "kern/sparse/csr.hpp"
#include "util/rng.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {
namespace {

namespace apps = armstice::apps;
namespace kern = armstice::kern;

// Problem sizes: each solve takes 0.1-0.6 s on one core of the baseline
// host (NOTES.md), so a run holds a dozen rounds or more; minikab's row
// count is derived from the cache size instead.
constexpr int kHpcgN = 32;          // 32^3 27-point operator, 3-level MG
constexpr int kHpcgIters = 50;
constexpr int kMinikabExtra = 32;   // random off-diagonals per row (65 nnz/row)
constexpr int kMinikabIters = 500;
constexpr int kNekElems = 8;
constexpr int kNekNx1 = 10;
constexpr int kNekIters = 1000;     // fixed count, as Nekbone; reaches 1e-6 at 345
constexpr int kTgvGrid = 32;
constexpr int kTgvSteps = 12;
constexpr int kFftGrid = 64;
constexpr int kFftBands = 4;

// Stated tolerances of the checks.
constexpr double kHpcgTol = 1e-9;       // hpcg_reference's rel_tol
constexpr double kMinikabTol = 1e-8;    // minikab_reference's rel_tol
constexpr double kNekTol = 1e-6;        // NekMesh::cg's convergence bound
constexpr double kTgvMassDrift = 1e-12; // conservative scheme: ~machine eps
constexpr double kFftRoundTrip = 1e-12; // max |ifft(fft(x)) - x|

/// Bytes of the last-level cache (index3, else the highest index present).
double llc_bytes() {
    for (int idx = 3; idx >= 0; --idx) {
        std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                         std::to_string(idx) + "/size");
        std::string s;
        if (!(in >> s) || s.empty()) continue;
        double v = std::strtod(s.c_str(), nullptr);
        if (s.back() == 'K') v *= 1024.0;
        if (s.back() == 'M') v *= 1024.0 * 1024.0;
        return v;
    }
    return 32.0 * 1024 * 1024;
}

/// CSR bytes of random_spd(n, kMinikabExtra): 12 B per nonzero (value +
/// column) plus one row pointer.
double csr_bytes(const kern::CsrMatrix& a) {
    return 12.0 * static_cast<double>(a.nnz()) + 8.0 * static_cast<double>(a.rows() + 1);
}

struct Solve {
    const char* name = "";
    double seconds = 0;
    double flops = 0;
    double bytes = 0;
    double iters = 0;
};

double round_seconds(const std::vector<Solve>& round) {
    double s = 0;
    for (const auto& k : round) s += k.seconds;
    return s;
}

/// Max |ifft3d(fft3d(x)) - x| on a seeded grid.
double fft_round_trip_error(std::uint64_t seed) {
    armstice::util::Rng rng(seed);
    const std::size_t n3 = static_cast<std::size_t>(kFftGrid) * kFftGrid * kFftGrid;
    std::vector<kern::cplx> x(n3);
    for (auto& v : x) v = kern::cplx(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    std::vector<kern::cplx> y = x;
    kern::fft3d(y, kFftGrid);
    kern::ifft3d(y, kFftGrid);
    double err = 0;
    for (std::size_t i = 0; i < n3; ++i) err = std::max(err, std::abs(y[i] - x[i]));
    return err;
}

/// Moves the calling thread round-robin over the CPUs it may run on. On a
/// shared host each vCPU's speed drifts on its own, by about 15% over a
/// minute (NOTES.md); with every solve on the next vCPU, a slow one costs a
/// run a share of its solves rather than all of them.
class CpuRotation {
public:
    CpuRotation() {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) != 0) return;
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set)) cpus_.push_back(c);
        }
    }
    void next() {
        if (cpus_.size() < 2) return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

private:
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

}  // namespace

int run_kernels(const Args& args) {
    const double seconds = static_cast<double>(args.num("seconds", 10));
    const auto seed = static_cast<std::uint64_t>(args.num("seed", 1));
    const std::string trace_path = args.get("trace", "");
    Report rep;
    kern::par::set_jobs(1);

    // Set-up: the seeded matrix, at least four LLCs of CSR bytes.
    const double llc = llc_bytes();
    const double row_bytes = 12.0 * (1 + 2 * kMinikabExtra) + 8.0;
    const long rows = static_cast<long>(std::ceil(4.2 * llc / row_bytes));
    const kern::CsrMatrix a = kern::random_spd(rows, kMinikabExtra, seed);
    rep.values["kern.llc_mib"] = llc / (1024.0 * 1024.0);
    rep.values["kern.minikab_csr_mib"] = csr_bytes(a) / (1024.0 * 1024.0);
    rep.check(csr_bytes(a) >= 4.0 * llc, "minikab CSR smaller than four LLCs");
    // The seeded solve is minikab_reference with the benchmark's matrix; at
    // the reference's own seed and a small size the two must agree exactly.
    {
        const kern::CsrMatrix small = kern::random_spd(4000, kMinikabExtra, 42);
        std::vector<double> b(4000, 1.0), x(4000, 0.0);
        const kern::CgResult mine =
            kern::cg_solve(small, b, x, {.max_iters = kMinikabIters, .rel_tol = kMinikabTol});
        const kern::CgResult ref = apps::minikab_reference(4000, kMinikabExtra, kMinikabIters);
        rep.check(mine.residuals == ref.residuals,
                  "seeded minikab solve diverges from apps::minikab_reference");
    }
    const double fft_err = fft_round_trip_error(seed);
    rep.check(fft_err < kFftRoundTrip, "FFT round trip error " + std::to_string(fft_err));
    announce_ready();
    if (args.has("probe") || !rep.ok) {
        std::puts(rep.json().c_str());
        return 0;
    }
    // peak_rss_mib covers the timed rounds, not the matrix build's peak.
    reset_peak_rss();

    Trace off(false);
    Trace trace(!trace_path.empty());
    const std::vector<double> rhs(static_cast<std::size_t>(a.rows()), 1.0);
    std::vector<std::vector<Solve>> rounds;
    CpuRotation cpus;
    // One round of the five solves; spans go to `t`.
    auto run_round = [&](Trace& t) {
        std::vector<Solve> round(5);
        ++rep.attempted;
        const std::size_t errors_before = rep.errors.size();
        Trace::Scope whole(t, "kern.round");
        {
            cpus.next();
            Trace::Scope s(t, "kern.hpcg_cg");
            const kern::CgResult r = apps::hpcg_reference(kHpcgN, 3, kHpcgIters);
            round[0] = {"hpcg_cg", s.elapsed(), r.counts.flops, r.counts.bytes(),
                        static_cast<double>(r.iterations)};
            rep.check(r.converged && r.final_residual < kHpcgTol, "hpcg CG did not converge");
        }
        {
            // minikab_reference's solve (b = 1, x0 = 0) on the seeded matrix.
            cpus.next();
            Trace::Scope s(t, "kern.minikab_cg");
            std::vector<double> x(rhs.size(), 0.0);
            const kern::CgResult r = kern::cg_solve(
                a, rhs, x, {.max_iters = kMinikabIters, .rel_tol = kMinikabTol});
            round[1] = {"minikab_cg", s.elapsed(), r.counts.flops, r.counts.bytes(),
                        static_cast<double>(r.iterations)};
            rep.check(r.converged && r.final_residual < kMinikabTol,
                      "minikab CG did not converge");
        }
        {
            cpus.next();
            Trace::Scope s(t, "kern.nekbone_cg");
            const kern::CgResult r = apps::nekbone_reference(kNekElems, kNekNx1, kNekIters);
            round[2] = {"nekbone_cg", s.elapsed(), r.counts.flops, r.counts.bytes(),
                        static_cast<double>(r.iterations)};
            rep.check(r.converged && r.final_residual < kNekTol,
                      "nekbone residual " + std::to_string(r.final_residual));
        }
        {
            cpus.next();
            Trace::Scope s(t, "kern.tgv");
            const apps::TgvReference r = apps::opensbli_reference(kTgvGrid, kTgvSteps);
            round[3] = {"tgv", s.elapsed(), r.counts.flops, r.counts.bytes(), kTgvSteps};
            rep.check(r.mass_drift < kTgvMassDrift,
                      "TGV mass drift " + std::to_string(r.mass_drift));
        }
        {
            cpus.next();
            Trace::Scope s(t, "kern.fft");
            const kern::OpCounts c = apps::castep_reference(kFftGrid, kFftBands);
            round[4] = {"fft", s.elapsed(), c.flops, c.bytes(), kFftBands};
            rep.check(c.flops >= 2.0 * kFftBands * kern::fft3d_flops(kFftGrid),
                      "castep reference counted fewer FLOPs than its FFTs");
        }
        if (rep.errors.size() != errors_before) ++rep.failed;
        rounds.push_back(std::move(round));
    };

    if (trace.enabled()) {
        // One plain and one traced round: their difference is the overhead.
        run_round(off);
        run_round(trace);
        rep.values["trace.overhead_pct.kern"] =
            100.0 * (round_seconds(rounds[1]) - round_seconds(rounds[0])) /
            round_seconds(rounds[0]);
    } else {
        const double t_end = now_s() + seconds;
        // At least three rounds, so the reported median is a median.
        while (rep.ok && (rounds.size() < 3 || now_s() < t_end)) run_round(off);
    }

    std::vector<double> round_ms;
    for (const auto& r : rounds) round_ms.push_back(round_seconds(r) * 1e3);
    rep.values["op_p50_ms"] = median(round_ms);
    rep.values["peak_rss_mib"] = peak_rss_mib();
    for (std::size_t i = 0; i < 5; ++i) {
        std::vector<double> t;
        for (const auto& r : rounds) t.push_back(r[i].seconds);
        const Solve& k = rounds.front()[i];
        const std::string name = k.name;
        const double sec = median(t);
        rep.values["kern.s." + name] = sec;
        rep.values["kern.gflops." + name] = k.flops / sec * 1e-9;
        rep.values["kern.flop_per_byte." + name] = k.bytes > 0 ? k.flops / k.bytes : 0;
        if (i < 3) rep.values["kern.iters." + name] = k.iters;
    }
    if (trace.enabled() && !trace.write(trace_path)) rep.fail("cannot write trace " + trace_path);
    std::puts(rep.json().c_str());
    return 0;
}

}  // namespace perfbench
