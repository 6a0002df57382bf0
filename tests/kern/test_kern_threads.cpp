// Thread-count invariance: every kernel routed through kern::par must
// produce bit-identical outputs, residual histories and OpCounts at
// --jobs 1 and --jobs 8 (DESIGN.md §9). These tests compare with EXPECT_EQ
// on doubles — any reassociation across the partition shows up as a
// failure, not a tolerance miss.

#include "kern/dense/blas.hpp"
#include "kern/fft/fft.hpp"
#include "kern/nek/spectral.hpp"
#include "kern/par.hpp"
#include "kern/sparse/cg.hpp"
#include "kern/sparse/ell.hpp"
#include "kern/sparse/multigrid.hpp"
#include "kern/sparse/sell.hpp"
#include "kern/stencil/taylor_green.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace ak = armstice::kern;
namespace par = armstice::kern::par;

namespace {

class ThreadInvariance : public ::testing::Test {
protected:
    void TearDown() override { par::set_jobs(0); }

    /// Run `fn` at jobs=1 and jobs=8 and return both results.
    template <typename Fn>
    static auto serial_vs_threaded(Fn&& fn) {
        par::set_jobs(1);
        auto serial = fn();
        par::set_jobs(8);
        auto threaded = fn();
        return std::pair{std::move(serial), std::move(threaded)};
    }

    static std::vector<double> random_vector(std::size_t n, unsigned long seed) {
        armstice::util::Rng rng(seed);
        std::vector<double> v(n);
        for (auto& x : v) x = rng.uniform(-1.0, 1.0);
        return v;
    }
};

void expect_bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i], b[i]) << "element " << i << " differs across thread counts";
    }
}

} // namespace

TEST_F(ThreadInvariance, CsrEllSellSpmv) {
    const auto csr = ak::poisson27(12, 12, 12);
    const ak::EllMatrix ell(csr);
    const ak::SellMatrix sell(csr, 8, 64);
    const auto x = random_vector(static_cast<std::size_t>(csr.rows()), 11);

    for (const auto* label : {"csr", "ell", "sell"}) {
        auto [serial, threaded] = serial_vs_threaded([&] {
            std::vector<double> y(x.size());
            if (label[0] == 'c') {
                csr.spmv(x, y);
            } else if (label[0] == 'e') {
                ell.spmv(x, y);
            } else {
                sell.spmv(x, y);
            }
            return y;
        });
        SCOPED_TRACE(label);
        expect_bit_identical(serial, threaded);
    }

    // CSR alone on shapes the Ell/Sell formats do not take: row counts that
    // do not divide the partition, columns scattered over a 200k range, and
    // the n = 0 / n = 1 / empty-row edges.
    const std::vector<ak::CsrMatrix> edges = {
        ak::poisson27(13, 9, 7), ak::random_spd(200000, 3, 42),
        ak::random_spd(1, 0, 1), ak::CsrMatrix(0, 0, {}), ak::CsrMatrix(3, 0, {}),
        ak::CsrMatrix(4, 5, {{0, 4, 2.5}, {3, 0, -1.0}}),  // rows with no entries
    };
    for (const auto& a : edges) {
        const auto xa = random_vector(static_cast<std::size_t>(a.cols()), 23);
        auto [serial, threaded] = serial_vs_threaded([&] {
            std::vector<double> y(static_cast<std::size_t>(a.rows()), -1.0);
            a.spmv(xa, y);
            return y;
        });
        SCOPED_TRACE(a.rows());
        expect_bit_identical(serial, threaded);
        if (a.cols() == 0) {
            for (const double v : serial) EXPECT_EQ(v, 0.0);
        }
        if (a.rows() == 4) {
            EXPECT_EQ(serial, (std::vector<double>{2.5 * xa[4], 0.0, 0.0, -xa[0]}));
        }
    }
}

TEST_F(ThreadInvariance, DotNormAxpyWaxpby) {
    const std::size_t n = 3 * static_cast<std::size_t>(par::kReduceBlock) + 997;
    const auto x = random_vector(n, 21);
    const auto y = random_vector(n, 22);

    auto [d1, d8] = serial_vs_threaded([&] { return ak::dot(x, y); });
    EXPECT_EQ(d1, d8);
    auto [n1, n8] = serial_vs_threaded([&] { return ak::norm2(x); });
    EXPECT_EQ(n1, n8);

    auto [a1, a8] = serial_vs_threaded([&] {
        std::vector<double> out = y;
        ak::axpy(0.37, x, out);
        return out;
    });
    expect_bit_identical(a1, a8);

    auto [w1, w8] = serial_vs_threaded([&] {
        std::vector<double> out(n);
        ak::waxpby(1.2, x, -0.8, y, out);
        return out;
    });
    expect_bit_identical(w1, w8);
}

TEST_F(ThreadInvariance, GemmAndZgemm) {
    const int m = 150, k = 130, n = 170;  // off-block-size shapes
    const auto a = random_vector(static_cast<std::size_t>(m) * k, 31);
    const auto b = random_vector(static_cast<std::size_t>(k) * n, 32);
    auto [c1, c8] = serial_vs_threaded([&] {
        std::vector<double> c(static_cast<std::size_t>(m) * n);
        ak::gemm(a, b, c, m, k, n);
        return c;
    });
    expect_bit_identical(c1, c8);

    const std::size_t zn = 40;
    std::vector<ak::cplx> za(zn * zn), zb(zn * zn);
    armstice::util::Rng rng(33);
    for (auto& v : za) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    for (auto& v : zb) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    auto [z1, z8] = serial_vs_threaded([&] {
        std::vector<ak::cplx> zc(zn * zn);
        ak::zgemm(za, zb, zc, static_cast<int>(zn), static_cast<int>(zn),
                  static_cast<int>(zn));
        return zc;
    });
    ASSERT_EQ(z1.size(), z8.size());
    for (std::size_t i = 0; i < z1.size(); ++i) {
        ASSERT_EQ(z1[i].real(), z8[i].real());
        ASSERT_EQ(z1[i].imag(), z8[i].imag());
    }
}

TEST_F(ThreadInvariance, CgSolveResidualHistoryAndSolution) {
    // Jacobi-preconditioned on a clustered-column stencil, and plain CG on a
    // random SPD matrix whose columns scatter across the whole row range.
    struct Case {
        ak::CsrMatrix a;
        bool jacobi;
    };
    const Case cases[] = {{ak::poisson27(10, 10, 10), true},
                          {ak::random_spd(3000, 4, 7), false}};
    for (const Case& c : cases) {
        const ak::CsrMatrix& a = c.a;
        const bool jacobi = c.jacobi;
        const auto b = random_vector(static_cast<std::size_t>(a.rows()), 41);
        auto solve = [&] {
            std::vector<double> x(b.size(), 0.0);
            auto res = ak::cg_solve(
                a, b, x, {/*max_iters=*/50, /*rel_tol=*/1e-10},
                jacobi ? ak::jacobi_preconditioner(a) : ak::Preconditioner{});
            return std::pair{std::move(x), std::move(res)};
        };
        SCOPED_TRACE(a.rows());
        auto [serial, threaded] = serial_vs_threaded(solve);
        expect_bit_identical(serial.first, threaded.first);
        EXPECT_EQ(serial.second.iterations, threaded.second.iterations);
        expect_bit_identical(serial.second.residuals, threaded.second.residuals);
        EXPECT_EQ(serial.second.counts.flops, threaded.second.counts.flops);
        EXPECT_EQ(serial.second.counts.bytes_read, threaded.second.counts.bytes_read);
        EXPECT_EQ(serial.second.counts.bytes_written,
                  threaded.second.counts.bytes_written);
    }
}

TEST_F(ThreadInvariance, MultigridVcycle) {
    const ak::Multigrid mg(8, 8, 8, 2);
    const auto r = random_vector(static_cast<std::size_t>(mg.rows(0)), 51);
    auto [x1, x8] = serial_vs_threaded([&] {
        std::vector<double> x(r.size());
        mg.vcycle(r, x);
        return x;
    });
    expect_bit_identical(x1, x8);
}

TEST_F(ThreadInvariance, TaylorGreenStepsAndDiagnostics) {
    // n = 12 does not divide the jobs-8 plane partition; viscous and inviscid
    // take different sweep sets.
    for (const auto& grid : {std::pair{16, 1e-3}, std::pair{12, 0.0},
                             std::pair{12, 1e-3}}) {
        const int n = grid.first;
        const double nu = grid.second;
        auto run = [n, nu] {
            ak::TaylorGreen tgv(n, 0.1, nu);
            const double dt = tgv.stable_dt();
            for (int s = 0; s < 3; ++s) tgv.step(dt);
            return std::tuple{tgv.state(), tgv.total_mass(), tgv.kinetic_energy(),
                              tgv.max_speed()};
        };
        SCOPED_TRACE(n);
        SCOPED_TRACE(nu);
        auto [serial, threaded] = serial_vs_threaded(run);
        expect_bit_identical(std::get<0>(serial), std::get<0>(threaded));
        EXPECT_EQ(std::get<1>(serial), std::get<1>(threaded));
        EXPECT_EQ(std::get<2>(serial), std::get<2>(threaded));
        EXPECT_EQ(std::get<3>(serial), std::get<3>(threaded));
    }
}

TEST_F(ThreadInvariance, NekSpectralAxAndCg) {
    const ak::NekMesh mesh(32, 10);
    const auto u = random_vector(static_cast<std::size_t>(mesh.local_dofs()), 61);
    auto [w1, w8] = serial_vs_threaded([&] {
        std::vector<double> w(u.size());
        mesh.ax(u, w);
        return w;
    });
    expect_bit_identical(w1, w8);

    auto [r1, r8] = serial_vs_threaded([&] {
        std::vector<double> sol(u.size());
        return std::pair{mesh.cg(u, sol, 25).residuals, std::move(sol)};
    });
    expect_bit_identical(r1.first, r8.first);
    expect_bit_identical(r1.second, r8.second);
}

TEST_F(ThreadInvariance, Fft3dRoundTrip) {
    const int n = 16;
    const std::size_t total = static_cast<std::size_t>(n) * n * n;
    armstice::util::Rng rng(71);
    std::vector<ak::cplx> init(total);
    for (auto& v : init) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    auto [f1, f8] = serial_vs_threaded([&] {
        auto data = init;
        ak::fft3d(data, n);
        ak::ifft3d(data, n);
        return data;
    });
    ASSERT_EQ(f1.size(), f8.size());
    for (std::size_t i = 0; i < f1.size(); ++i) {
        ASSERT_EQ(f1[i].real(), f8[i].real());
        ASSERT_EQ(f1[i].imag(), f8[i].imag());
    }
}

// OpCounts are added analytically once per kernel call, so under threads
// they must still equal the exact analytic totals the skeletons rely on.
TEST_F(ThreadInvariance, OpCountsUnderThreadsMatchAnalytic) {
    par::set_jobs(8);

    const auto a = ak::poisson27(8, 8, 8);
    std::vector<double> x(static_cast<std::size_t>(a.rows()), 1.0), y(x.size());
    ak::OpCounts c;
    a.spmv(x, y, &c);
    EXPECT_DOUBLE_EQ(c.flops, 2.0 * static_cast<double>(a.nnz()));

    ak::OpCounts cd;
    ak::dot(x, x, &cd);
    EXPECT_DOUBLE_EQ(cd.flops, 2.0 * static_cast<double>(x.size()));
    EXPECT_DOUBLE_EQ(cd.bytes_read, 16.0 * static_cast<double>(x.size()));

    ak::TaylorGreen tgv(16);
    ak::OpCounts ct;
    tgv.step(tgv.stable_dt(), &ct);
    EXPECT_DOUBLE_EQ(ct.flops, ak::TaylorGreen::step_flops_per_point() * 16.0 * 16.0 * 16.0);

    const ak::NekMesh mesh(8, 8);
    std::vector<double> u(static_cast<std::size_t>(mesh.local_dofs()), 1.0), w(u.size());
    ak::OpCounts cn;
    mesh.ax(u, w, &cn);
    EXPECT_DOUBLE_EQ(cn.flops, ak::NekMesh::ax_flops(8, 8));

    std::vector<ak::cplx> data(static_cast<std::size_t>(8) * 8 * 8, {1.0, 0.0});
    ak::OpCounts cf;
    ak::fft3d(data, 8, &cf);
    EXPECT_DOUBLE_EQ(cf.flops, ak::fft3d_flops(8));
}

// Satellite: CsrMatrix must reject shapes its int column/nnz storage cannot
// represent instead of silently truncating the cast.
TEST(CsrHardening, RejectsColumnsBeyondIntRange) {
    const long too_wide = static_cast<long>(std::numeric_limits<int>::max()) + 1L;
    EXPECT_THROW(ak::CsrMatrix(1, too_wide, {{0, 0, 1.0}}), armstice::util::Error);
    // A just-in-range shape with in-range entries is fine.
    const long max_ok = static_cast<long>(std::numeric_limits<int>::max());
    EXPECT_NO_THROW(ak::CsrMatrix(1, max_ok, {{0, max_ok - 1, 1.0}}));
}
