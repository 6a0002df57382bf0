// Kernel conformance suite: the cache-blocked GEMM, the row-parallel ZGEMM
// and the row-parallel CSR SpMV must be bit-identical to their serial naive
// references — EXPECT_EQ on every output double and on residual histories —
// at jobs 1 and jobs 8, on shapes that do not divide the GEMM tile or the
// row partition, and at the n = 0 / n = 1 degenerate edges. Blocking and row
// partitioning are pure loop-order transformations here; any reassociation
// they introduced would fail these as a bit mismatch, not a tolerance miss.

#include "kern/dense/blas.hpp"
#include "kern/par.hpp"
#include "kern/sparse/csr.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <complex>
#include <utility>
#include <vector>

namespace ak = armstice::kern;
namespace par = armstice::kern::par;

namespace {

class BlockedConformance : public ::testing::TestWithParam<int> {
protected:
    void TearDown() override { par::set_jobs(0); }

    static std::vector<double> random_vector(std::size_t n, unsigned long seed) {
        armstice::util::Rng rng(seed);
        std::vector<double> v(n);
        for (auto& x : v) x = rng.uniform(-1.0, 1.0);
        return v;
    }

    static std::vector<ak::cplx> random_cvector(std::size_t n, unsigned long seed) {
        armstice::util::Rng rng(seed);
        std::vector<ak::cplx> v(n);
        for (auto& x : v) x = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
        return v;
    }
};

// Serial row loop over the CSR arrays: the reference the row-parallel spmv
// must reproduce bit for bit.
void spmv_serial(const ak::CsrMatrix& A, const std::vector<double>& x,
                 std::vector<double>& y) {
    const auto rp = A.row_ptr();
    const auto ci = A.col_idx();
    const auto v = A.vals();
    for (std::size_t i = 0; i < y.size(); ++i) {
        double sum = 0.0;
        for (long k = rp[i]; k < rp[i + 1]; ++k) {
            sum += v[static_cast<std::size_t>(k)] *
                   x[static_cast<std::size_t>(ci[static_cast<std::size_t>(k)])];
        }
        y[i] = sum;
    }
}

} // namespace

// Shapes straddle the gemm tile (kBlock = 64) and the zgemm row grain (16)
// and include non-divisible remainders and degenerate edges.
INSTANTIATE_TEST_SUITE_P(Jobs, BlockedConformance, ::testing::Values(1, 8));

TEST_P(BlockedConformance, GemmMatchesNaiveBitExactly) {
    par::set_jobs(GetParam());
    for (const auto [m, k, n] : {std::array{0, 7, 5}, std::array{1, 1, 1},
                                 std::array{5, 0, 3}, std::array{63, 64, 65},
                                 std::array{130, 67, 93}}) {
        const auto a = random_vector(static_cast<std::size_t>(m) * k, 11);
        const auto b = random_vector(static_cast<std::size_t>(k) * n, 13);
        std::vector<double> c(static_cast<std::size_t>(m) * n, -7.0);
        std::vector<double> ref(c.size(), 3.0);
        ak::gemm(a, b, c, m, k, n);
        ak::gemm_naive(a, b, ref, m, k, n);
        ASSERT_EQ(c.size(), ref.size());
        for (std::size_t i = 0; i < c.size(); ++i) {
            EXPECT_EQ(c[i], ref[i]) << "m=" << m << " k=" << k << " n=" << n;
        }
    }
}

TEST_P(BlockedConformance, ZgemmMatchesNaiveBitExactly) {
    par::set_jobs(GetParam());
    for (const auto [m, k, n] : {std::array{0, 3, 2}, std::array{1, 1, 1},
                                 std::array{2, 0, 2}, std::array{47, 48, 49},
                                 std::array{100, 53, 71}}) {
        const auto a = random_cvector(static_cast<std::size_t>(m) * k, 17);
        const auto b = random_cvector(static_cast<std::size_t>(k) * n, 19);
        std::vector<ak::cplx> c(static_cast<std::size_t>(m) * n);
        std::vector<ak::cplx> ref(c.size());
        ak::zgemm(a, b, c, m, k, n);
        ak::zgemm_naive(a, b, ref, m, k, n);
        for (std::size_t i = 0; i < c.size(); ++i) {
            EXPECT_EQ(c[i].real(), ref[i].real()) << "m=" << m;
            EXPECT_EQ(c[i].imag(), ref[i].imag()) << "m=" << m;
        }
    }
}

TEST_P(BlockedConformance, SpmvMatchesUnblockedBitExactly) {
    par::set_jobs(GetParam());
    // poisson27 exercises clustered columns; random_spd scatters them across
    // the full column range and gives a row count no partition divides.
    const std::vector<ak::CsrMatrix> mats = {
        ak::poisson27(13, 9, 7), ak::poisson7(5, 5, 5),
        ak::random_spd(200000, 3, 42), ak::random_spd(1, 0, 1),
        ak::CsrMatrix(0, 0, {}), ak::CsrMatrix(3, 0, {}),
        ak::CsrMatrix(4, 5, {{0, 4, 2.5}, {3, 0, -1.0}}),  // rows with no entries
    };
    for (const auto& A : mats) {
        const auto x = random_vector(static_cast<std::size_t>(A.cols()), 23);
        std::vector<double> y(static_cast<std::size_t>(A.rows()), -1.0);
        std::vector<double> ref(y.size(), 2.0);
        A.spmv(x, y);
        spmv_serial(A, x, ref);
        for (std::size_t i = 0; i < y.size(); ++i) {
            EXPECT_EQ(y[i], ref[i]) << "rows=" << A.rows() << " i=" << i;
        }
    }
}

TEST_P(BlockedConformance, CgResidualHistoryIdenticalThroughBlockedSpmv) {
    // End-to-end: a CG solve routed through the row-parallel spmv must walk
    // the exact same residual history as one through the serial reference —
    // the iteration count and every residual bit included.
    par::set_jobs(GetParam());
    const auto A = ak::random_spd(3000, 4, 7);
    const auto b = random_vector(static_cast<std::size_t>(A.rows()), 29);

    auto solve = [&](bool parallel) {
        std::vector<double> x(static_cast<std::size_t>(A.rows()), 0.0);
        std::vector<double> r = b, p = b, ap(b.size());
        std::vector<double> hist;
        double rr = ak::dot(r, r);
        for (int it = 0; it < 50 && rr > 1e-20; ++it) {
            if (parallel) {
                A.spmv(p, ap);
            } else {
                spmv_serial(A, p, ap);
            }
            const double alpha = rr / ak::dot(p, ap);
            ak::axpy(alpha, p, x);
            ak::axpy(-alpha, ap, r);
            const double rr_new = ak::dot(r, r);
            hist.push_back(rr_new);
            const double beta = rr_new / rr;
            rr = rr_new;
            for (std::size_t i = 0; i < p.size(); ++i) p[i] = r[i] + beta * p[i];
        }
        return std::pair{std::move(x), std::move(hist)};
    };

    const auto [x_par, h_par] = solve(true);
    const auto [x_ref, h_ref] = solve(false);
    ASSERT_EQ(h_par.size(), h_ref.size());
    for (std::size_t i = 0; i < h_ref.size(); ++i) EXPECT_EQ(h_par[i], h_ref[i]);
    for (std::size_t i = 0; i < x_ref.size(); ++i) EXPECT_EQ(x_par[i], x_ref[i]);
}
