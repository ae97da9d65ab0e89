#include <gtest/gtest.h>

#include <cmath>

#include "linalg/eig.h"
#include "linalg/expm.h"
#include "linalg/random_unitary.h"
#include "linalg/su2.h"
#include "pulse/evolve.h"
#include "testutil.h"

namespace {

using namespace qpc;
using namespace qpc::testutil;

TEST(Eig, PauliZ)
{
    const EigResult eig = eigHermitian(pauliZ());
    EXPECT_NEAR(eig.values[0], -1.0, 1e-12);
    EXPECT_NEAR(eig.values[1], 1.0, 1e-12);
}

TEST(Eig, PauliXEigenvectors)
{
    const EigResult eig = eigHermitian(pauliX());
    // Reconstruct A = V diag V^dag.
    CMatrix d(2, 2);
    d(0, 0) = eig.values[0];
    d(1, 1) = eig.values[1];
    const CMatrix rebuilt = eig.vectors * d * eig.vectors.dagger();
    EXPECT_TRUE(rebuilt.approxEqual(pauliX(), 1e-10));
}

/** Random Hermitian reconstruction across dimensions. */
class EigSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(EigSweep, ReconstructsRandomHermitian)
{
    const int dim = GetParam();
    Rng rng(100 + dim);
    for (int trial = 0; trial < 5; ++trial) {
        const CMatrix u = haarUnitary(dim, rng);
        CMatrix h = u + u.dagger();   // Hermitian
        const EigResult eig = eigHermitian(h);

        EXPECT_TRUE(eig.vectors.isUnitary(1e-8));
        for (size_t i = 1; i < eig.values.size(); ++i)
            EXPECT_LE(eig.values[i - 1], eig.values[i] + 1e-12);

        CMatrix d(dim, dim);
        for (int i = 0; i < dim; ++i)
            d(i, i) = eig.values[i];
        const CMatrix rebuilt =
            eig.vectors * d * eig.vectors.dagger();
        EXPECT_LT(rebuilt.maxAbsDiff(h), 1e-8);
    }
}

INSTANTIATE_TEST_SUITE_P(Dims, EigSweep,
                         ::testing::Values(2, 3, 4, 8, 16));

TEST(Eig, DegenerateSpectrum)
{
    // diag(1, 1, 2) with a rotation: eigenvalues {1, 1, 2}.
    Rng rng(11);
    const CMatrix u = haarUnitary(3, rng);
    CMatrix d(3, 3);
    d(0, 0) = 1.0;
    d(1, 1) = 1.0;
    d(2, 2) = 2.0;
    const CMatrix h = u * d * u.dagger();
    const EigResult eig = eigHermitian(h);
    EXPECT_NEAR(eig.values[0], 1.0, 1e-9);
    EXPECT_NEAR(eig.values[1], 1.0, 1e-9);
    EXPECT_NEAR(eig.values[2], 2.0, 1e-9);
}

TEST(Expm, ZeroGivesIdentity)
{
    const CMatrix z = CMatrix::zeros(4, 4);
    EXPECT_TRUE(expmHermitian(z, 1.0).approxEqual(CMatrix::identity(4),
                                                  1e-12));
}

TEST(Expm, HermitianGivesRotations)
{
    // exp(-i theta X / 2) = Rx(theta).
    for (double theta : {0.3, 1.0, 2.5, -1.7}) {
        const CMatrix gen = pauliX();
        const CMatrix u = expmHermitian(gen, theta / 2.0);
        EXPECT_TRUE(u.approxEqual(rxMatrix(theta), 1e-10))
            << "theta " << theta;
    }
}

// The synthesis propagator (eigendecomposition) and the oracle
// (scaled Taylor series) are independent implementations of the same
// exp(-i dt H); they must agree at every block width GRAPE serves,
// for either sign of the step.
TEST(Expm, SynthesisMatchesOracle)
{
    Rng rng(12);
    for (int dim : {4, 8, 16}) {
        const CMatrix u = haarUnitary(dim, rng);
        const CMatrix h = u + u.dagger();
        for (double dt : {0.37, -0.37, 2.0, -2.0}) {
            EXPECT_LT(expmHermitian(h, dt).maxAbsDiff(
                          slicePropagator(h, dt)),
                      1e-9)
                << "dim " << dim << " dt " << dt;
        }
    }
}

// A negative step must scale the Taylor series like a positive one:
// unscaled, ||dt H|| ~ 8 leaves the truncated series far from unitary.
TEST(Expm, OracleNegativeStepStaysUnitary)
{
    Rng rng(21);
    const CMatrix u = haarUnitary(8, rng);
    const CMatrix h = u + u.dagger();
    const CMatrix back = slicePropagator(h, -2.0);
    EXPECT_TRUE(back.isUnitary(1e-10));
    EXPECT_LT(back.maxAbsDiff(expmHermitian(h, -2.0)), 1e-10);
    EXPECT_LT(back.maxAbsDiff(slicePropagator(h, 2.0).dagger()), 1e-10);
}

TEST(Expm, ExponentialOfHermitianIsUnitary)
{
    Rng rng(13);
    for (int trial = 0; trial < 5; ++trial) {
        const CMatrix u = haarUnitary(8, rng);
        CMatrix h = u + u.dagger();
        const CMatrix e = expmHermitian(h, 1.0);
        EXPECT_TRUE(e.isUnitary(1e-9));
    }
}

TEST(SimultaneousDiag, CommutingPair)
{
    // P, S built from a shared real orthogonal eigenbasis commute.
    Rng rng(14);
    CMatrix q(4, 4);
    {
        // Random rotation built from Givens rotations (real).
        q = CMatrix::identity(4);
        for (int a = 0; a < 4; ++a) {
            for (int b = a + 1; b < 4; ++b) {
                const double t = rng.angle();
                CMatrix g = CMatrix::identity(4);
                g(a, a) = std::cos(t);
                g(b, b) = std::cos(t);
                g(a, b) = -std::sin(t);
                g(b, a) = std::sin(t);
                q = q * g;
            }
        }
    }
    CMatrix dp(4, 4), ds(4, 4);
    for (int i = 0; i < 4; ++i) {
        dp(i, i) = rng.uniform(-2.0, 2.0);
        ds(i, i) = rng.uniform(-2.0, 2.0);
    }
    const CMatrix p = q * dp * q.transpose();
    const CMatrix s = q * ds * q.transpose();

    CMatrix shared;
    std::vector<double> pd, sd;
    simultaneousDiagonalize(p, s, shared, pd, sd);
    const CMatrix rp = shared.transpose() * p * shared;
    const CMatrix rs = shared.transpose() * s * shared;
    for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
            if (i == j)
                continue;
            EXPECT_NEAR(std::abs(rp(i, j)), 0.0, 1e-7);
            EXPECT_NEAR(std::abs(rs(i, j)), 0.0, 1e-7);
        }
    }
}

} // namespace
