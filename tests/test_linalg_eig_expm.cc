#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "jacobi_oracle.h"
#include "linalg/eig.h"
#include "linalg/expm.h"
#include "linalg/random_unitary.h"
#include "linalg/su2.h"
#include "pulse/device.h"
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

/** max |V diag(values) V^dagger - h|. */
double
reconstructionError(const EigResult& eig, const CMatrix& h)
{
    const int n = h.rows();
    CMatrix d(n, n);
    for (int i = 0; i < n; ++i)
        d(i, i) = eig.values[i];
    return (eig.vectors * d * eig.vectors.dagger()).maxAbsDiff(h);
}

/**
 * eigHermitian against the Jacobi oracle: eigenvalues within
 * 1e-12 ||h||_F of the oracle's, V diag V^dagger within
 * 1e-12 max(1, ||h||_F) of h, and V^dagger V within 1e-12 of I.
 * Eigenvectors are compared only through these, since within a
 * degenerate eigenspace any orthonormal basis is right.
 */
void
expectMatchesOracle(const CMatrix& h, const std::string& what)
{
    const int n = h.rows();
    const double norm = h.frobeniusNorm();
    const EigResult eig = eigHermitian(h);
    const EigResult ref = jacobiEigHermitian(h);
    ASSERT_EQ(eig.values.size(), static_cast<size_t>(n)) << what;
    for (int i = 0; i < n; ++i) {
        EXPECT_LE(std::abs(eig.values[i] - ref.values[i]), 1e-12 * norm)
            << what << " eigenvalue " << i;
        if (i > 0) {
            EXPECT_LE(eig.values[i - 1], eig.values[i]) << what;
        }
    }
    EXPECT_LE(reconstructionError(eig, h), 1e-12 * std::max(1.0, norm))
        << what;
    EXPECT_LE((eig.vectors.dagger() * eig.vectors)
                  .maxAbsDiff(CMatrix::identity(n)),
              1e-12)
        << what;
}

/** A slice Hamiltonian at seeded controls within each channel's bound. */
CMatrix
randomSliceHamiltonian(const DeviceModel& device, Rng& rng)
{
    std::vector<double> amps(device.numControls());
    for (int c = 0; c < device.numControls(); ++c) {
        const double bound = device.controls()[c].maxAmp;
        amps[c] = rng.uniform(-bound, bound);
    }
    return sliceHamiltonian(device, amps);
}

// GRAPE's own inputs: the slice Hamiltonians of every block width it
// serves, dims 2 to 16.
TEST(EigOracle, GmonCliqueSliceHamiltonians)
{
    for (int qubits = 1; qubits <= 4; ++qubits) {
        const DeviceModel device = DeviceModel::gmonClique(qubits);
        Rng rng(300 + qubits);
        for (int trial = 0; trial < 400; ++trial)
            expectMatchesOracle(randomSliceHamiltonian(device, rng),
                                "clique " + std::to_string(qubits) +
                                    " trial " + std::to_string(trial));
    }
}

// Qutrit devices leave the power-of-two dimensions: 9 and 27.
TEST(EigOracle, QutritSliceHamiltonians)
{
    for (int qubits : {2, 3}) {
        const DeviceModel device = DeviceModel::gmonClique(qubits, 3);
        Rng rng(310 + qubits);
        for (int trial = 0; trial < 40; ++trial)
            expectMatchesOracle(randomSliceHamiltonian(device, rng),
                                "qutrit clique " + std::to_string(qubits) +
                                    " trial " + std::to_string(trial));
    }
}

// Slice Hamiltonians are real; these exercise complex reflectors and
// the phase that makes the tridiagonal real.
TEST(EigOracle, ComplexHermitian)
{
    Rng rng(320);
    for (int dim : {2, 3, 4, 5, 8, 9, 16}) {
        for (int trial = 0; trial < 20; ++trial) {
            const CMatrix u = haarUnitary(dim, rng);
            expectMatchesOracle(u + u.dagger(),
                                "dim " + std::to_string(dim));
        }
    }
}

TEST(EigOracle, SmallAndStructuredInputs)
{
    CMatrix one(1, 1);
    one(0, 0) = -2.5;
    expectMatchesOracle(one, "dim 1");
    const EigResult single = eigHermitian(one);
    EXPECT_EQ(single.values[0], -2.5);
    EXPECT_EQ(single.vectors(0, 0), Complex(1.0));

    for (int dim : {1, 2, 3, 8, 16}) {
        const CMatrix zero = CMatrix::zeros(dim, dim);
        expectMatchesOracle(zero, "zero dim " + std::to_string(dim));
        for (double v : eigHermitian(zero).values)
            EXPECT_EQ(v, 0.0);
    }

    // Diagonal input is already diagonal: the values come back exact.
    Rng rng(330);
    CMatrix diag(6, 6);
    std::vector<double> entries;
    for (int i = 0; i < 6; ++i) {
        entries.push_back(rng.uniform(-3.0, 3.0));
        diag(i, i) = entries.back();
    }
    expectMatchesOracle(diag, "diagonal");
    std::sort(entries.begin(), entries.end());
    EXPECT_EQ(eigHermitian(diag).values, entries);

    // Already tridiagonal, with complex off-diagonals: no reflector
    // does anything and the phase alone makes it real.
    CMatrix tri(7, 7);
    for (int i = 0; i < 7; ++i) {
        tri(i, i) = rng.uniform(-2.0, 2.0);
        if (i + 1 < 7) {
            tri(i + 1, i) = Complex(rng.uniform(-1.0, 1.0),
                                    rng.uniform(-1.0, 1.0));
            tri(i, i + 1) = std::conj(tri(i + 1, i));
        }
    }
    expectMatchesOracle(tri, "tridiagonal");
}

TEST(EigOracle, DegenerateSpectra)
{
    Rng rng(340);
    const CMatrix u = haarUnitary(8, rng);
    CMatrix d(8, 8);
    const double spectrum[] = {1.0, 1.0, 1.0, 2.0, 2.0, -3.0, -3.0, -3.0};
    for (int i = 0; i < 8; ++i)
        d(i, i) = spectrum[i];
    expectMatchesOracle(u * d * u.dagger(), "rotated clusters");

    CMatrix scaled = CMatrix::identity(5);
    scaled *= 1.75;
    expectMatchesOracle(scaled, "multiple of identity");

    // Z x I x I and X x X x I: eigenvalues +-1, each four-fold, and
    // sparse columns, so some reflectors meet all-zero subcolumns.
    const CMatrix id = CMatrix::identity(2);
    expectMatchesOracle(kronAll({pauliZ(), id, id}), "Z x I x I");
    expectMatchesOracle(kronAll({pauliX(), pauliX(), id}), "X x X x I");
}

// simultaneousDiagonalize and the Weyl decomposition rely on real
// symmetric input giving real eigenvectors, not merely real up to a
// per-column phase.
TEST(EigOracle, RealSymmetricGivesRealEigenvectors)
{
    Rng rng(350);
    for (int dim : {2, 3, 4, 7, 8, 16}) {
        for (int trial = 0; trial < 10; ++trial) {
            CMatrix h(dim, dim);
            for (int i = 0; i < dim; ++i)
                for (int j = 0; j <= i; ++j) {
                    h(i, j) = rng.uniform(-1.0, 1.0);
                    h(j, i) = h(i, j);
                }
            expectMatchesOracle(h, "real dim " + std::to_string(dim));
            const EigResult eig = eigHermitian(h);
            for (int i = 0; i < dim; ++i)
                for (int j = 0; j < dim; ++j)
                    EXPECT_EQ(eig.vectors(i, j).imag(), 0.0)
                        << "dim " << dim << " (" << i << ", " << j << ")";
        }
    }
}

TEST(Eig, NonFiniteInputThrows)
{
    const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity()};
    for (double v : bad) {
        CMatrix h = CMatrix::identity(4);
        h(1, 2) = v;
        h(2, 1) = v;
        EXPECT_THROW(eigHermitian(h), std::invalid_argument) << v;
        CMatrix diag = CMatrix::identity(3);
        diag(0, 0) = v;
        EXPECT_THROW(eigHermitian(diag), std::invalid_argument) << v;
    }
}

// Finite input can still overflow on the way: a reflector norm whose
// square is infinite leaves NaNs that never deflate, so the QL budget
// runs out; an eigenvalue past DBL_MAX deflates as infinity and the
// final finiteness check catches it. Both give the same typed error
// instead of a matrix of NaNs, while entries near DBL_MAX whose
// eigenvalues fit still solve.
TEST(Eig, OverflowingInputThrows)
{
    CMatrix h(3, 3);
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            if (i != j)
                h(i, j) = 1e300;
    EXPECT_THROW(eigHermitian(h), std::invalid_argument);

    // Eigenvalues 2e308, 0, 0.
    CMatrix big(3, 3);
    for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 2; ++j)
            big(i, j) = 1e308;
    EXPECT_THROW(eigHermitian(big), std::invalid_argument);

    CMatrix diag(2, 2);
    diag(0, 0) = 1e308;
    diag(1, 1) = -1e308;
    const EigResult eig = eigHermitian(diag);
    EXPECT_EQ(eig.values[0], -1e308);
    EXPECT_EQ(eig.values[1], 1e308);
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
