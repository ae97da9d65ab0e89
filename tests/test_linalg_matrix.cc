#include <gtest/gtest.h>

#include <cmath>

#include "linalg/matrix.h"
#include "linalg/random_unitary.h"
#include "linalg/su2.h"

namespace {

using namespace qpc;

TEST(Matrix, IdentityProperties)
{
    const CMatrix id = CMatrix::identity(4);
    EXPECT_EQ(id.rows(), 4);
    EXPECT_EQ(id.cols(), 4);
    EXPECT_TRUE(id.isUnitary());
    EXPECT_TRUE(id.isHermitian());
    EXPECT_NEAR(id.trace().real(), 4.0, 1e-12);
    EXPECT_NEAR(std::abs(id.determinant()), 1.0, 1e-12);
}

TEST(Matrix, ArithmeticRoundTrip)
{
    Rng rng(1);
    const CMatrix a = haarUnitary(3, rng);
    const CMatrix b = haarUnitary(3, rng);
    CMatrix sum = a + b;
    sum -= b;
    EXPECT_TRUE(sum.approxEqual(a, 1e-12));

    CMatrix scaled = a * Complex{2.0, 0.0};
    scaled *= Complex{0.5, 0.0};
    EXPECT_TRUE(scaled.approxEqual(a, 1e-12));
}

TEST(Matrix, MultiplyAgainstManual)
{
    CMatrix a(2, 2, {1.0, 2.0, 3.0, 4.0});
    CMatrix b(2, 2, {5.0, 6.0, 7.0, 8.0});
    const CMatrix c = a * b;
    EXPECT_NEAR(c(0, 0).real(), 19.0, 1e-12);
    EXPECT_NEAR(c(0, 1).real(), 22.0, 1e-12);
    EXPECT_NEAR(c(1, 0).real(), 43.0, 1e-12);
    EXPECT_NEAR(c(1, 1).real(), 50.0, 1e-12);
}

TEST(Matrix, DaggerReversesProducts)
{
    Rng rng(2);
    const CMatrix a = haarUnitary(4, rng);
    const CMatrix b = haarUnitary(4, rng);
    EXPECT_TRUE((a * b).dagger().approxEqual(b.dagger() * a.dagger(),
                                             1e-10));
}

TEST(Matrix, KronDimensionsAndValues)
{
    const CMatrix x = pauliX();
    const CMatrix z = pauliZ();
    const CMatrix xz = kron(x, z);
    EXPECT_EQ(xz.rows(), 4);
    // (X (x) Z)(0,2) = X(0,1) Z(0,0) = 1.
    EXPECT_NEAR(xz(0, 2).real(), 1.0, 1e-12);
    EXPECT_NEAR(xz(1, 3).real(), -1.0, 1e-12);
    EXPECT_TRUE(xz.isUnitary());
}

TEST(Matrix, KronMixedProductProperty)
{
    Rng rng(3);
    const CMatrix a = haarUnitary(2, rng);
    const CMatrix b = haarUnitary(2, rng);
    const CMatrix c = haarUnitary(2, rng);
    const CMatrix d = haarUnitary(2, rng);
    // (A (x) B)(C (x) D) = AC (x) BD.
    EXPECT_TRUE((kron(a, b) * kron(c, d))
                    .approxEqual(kron(a * c, b * d), 1e-10));
}

TEST(Matrix, DeterminantOfUnitaryHasUnitModulus)
{
    Rng rng(4);
    for (int i = 0; i < 10; ++i) {
        const CMatrix u = haarUnitary(4, rng);
        EXPECT_NEAR(std::abs(u.determinant()), 1.0, 1e-9);
    }
}

TEST(Matrix, DeterminantMultiplicative)
{
    Rng rng(5);
    const CMatrix a = haarUnitary(3, rng);
    const CMatrix b = haarUnitary(3, rng);
    const Complex dab = (a * b).determinant();
    const Complex prod = a.determinant() * b.determinant();
    EXPECT_NEAR(std::abs(dab - prod), 0.0, 1e-9);
}

TEST(Matrix, ApplyMatchesMultiplication)
{
    Rng rng(6);
    const CMatrix u = haarUnitary(4, rng);
    const std::vector<Complex> v = randomState(4, rng);
    const std::vector<Complex> w = u.apply(v);
    for (int r = 0; r < 4; ++r) {
        Complex acc = 0.0;
        for (int c = 0; c < 4; ++c)
            acc += u(r, c) * v[c];
        EXPECT_NEAR(std::abs(w[r] - acc), 0.0, 1e-12);
    }
    // Unitaries preserve norms.
    EXPECT_NEAR(vectorNorm(w), 1.0, 1e-10);
}

TEST(Matrix, MultiplyIntoMatchesOperator)
{
    Rng rng(7);
    const CMatrix a = haarUnitary(4, rng);
    const CMatrix b = haarUnitary(4, rng);
    CMatrix out(4, 4);
    multiplyInto(out, a, b);
    EXPECT_TRUE(out.approxEqual(a * b, 1e-12));
}

TEST(Matrix, NormsAndDiffs)
{
    const CMatrix id = CMatrix::identity(2);
    EXPECT_NEAR(id.frobeniusNorm(), std::sqrt(2.0), 1e-12);
    EXPECT_NEAR(id.maxAbs(), 1.0, 1e-12);
    CMatrix other = id;
    other(0, 1) = Complex{0.0, 0.5};
    EXPECT_NEAR(id.maxAbsDiff(other), 0.5, 1e-12);
    EXPECT_FALSE(id.approxEqual(other, 0.1));
}

// A NaN anywhere must make a matrix unequal to everything, itself
// included, and fail the Hermitian and unitary checks built on it.
TEST(Matrix, NaNIsNeverApproxEqual)
{
    CMatrix bad = CMatrix::identity(4);
    bad(1, 2) = std::nan("");
    bad(2, 1) = std::nan("");
    EXPECT_TRUE(std::isnan(bad.maxAbsDiff(CMatrix::identity(4))));
    EXPECT_TRUE(std::isnan(CMatrix::identity(4).maxAbsDiff(bad)));
    EXPECT_FALSE(bad.approxEqual(CMatrix::identity(4), 1.0));
    EXPECT_FALSE(bad.approxEqual(bad, 1.0));
    EXPECT_FALSE(bad.isHermitian(1.0));
    EXPECT_FALSE(bad.isUnitary(1.0));

    // A NaN after a large finite difference still wins.
    CMatrix late = CMatrix::identity(2);
    late(0, 0) = 5.0;
    late(1, 1) = std::nan("");
    EXPECT_TRUE(std::isnan(late.maxAbsDiff(CMatrix::identity(2))));
}

TEST(Matrix, HaarUnitariesAreUnitary)
{
    Rng rng(8);
    for (int dim : {2, 4, 8, 16}) {
        const CMatrix u = haarUnitary(dim, rng);
        EXPECT_TRUE(u.isUnitary(1e-9)) << "dim " << dim;
    }
}

TEST(Matrix, HaarDeterminism)
{
    Rng a(99), b(99);
    EXPECT_TRUE(haarUnitary(4, a).approxEqual(haarUnitary(4, b)));
}

TEST(Matrix, InnerProductConjugatesLeft)
{
    std::vector<Complex> a{Complex{0.0, 1.0}, 0.0};
    std::vector<Complex> b{1.0, 0.0};
    EXPECT_NEAR(std::abs(innerProduct(a, b) - Complex{0.0, -1.0}), 0.0,
                1e-12);
}

} // namespace
