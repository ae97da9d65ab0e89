/**
 * @file
 * Cyclic Jacobi Hermitian eigensolver, kept in the tests as an oracle.
 *
 * An independent algorithm for the same decomposition eigHermitian
 * computes: each rotation zeroes one off-diagonal entry of the full
 * matrix, with no tridiagonal reduction and no shifts, so an error in
 * the library's reflectors, phases or QL sweep cannot cancel out
 * against it.
 */

#ifndef QPC_TESTS_JACOBI_ORACLE_H
#define QPC_TESTS_JACOBI_ORACLE_H

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "linalg/eig.h"

namespace qpc::testutil {

/**
 * One cyclic Jacobi sweep over the strict upper triangle of a Hermitian
 * matrix. Each rotation G = diag(1, e^{-i phi}) * [[c, s], [-s, c]]
 * (embedded at rows/cols p, q) zeroes a(p, q); a <- G^dagger a G and
 * v <- v G.
 */
inline void
jacobiSweep(CMatrix& a, CMatrix& v)
{
    const int n = a.rows();
    for (int p = 0; p < n; ++p) {
        for (int q = p + 1; q < n; ++q) {
            const Complex beta = a(p, q);
            const double abeta = std::abs(beta);
            if (abeta <= 1e-300)
                continue;

            const double alpha = a(p, p).real();
            const double gamma = a(q, q).real();
            const double tau = (gamma - alpha) / (2.0 * abeta);
            const double t = tau >= 0.0
                                 ? 1.0 / (tau + std::sqrt(1.0 + tau * tau))
                                 : -1.0 / (-tau + std::sqrt(1.0 + tau * tau));
            const double c = 1.0 / std::sqrt(1.0 + t * t);
            const double s = t * c;
            const Complex eip = std::polar(1.0, std::arg(beta));
            const Complex eim = std::conj(eip);

            for (int i = 0; i < n; ++i) {
                const Complex aip = a(i, p);
                const Complex aiq = a(i, q);
                a(i, p) = c * aip - s * eim * aiq;
                a(i, q) = s * aip + c * eim * aiq;
            }
            for (int j = 0; j < n; ++j) {
                const Complex apj = a(p, j);
                const Complex aqj = a(q, j);
                a(p, j) = c * apj - s * eip * aqj;
                a(q, j) = s * apj + c * eip * aqj;
            }
            for (int i = 0; i < n; ++i) {
                const Complex vip = v(i, p);
                const Complex viq = v(i, q);
                v(i, p) = c * vip - s * eim * viq;
                v(i, q) = s * vip + c * eim * viq;
            }
        }
    }
}

/** Jacobi eigendecomposition, sorted ascending like eigHermitian. */
inline EigResult
jacobiEigHermitian(const CMatrix& input)
{
    const int n = input.rows();
    CMatrix a = input + input.dagger();
    a *= 0.5;
    CMatrix v = CMatrix::identity(n);
    const double scale = std::max(a.frobeniusNorm(), 1e-300);
    const double target = 1e-26 * scale * scale;

    auto off_mass = [&] {
        double sum = 0.0;
        for (int p = 0; p < n; ++p)
            for (int q = p + 1; q < n; ++q)
                sum += std::norm(a(p, q));
        return sum;
    };
    int sweep = 0;
    for (; off_mass() > target && sweep < 100; ++sweep)
        jacobiSweep(a, v);
    if (sweep == 100)
        throw std::runtime_error("Jacobi oracle failed to converge");

    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int x, int y) {
        return a(x, x).real() < a(y, y).real();
    });
    EigResult sorted;
    sorted.values.resize(n);
    sorted.vectors = CMatrix(n, n);
    for (int col = 0; col < n; ++col) {
        sorted.values[col] = a(order[col], order[col]).real();
        for (int row = 0; row < n; ++row)
            sorted.vectors(row, col) = v(row, order[col]);
    }
    return sorted;
}

} // namespace qpc::testutil

#endif // QPC_TESTS_JACOBI_ORACLE_H
