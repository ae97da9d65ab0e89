#include "linalg/eig.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "common/logging.h"

namespace qpc {

namespace {

/**
 * Householder reduction of a Hermitian n x n matrix to Hermitian
 * tridiagonal form, A = Q T Q^dagger (the zhetrd step).
 *
 * `a` is row-major with both triangles stored; it is overwritten. For
 * column k the reflector P = I - w w^dagger / h (w in rows k+1.. of
 * column k of `a`, h = w^dagger w / 2) maps a(k+1.., k) onto
 * e[k] * e_1 and is applied to the trailing block as P B P. On return
 * d holds T's diagonal, e[k] = T(k+1, k) (complex) and q = Q, formed
 * by accumulating the reflectors backwards.
 */
void
tridiagonalize(Complex* a, int n, double* d, Complex* e, Complex* q)
{
    std::vector<double> hs(std::max(n - 2, 0), 0.0);
    std::vector<Complex> p(n);
    for (int k = 0; k + 2 < n; ++k) {
        const int lo = k + 1;
        const Complex alpha = a[lo * n + k];
        double sigma = 0.0;
        for (int r = lo + 1; r < n; ++r)
            sigma += std::norm(a[r * n + k]);
        if (sigma == 0.0) {
            // Already tridiagonal in this column: P = I.
            e[k] = alpha;
            continue;
        }
        const double abs_alpha = std::abs(alpha);
        const double xnorm = std::sqrt(abs_alpha * abs_alpha + sigma);
        const Complex phase =
            abs_alpha > 0.0 ? alpha / abs_alpha : Complex{1.0, 0.0};
        const double h = xnorm * (xnorm + abs_alpha);
        e[k] = -phase * xnorm;
        a[lo * n + k] = alpha + phase * xnorm;
        hs[k] = h;

        // B <- P B P = B - w q^dagger - q w^dagger, with p = B w / h and
        // q = p - (w^dagger p / 2h) w.
        double s = 0.0;
        for (int r = lo; r < n; ++r) {
            Complex acc = 0.0;
            for (int c = lo; c < n; ++c)
                acc += a[r * n + c] * a[c * n + k];
            p[r] = acc / h;
            s += (std::conj(a[r * n + k]) * p[r]).real();
        }
        const double half = s / (2.0 * h);
        for (int r = lo; r < n; ++r)
            p[r] -= half * a[r * n + k];
        for (int r = lo; r < n; ++r) {
            const Complex wr = a[r * n + k];
            const Complex qr = p[r];
            for (int c = lo; c < n; ++c)
                a[r * n + c] -= wr * std::conj(p[c]) +
                                qr * std::conj(a[c * n + k]);
        }
    }
    for (int i = 0; i < n; ++i)
        d[i] = a[i * n + i].real();
    if (n >= 2)
        e[n - 2] = a[(n - 1) * n + n - 2];

    // Q = P_0 P_1 ... P_{n-3}, applied right to left so each reflector
    // only touches the block it acts on.
    for (int i = 0; i < n * n; ++i)
        q[i] = 0.0;
    for (int i = 0; i < n; ++i)
        q[i * n + i] = 1.0;
    for (int k = n - 3; k >= 0; --k) {
        if (hs[k] == 0.0)
            continue;
        const int lo = k + 1;
        for (int c = lo; c < n; ++c) {
            Complex t = 0.0;
            for (int r = lo; r < n; ++r)
                t += std::conj(a[r * n + k]) * q[r * n + c];
            t /= hs[k];
            for (int r = lo; r < n; ++r)
                q[r * n + c] -= a[r * n + k] * t;
        }
    }
}

/**
 * Implicit QL with Wilkinson shifts on the real symmetric tridiagonal
 * (d, off), off[i] coupling i and i+1 and off[n-1] = 0 (the zsteqr
 * step). Each Givens rotation of columns i, i+1 of the eigenvector
 * matrix is applied to rows i, i+1 of `zt`, which holds that matrix
 * transposed as n rows of n complex entries. On return d holds the
 * (unsorted) eigenvalues. Throws std::invalid_argument when the
 * iteration budget of 30 n QL steps runs out.
 */
void
implicitQl(double* d, double* off, Complex* zt, int n)
{
    const double eps = std::numeric_limits<double>::epsilon();
    int budget = 30 * n;
    for (int l = 0; l < n; ++l) {
        int m;
        do {
            for (m = l; m + 1 < n; ++m) {
                // Scale before adding: |d[m]| + |d[m+1]| may overflow.
                const double tol =
                    eps * std::abs(d[m]) + eps * std::abs(d[m + 1]);
                if (std::abs(off[m]) <= tol)
                    break;
            }
            if (m == l)
                break;
            if (budget-- == 0)
                throw std::invalid_argument(
                    "eigHermitian: QL iteration did not converge");

            // Wilkinson shift from the leading 2x2 block.
            double g = (d[l + 1] - d[l]) / (2.0 * off[l]);
            double r = std::hypot(g, 1.0);
            g = d[m] - d[l] + off[l] / (g + std::copysign(r, g));
            double s = 1.0, c = 1.0, p = 0.0;
            int i = m - 1;
            for (; i >= l; --i) {
                const double f = s * off[i];
                const double b = c * off[i];
                r = std::hypot(f, g);
                off[i + 1] = r;
                if (r == 0.0) {
                    // Underflow split: deflate and restart at l.
                    d[i + 1] -= p;
                    off[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;

                // The rotation is real, so it acts on the real and
                // imaginary parts alike: walk each row as 2n doubles.
                double* zi = reinterpret_cast<double*>(zt + i * n);
                double* zj = reinterpret_cast<double*>(zt + (i + 1) * n);
                for (int t = 0; t < 2 * n; ++t) {
                    const double x = zi[t];
                    const double y = zj[t];
                    zj[t] = s * x + c * y;
                    zi[t] = c * x - s * y;
                }
            }
            if (r == 0.0 && i >= l)
                continue;
            d[l] -= p;
            off[l] = g;
            off[m] = 0.0;
        } while (m != l);
    }
}

} // namespace

EigResult
eigHermitian(const CMatrix& input)
{
    panicIf(input.rows() != input.cols(), "eigHermitian needs square input");
    const int n = input.rows();

    // One pass: reject non-finite entries, measure the asymmetry and
    // symmetrize to kill representation-level asymmetry.
    std::vector<Complex> a(static_cast<size_t>(n) * n);
    double asym = 0.0;
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            const Complex x = input(i, j);
            if (!std::isfinite(x.real()) || !std::isfinite(x.imag()))
                throw std::invalid_argument(
                    "eigHermitian: non-finite input entry");
            const Complex y = std::conj(input(j, i));
            asym = std::max(asym, std::abs(x - y));
            a[i * n + j] = 0.5 * x + 0.5 * y;   // x + y may overflow
        }
    }
    panicIf(asym > 1e-9, "eigHermitian input is not Hermitian (max asym ",
            asym, ")");

    std::vector<double> d(n), off(n, 0.0);
    std::vector<Complex> e(n, 0.0), q(static_cast<size_t>(n) * n);
    tridiagonalize(a.data(), n, d.data(), e.data(), q.data());

    // A diagonal phase D makes the off-diagonals real: with delta_0 = 1
    // and delta_{k+1} = delta_k e_k / |e_k|, D^dagger T D has |e_k| below
    // the diagonal. The eigenvector matrix starts as Q D, stored
    // transposed for the QL rotations.
    std::vector<Complex> zt(static_cast<size_t>(n) * n);
    Complex delta = 1.0;
    for (int j = 0; j < n; ++j) {
        for (int r = 0; r < n; ++r)
            zt[j * n + r] = q[r * n + j] * delta;
        if (j + 1 < n) {
            off[j] = std::abs(e[j]);
            if (off[j] > 0.0)
                delta *= e[j] / off[j];
        }
    }

    implicitQl(d.data(), off.data(), zt.data(), n);
    for (int i = 0; i < n; ++i)
        if (!std::isfinite(d[i]))
            throw std::invalid_argument(
                "eigHermitian: eigenvalues overflowed");

    // Sort ascending, permuting eigenvector columns to match.
    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](int x, int y) { return d[x] < d[y]; });

    EigResult sorted;
    sorted.values.resize(n);
    sorted.vectors = CMatrix(n, n);
    for (int col = 0; col < n; ++col) {
        sorted.values[col] = d[order[col]];
        const Complex* z = zt.data() + order[col] * n;
        for (int row = 0; row < n; ++row)
            sorted.vectors(row, col) = z[row];
    }
    return sorted;
}

namespace {

/** Max |entry| of the strict off-diagonal of q^T m q. */
double
rotatedOffDiagonal(const CMatrix& q, const CMatrix& m)
{
    CMatrix r = q.transpose() * m * q;
    double worst = 0.0;
    for (int i = 0; i < r.rows(); ++i)
        for (int j = 0; j < r.cols(); ++j)
            if (i != j)
                worst = std::max(worst, std::abs(r(i, j)));
    return worst;
}

} // namespace

void
simultaneousDiagonalize(const CMatrix& p, const CMatrix& s, CMatrix& q,
                        std::vector<double>& pd, std::vector<double>& sd)
{
    const int n = p.rows();
    panicIf(p.cols() != n || s.rows() != n || s.cols() != n,
            "simultaneousDiagonalize shape mismatch");

    // Weights chosen irrational so structured spectra rarely collide;
    // several fallbacks cover adversarial alignments.
    const double weights[] = {0.7548776662466927, 1.3247179572447460,
                              0.3819660112501051, 2.6180339887498949,
                              0.0, 1.0};

    double best_residual = 1e300;
    CMatrix best_q;

    for (double w : weights) {
        CMatrix c = p + s * Complex{w, 0.0};
        EigResult eig = eigHermitian(c);

        // Strip any residual phases so q is a real matrix. Eigenvectors
        // of a real symmetric matrix stay real through eigHermitian (its
        // reflectors, phases and rotations are all real there), but
        // normalize defensively.
        CMatrix qr(n, n);
        for (int col = 0; col < n; ++col) {
            // Find largest-magnitude entry to define the phase.
            int arg_max = 0;
            double mag = 0.0;
            for (int row = 0; row < n; ++row) {
                if (std::abs(eig.vectors(row, col)) > mag) {
                    mag = std::abs(eig.vectors(row, col));
                    arg_max = row;
                }
            }
            Complex phase =
                eig.vectors(arg_max, col) / std::abs(eig.vectors(arg_max, col));
            for (int row = 0; row < n; ++row)
                qr(row, col) = (eig.vectors(row, col) / phase).real();
        }

        // Within degenerate clusters of c's spectrum, the eigenbasis is
        // arbitrary; re-diagonalize p restricted to each cluster (s then
        // follows automatically because s = (c - p)/w on that subspace).
        const double cluster_tol =
            1e-8 * std::max(1.0, c.frobeniusNorm());
        int start = 0;
        while (start < n) {
            int end = start + 1;
            while (end < n &&
                   std::abs(eig.values[end] - eig.values[end - 1]) <
                       cluster_tol) {
                ++end;
            }
            const int k = end - start;
            if (k > 1) {
                // p restricted to the cluster columns.
                CMatrix sub(k, k);
                for (int i = 0; i < k; ++i)
                    for (int j = 0; j < k; ++j) {
                        Complex acc = 0.0;
                        for (int r = 0; r < n; ++r)
                            for (int t = 0; t < n; ++t)
                                acc += qr(r, start + i) * p(r, t) *
                                       qr(t, start + j);
                        sub(i, j) = acc;
                    }
                EigResult sub_eig = eigHermitian(sub);
                CMatrix rotated(n, k);
                for (int r = 0; r < n; ++r)
                    for (int j = 0; j < k; ++j) {
                        Complex acc = 0.0;
                        for (int i = 0; i < k; ++i)
                            acc += qr(r, start + i) * sub_eig.vectors(i, j);
                        rotated(r, j) = acc.real();
                    }
                for (int r = 0; r < n; ++r)
                    for (int j = 0; j < k; ++j)
                        qr(r, start + j) = rotated(r, j);
            }
            start = end;
        }

        double residual = std::max(rotatedOffDiagonal(qr, p),
                                   rotatedOffDiagonal(qr, s));
        if (residual < best_residual) {
            best_residual = residual;
            best_q = qr;
        }
        if (best_residual < 1e-9)
            break;
    }

    panicIf(best_residual > 1e-6,
            "simultaneousDiagonalize failed; residual ", best_residual);

    q = best_q;
    CMatrix pr = q.transpose() * p * q;
    CMatrix sr = q.transpose() * s * q;
    pd.resize(n);
    sd.resize(n);
    for (int i = 0; i < n; ++i) {
        pd[i] = pr(i, i).real();
        sd[i] = sr(i, i).real();
    }
}

} // namespace qpc
