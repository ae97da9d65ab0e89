#include "linalg/matrix.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/logging.h"
#include "linalg/kernels.h"

namespace qpc {

CMatrix::CMatrix(int rows, int cols)
    : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows) * cols)
{
    panicIf(rows < 0 || cols < 0, "negative matrix dimension");
}

CMatrix::CMatrix(int rows, int cols, std::initializer_list<Complex> values)
    : CMatrix(rows, cols)
{
    panicIf(static_cast<int>(values.size()) != rows * cols,
            "initializer size mismatch: got ", values.size(), " want ",
            rows * cols);
    size_t i = 0;
    for (const auto& v : values)
        data_[i++] = v;
}

CMatrix
CMatrix::identity(int n)
{
    CMatrix m(n, n);
    for (int i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

CMatrix
CMatrix::zeros(int rows, int cols)
{
    return CMatrix(rows, cols);
}

CMatrix&
CMatrix::operator+=(const CMatrix& other)
{
    panicIf(rows_ != other.rows_ || cols_ != other.cols_,
            "matrix shape mismatch in +=");
    for (size_t i = 0; i < data_.size(); ++i)
        data_[i] += other.data_[i];
    return *this;
}

CMatrix&
CMatrix::operator-=(const CMatrix& other)
{
    panicIf(rows_ != other.rows_ || cols_ != other.cols_,
            "matrix shape mismatch in -=");
    for (size_t i = 0; i < data_.size(); ++i)
        data_[i] -= other.data_[i];
    return *this;
}

CMatrix&
CMatrix::operator*=(Complex scalar)
{
    for (auto& v : data_)
        v *= scalar;
    return *this;
}

CMatrix
CMatrix::operator+(const CMatrix& other) const
{
    CMatrix out = *this;
    out += other;
    return out;
}

CMatrix
CMatrix::operator-(const CMatrix& other) const
{
    CMatrix out = *this;
    out -= other;
    return out;
}

CMatrix
CMatrix::operator*(const CMatrix& other) const
{
    CMatrix out(rows_, other.cols_);
    multiplyInto(out, *this, other);
    return out;
}

CMatrix
CMatrix::operator*(Complex scalar) const
{
    CMatrix out = *this;
    out *= scalar;
    return out;
}

void
multiplyInto(CMatrix& result, const CMatrix& a, const CMatrix& b)
{
    panicIf(a.cols() != b.rows(), "matrix shape mismatch in multiply: ",
            a.rows(), "x", a.cols(), " * ", b.rows(), "x", b.cols());
    panicIf(result.rows() != a.rows() || result.cols() != b.cols(),
            "result shape mismatch in multiplyInto");
    panicIf(&result == &a || &result == &b,
            "multiplyInto result must not alias an operand");

    // Large multiplies amortize the pack/unpack into the planar SoA
    // kernel; small ones stay in the AoS reference loop, which also
    // keeps its zero-skip advantage on sparse operands.
    if (kernels::gemmWorthSoa(a.rows(), a.cols(), b.cols())) {
        kernels::gemmInto(result, a, b);
        return;
    }
    kernels::gemmAosReference(result, a, b);
}

CMatrix
CMatrix::dagger() const
{
    CMatrix out(cols_, rows_);
    for (int r = 0; r < rows_; ++r)
        for (int c = 0; c < cols_; ++c)
            out(c, r) = std::conj((*this)(r, c));
    return out;
}

CMatrix
CMatrix::transpose() const
{
    CMatrix out(cols_, rows_);
    for (int r = 0; r < rows_; ++r)
        for (int c = 0; c < cols_; ++c)
            out(c, r) = (*this)(r, c);
    return out;
}

CMatrix
CMatrix::conjugate() const
{
    CMatrix out = *this;
    for (int r = 0; r < rows_; ++r)
        for (int c = 0; c < cols_; ++c)
            out(r, c) = std::conj(out(r, c));
    return out;
}

Complex
CMatrix::trace() const
{
    panicIf(rows_ != cols_, "trace of non-square matrix");
    Complex t = 0.0;
    for (int i = 0; i < rows_; ++i)
        t += (*this)(i, i);
    return t;
}

double
CMatrix::frobeniusNorm() const
{
    double sum = 0.0;
    for (const auto& v : data_)
        sum += std::norm(v);
    return std::sqrt(sum);
}

double
CMatrix::maxAbs() const
{
    double best = 0.0;
    for (const auto& v : data_)
        best = std::max(best, std::abs(v));
    return best;
}

double
CMatrix::maxAbsDiff(const CMatrix& other) const
{
    panicIf(rows_ != other.rows_ || cols_ != other.cols_,
            "matrix shape mismatch in maxAbsDiff");
    // NaN compares false against everything, so std::max would drop it
    // and call a NaN matrix equal to anything; return it instead.
    double best = 0.0;
    for (size_t i = 0; i < data_.size(); ++i) {
        const double d = std::abs(data_[i] - other.data_[i]);
        if (std::isnan(d))
            return d;
        best = std::max(best, d);
    }
    return best;
}

bool
CMatrix::approxEqual(const CMatrix& other, double tol) const
{
    if (rows_ != other.rows_ || cols_ != other.cols_)
        return false;
    return maxAbsDiff(other) <= tol;
}

bool
CMatrix::isUnitary(double tol) const
{
    if (rows_ != cols_)
        return false;
    CMatrix product = (*this) * dagger();
    return product.approxEqual(identity(rows_), tol);
}

bool
CMatrix::isHermitian(double tol) const
{
    if (rows_ != cols_)
        return false;
    return approxEqual(dagger(), tol);
}

Complex
CMatrix::determinant() const
{
    panicIf(rows_ != cols_, "determinant of non-square matrix");
    const int n = rows_;
    CMatrix lu = *this;
    Complex det = 1.0;
    for (int col = 0; col < n; ++col) {
        int pivot = col;
        double best = std::abs(lu(col, col));
        for (int r = col + 1; r < n; ++r) {
            if (std::abs(lu(r, col)) > best) {
                best = std::abs(lu(r, col));
                pivot = r;
            }
        }
        if (best == 0.0)
            return 0.0;
        if (pivot != col) {
            for (int c = 0; c < n; ++c)
                std::swap(lu(col, c), lu(pivot, c));
            det = -det;
        }
        det *= lu(col, col);
        for (int r = col + 1; r < n; ++r) {
            Complex factor = lu(r, col) / lu(col, col);
            for (int c = col; c < n; ++c)
                lu(r, c) -= factor * lu(col, c);
        }
    }
    return det;
}

std::vector<Complex>
CMatrix::apply(const std::vector<Complex>& v) const
{
    panicIf(static_cast<int>(v.size()) != cols_,
            "matrix-vector size mismatch");
    std::vector<Complex> out(rows_, Complex{0.0, 0.0});
    for (int r = 0; r < rows_; ++r) {
        const Complex* row = data_.data() + static_cast<size_t>(r) * cols_;
        out[r] = kernels::dotuInterleaved(row, v.data(),
                                          static_cast<size_t>(cols_));
    }
    return out;
}

std::string
CMatrix::str(int decimals) const
{
    std::ostringstream out;
    char buf[96];
    for (int r = 0; r < rows_; ++r) {
        for (int c = 0; c < cols_; ++c) {
            const Complex& v = (*this)(r, c);
            std::snprintf(buf, sizeof(buf), "(%+.*f%+.*fi) ", decimals,
                          v.real(), decimals, v.imag());
            out << buf;
        }
        out << "\n";
    }
    return out.str();
}

CMatrix
kron(const CMatrix& a, const CMatrix& b)
{
    CMatrix out(a.rows() * b.rows(), a.cols() * b.cols());
    for (int ar = 0; ar < a.rows(); ++ar)
        for (int ac = 0; ac < a.cols(); ++ac) {
            const Complex av = a(ar, ac);
            if (av == Complex{0.0, 0.0})
                continue;
            for (int br = 0; br < b.rows(); ++br)
                for (int bc = 0; bc < b.cols(); ++bc)
                    out(ar * b.rows() + br, ac * b.cols() + bc) =
                        av * b(br, bc);
        }
    return out;
}

CMatrix
kronAll(const std::vector<CMatrix>& factors)
{
    panicIf(factors.empty(), "kronAll needs at least one factor");
    CMatrix out = factors[0];
    for (size_t i = 1; i < factors.size(); ++i)
        out = kron(out, factors[i]);
    return out;
}

Complex
innerProduct(const std::vector<Complex>& a, const std::vector<Complex>& b)
{
    panicIf(a.size() != b.size(), "vector size mismatch in innerProduct");
    return kernels::dotcInterleaved(a.data(), b.data(), a.size());
}

double
vectorNorm(const std::vector<Complex>& v)
{
    double sum = 0.0;
    for (const auto& x : v)
        sum += std::norm(x);
    return std::sqrt(sum);
}

} // namespace qpc
