/**
 * @file
 * Dense complex matrices sized for quantum subcircuits.
 *
 * The library manipulates unitaries of dimension 2^n for n <= ~6 qubits
 * (GRAPE blocks are capped at 4 qubits, i.e. 16x16), so a simple
 * row-major dense representation with cache-friendly multiply loops is
 * both sufficient and fast. No external BLAS dependency.
 */

#ifndef QPC_LINALG_MATRIX_H
#define QPC_LINALG_MATRIX_H

#include <complex>
#include <vector>

namespace qpc {

using Complex = std::complex<double>;

/** The imaginary unit, for readable formulas. */
inline constexpr Complex kImag{0.0, 1.0};

/**
 * Dense row-major complex matrix.
 *
 * Invariant: data_.size() == rows_ * cols_.
 */
class CMatrix
{
  public:
    /** Empty 0x0 matrix. */
    CMatrix() = default;

    /** Zero-filled rows x cols matrix. */
    CMatrix(int rows, int cols);

    /** Build from an explicit row-major initializer list. */
    CMatrix(int rows, int cols, std::initializer_list<Complex> values);

    /** n x n identity. */
    static CMatrix identity(int n);

    /** rows x cols zero matrix. */
    static CMatrix zeros(int rows, int cols);

    int rows() const { return rows_; }
    int cols() const { return cols_; }
    bool empty() const { return data_.empty(); }

    Complex& operator()(int r, int c) { return data_[r * cols_ + c]; }
    const Complex&
    operator()(int r, int c) const
    {
        return data_[r * cols_ + c];
    }

    Complex* data() { return data_.data(); }
    const Complex* data() const { return data_.data(); }

    CMatrix& operator+=(const CMatrix& other);
    CMatrix& operator-=(const CMatrix& other);
    CMatrix& operator*=(Complex scalar);

    CMatrix operator+(const CMatrix& other) const;
    CMatrix operator-(const CMatrix& other) const;
    CMatrix operator*(const CMatrix& other) const;
    CMatrix operator*(Complex scalar) const;

    /** Conjugate transpose. */
    CMatrix dagger() const;
    /** Plain transpose (no conjugation). */
    CMatrix transpose() const;
    /** Elementwise conjugate. */
    CMatrix conjugate() const;

    /** Sum of diagonal entries. */
    Complex trace() const;

    /** sqrt(sum |a_ij|^2). */
    double frobeniusNorm() const;
    /** max_ij |a_ij|. */
    double maxAbs() const;

    /** Largest elementwise |difference| to another matrix; NaN when
     *  any difference is NaN, so a NaN matrix is never approxEqual. */
    double maxAbsDiff(const CMatrix& other) const;

    /** True when maxAbsDiff(other) <= tol. */
    bool approxEqual(const CMatrix& other, double tol = 1e-9) const;

    /** True when U U^dagger == I within tol. */
    bool isUnitary(double tol = 1e-9) const;

    /** True when A == A^dagger within tol. */
    bool isHermitian(double tol = 1e-9) const;

    /** Determinant via LU with partial pivoting (small matrices). */
    Complex determinant() const;

    /** Matrix-vector product. */
    std::vector<Complex> apply(const std::vector<Complex>& v) const;

    /** Human-readable dump for debugging. */
    std::string str(int decimals = 4) const;

  private:
    int rows_ = 0;
    int cols_ = 0;
    std::vector<Complex> data_;
};

/** result = a * b without allocating when result is presized. */
void multiplyInto(CMatrix& result, const CMatrix& a, const CMatrix& b);

/** Kronecker (tensor) product a (x) b. */
CMatrix kron(const CMatrix& a, const CMatrix& b);

/** Kronecker product of a list, left to right. */
CMatrix kronAll(const std::vector<CMatrix>& factors);

/** Scalar * matrix, for natural formula order. */
inline CMatrix
operator*(Complex scalar, const CMatrix& m)
{
    return m * scalar;
}

/** <a|b> with conjugation on the left argument. */
Complex innerProduct(const std::vector<Complex>& a,
                     const std::vector<Complex>& b);

/** l2 norm of a complex vector. */
double vectorNorm(const std::vector<Complex>& v);

} // namespace qpc

#endif // QPC_LINALG_MATRIX_H
