/**
 * @file
 * Complex Hermitian eigensolver (Householder tridiagonalization plus
 * implicit QL, the zhetrd/zsteqr structure).
 *
 * GRAPE eigendecomposes a Hermitian control Hamiltonian at every time
 * step of every iteration, at block sizes of at most 4 qubits (16x16,
 * or 81x81 for qutrit models). Reducing to a real tridiagonal first
 * costs O(n^3) once, after which each QL sweep is O(n) plus the
 * eigenvector rotations, with no external LAPACK. The library keeps
 * this one eigensolver; a cyclic Jacobi solver lives in the tests as
 * an independent oracle.
 */

#ifndef QPC_LINALG_EIG_H
#define QPC_LINALG_EIG_H

#include <vector>

#include "linalg/matrix.h"

namespace qpc {

/** Result of a Hermitian eigendecomposition A = V diag(values) V^dagger. */
struct EigResult
{
    /** Real eigenvalues in ascending order. */
    std::vector<double> values;
    /** Unitary matrix whose columns are the matching eigenvectors. */
    CMatrix vectors;
};

/**
 * Diagonalize a complex Hermitian matrix: Householder reflections
 * reduce it to a Hermitian tridiagonal, a diagonal phase makes the
 * off-diagonals real, and implicit QL with Wilkinson shifts finishes
 * the real tridiagonal while accumulating the eigenvectors. Real
 * symmetric input yields real eigenvectors.
 *
 * @param a Hermitian input (validated within 1e-9; panics otherwise).
 * @return Eigenvalues (ascending) and orthonormal eigenvectors.
 * @throws std::invalid_argument if an entry is NaN or infinite, or the
 *         QL iteration runs out of its 30 n step budget.
 */
EigResult eigHermitian(const CMatrix& a);

/**
 * Simultaneously diagonalize two commuting real-symmetric matrices that
 * are stored in CMatrix form with zero imaginary parts.
 *
 * Used by the Weyl decomposition where K = P + iS is a symmetric
 * unitary: P and S are real symmetric and commute, so they share a real
 * orthogonal eigenbasis Q with Q^T P Q and Q^T S Q both diagonal.
 *
 * @param p First real symmetric matrix.
 * @param s Second real symmetric matrix, commuting with p.
 * @param[out] q Real orthogonal matrix of shared eigenvectors (columns).
 * @param[out] pd Diagonal of Q^T P Q.
 * @param[out] sd Diagonal of Q^T S Q.
 */
void simultaneousDiagonalize(const CMatrix& p, const CMatrix& s, CMatrix& q,
                             std::vector<double>& pd,
                             std::vector<double>& sd);

} // namespace qpc

#endif // QPC_LINALG_EIG_H
