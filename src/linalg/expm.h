/**
 * @file
 * Hermitian matrix exponential: the synthesis propagator.
 *
 * GRAPE exponentiates every time slice through the eigendecomposition
 * it also needs for the exact gradient, so the propagator and its
 * derivative come from one factorization. The Taylor slicePropagator
 * (pulse/evolve.h) stays deliberately independent of this path: it
 * is the physics oracle that checks synthesized and served pulses.
 */

#ifndef QPC_LINALG_EXPM_H
#define QPC_LINALG_EXPM_H

#include "linalg/eig.h"
#include "linalg/matrix.h"

namespace qpc {

/**
 * exp(-i dt H) from a factorization H = V diag(lambda) V^dagger:
 * V diag(e^{-i dt lambda}) V^dagger. Exact for Hermitian H up to the
 * eigensolver's tolerance; with dt a GRAPE slice width this is the
 * slice's unitary propagator.
 */
CMatrix expmHermitian(const EigResult& eig, double dt);

/** exp(-i dt H) for Hermitian H (eigendecomposes H first). */
CMatrix expmHermitian(const CMatrix& h, double dt);

} // namespace qpc

#endif // QPC_LINALG_EXPM_H
