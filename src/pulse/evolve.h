/**
 * @file
 * Piecewise-constant unitary evolution of control pulses.
 *
 * Integrates the Schrodinger equation with the controls held constant
 * over each sample: U = prod_k exp(-i dt H(u_k)). evolveUnitary is the
 * physics oracle for synthesized and served pulses; its Taylor
 * propagator is kept independent of GRAPE's eigendecomposition path
 * (linalg/expm.h) on purpose, so the two cannot share a bug.
 */

#ifndef QPC_PULSE_EVOLVE_H
#define QPC_PULSE_EVOLVE_H

#include "pulse/device.h"
#include "pulse/schedule.h"

namespace qpc {

/**
 * Assemble the control Hamiltonian for one time slice:
 * drift + sum_c amplitudes[c] * control_c.
 */
CMatrix sliceHamiltonian(const DeviceModel& device,
                         const std::vector<double>& amplitudes);

/**
 * exp(-i dt H) via scaling and squaring of a truncated Taylor series,
 * scaled on ||H||_F * |dt| so either sign of dt converges. The oracle
 * propagator: reached only through evolveUnitary in production.
 */
CMatrix slicePropagator(const CMatrix& h, double dt);

/** Total unitary realized by a schedule on a device. */
CMatrix evolveUnitary(const DeviceModel& device,
                      const PulseSchedule& schedule);

/**
 * Phase-invariant trace fidelity |tr(U_target^dag U)|^2 / d^2 between
 * two equal-dimension unitaries.
 */
double traceFidelity(const CMatrix& target, const CMatrix& realized);

/**
 * Fidelity of a realized device unitary against a qubit-space target,
 * projected onto the computational subspace (used when the device
 * models qutrit leakage: amplitude that leaks out of the subspace
 * reduces fidelity).
 */
double subspaceFidelity(const DeviceModel& device, const CMatrix& target,
                        const CMatrix& realized);

} // namespace qpc

#endif // QPC_PULSE_EVOLVE_H
