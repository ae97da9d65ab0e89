/**
 * @file
 * Analytic gate-to-pulse library.
 *
 * Gate-based compilation maps each gate to a canned pulse sequence and
 * concatenates (Section 2.3). This library constructs those canned
 * pulses from the gmon controls in closed form: square drives at the
 * amplitude bounds, with durations set by the rotation angles. Tests
 * verify that evolving each pulse reproduces the gate unitary (exactly
 * for single-qubit gates, up to local equivalence and global phase for
 * entangling pulses built from the XX coupler).
 *
 * These analytic pulses are correct but not time-optimal: they realize
 * the gates one axis at a time, while GRAPE overlaps drives. The gap
 * between this library's durations and the optimized Table 1 values is
 * exactly the headroom that pulse-level compilation exploits.
 */

#ifndef QPC_PULSE_LIBRARY_H
#define QPC_PULSE_LIBRARY_H

#include "ir/circuit.h"
#include "pulse/device.h"
#include "pulse/schedule.h"

namespace qpc {

/** Builder of canned gate pulses for one device. */
class GatePulseLibrary
{
  public:
    /**
     * @param device The device the pulses address.
     * @param dt Sample period in ns (0.05 standard, 1.0 realistic).
     */
    GatePulseLibrary(const DeviceModel& device, double dt = 0.05);

    double dt() const { return dt_; }

    /** Rz(theta) on one qubit via the flux drive; pulses the same gate
     * up to global phase, Rz(remainder(theta, 2 pi)). */
    PulseSchedule rz(int qubit, double theta) const;

    /** Rx(theta) on one qubit via the charge drive, wrapped like rz(). */
    PulseSchedule rx(int qubit, double theta) const;

    /** Hadamard as the Rz Rx Rz sequence. */
    PulseSchedule h(int qubit) const;

    /**
     * Coupler evolution exp(-i c XX) between a coupled pair; c may be
     * negative. The canonical two-qubit resource: c = -pi/4 is in the
     * CX class.
     */
    PulseSchedule xx(int qubit_a, int qubit_b, double c) const;

    /** Exact CX pulse: local dressing around one XX(pi/4) window. */
    PulseSchedule cx(int control, int target) const;

    /** Exact CZ pulse: Rz dressing around one XX(pi/4) window. */
    PulseSchedule cz(int qubit_a, int qubit_b) const;

    /** SWAP as three alternating CX pulses. */
    PulseSchedule swapGate(int qubit_a, int qubit_b) const;

    /**
     * Gate-based compilation of a bound circuit: concatenate canned
     * pulses op by op (serial; the duration model in transpile/
     * accounts for parallel scheduling separately).
     */
    PulseSchedule compileCircuit(const Circuit& circuit) const;

  private:
    PulseSchedule empty(int num_samples) const;
    int couplerChannel(int qubit_a, int qubit_b) const;

    const DeviceModel& device_;
    double dt_;
};

} // namespace qpc

#endif // QPC_PULSE_LIBRARY_H
