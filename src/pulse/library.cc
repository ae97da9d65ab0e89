#include "pulse/library.h"

#include <cmath>

#include "common/logging.h"

namespace qpc {

namespace {

constexpr double kPi = 3.14159265358979323846;

/**
 * Map -0.0 to +0.0. An identity rotation yields a zero amplitude whose
 * sign follows the angle's; Rx(0), Rz(0) and Rx(-0.0) share one cache
 * entry, so their served bytes must not depend on which one filled it.
 */
double
positiveZero(double amp)
{
    return amp == 0.0 ? 0.0 : amp;
}

} // namespace

GatePulseLibrary::GatePulseLibrary(const DeviceModel& device, double dt)
    : device_(device), dt_(dt)
{
    fatalIf(dt <= 0.0, "sample period must be positive");
}

PulseSchedule
GatePulseLibrary::empty(int num_samples) const
{
    return PulseSchedule(device_.numControls(), num_samples, dt_);
}

int
GatePulseLibrary::couplerChannel(int qubit_a, int qubit_b) const
{
    const auto& pairs = device_.couplings();
    for (size_t i = 0; i < pairs.size(); ++i) {
        const auto& [a, b] = pairs[i];
        if ((a == qubit_a && b == qubit_b) ||
            (a == qubit_b && b == qubit_a))
            return 2 * device_.numQubits() + static_cast<int>(i);
    }
    fatal("no coupler between q", qubit_a, " and q", qubit_b);
}

PulseSchedule
GatePulseLibrary::rz(int qubit, double theta) const
{
    // Flux drive generates n = (I - Z)/2: exp(-i w t n) = Rz(-w t) up
    // to global phase, so drive with sign -sign(theta). Whole turns
    // are a global phase too: wrap them off to bound the duration.
    theta = std::remainder(theta, 2.0 * kPi);
    const double w_max = device_.limits().fluxMax;
    const double total = std::abs(theta) / w_max;
    const int samples = std::max(1, static_cast<int>(
                                        std::ceil(total / dt_)));
    // Stretch amplitude so the discretized area matches exactly.
    const double amp = positiveZero(-theta / (samples * dt_));
    PulseSchedule schedule = empty(samples);
    auto& ch = schedule.channel(2 * qubit + 1);
    for (double& v : ch)
        v = amp;
    return schedule;
}

PulseSchedule
GatePulseLibrary::rx(int qubit, double theta) const
{
    // Charge drive generates X: exp(-i w t X) = Rx(2 w t). Wrapped.
    theta = std::remainder(theta, 2.0 * kPi);
    const double w_max = device_.limits().chargeMax;
    const double total = std::abs(theta) / (2.0 * w_max);
    const int samples = std::max(1, static_cast<int>(
                                        std::ceil(total / dt_)));
    const double amp = positiveZero(theta / (2.0 * samples * dt_));
    PulseSchedule schedule = empty(samples);
    auto& ch = schedule.channel(2 * qubit);
    for (double& v : ch)
        v = amp;
    return schedule;
}

PulseSchedule
GatePulseLibrary::h(int qubit) const
{
    // H = e^{i pi/2} Rz(pi/2) Rx(pi/2) Rz(pi/2); rightmost acts first.
    PulseSchedule schedule = rz(qubit, kPi / 2);
    schedule.append(rx(qubit, kPi / 2));
    schedule.append(rz(qubit, kPi / 2));
    return schedule;
}

PulseSchedule
GatePulseLibrary::xx(int qubit_a, int qubit_b, double c) const
{
    // Coupler generates XX: exp(-i g t XX); need g t = c.
    const double g_max = device_.limits().couplerMax;
    const double total = std::abs(c) / g_max;
    const int samples = std::max(1, static_cast<int>(
                                        std::ceil(total / dt_)));
    const double amp = positiveZero(c / (samples * dt_));
    PulseSchedule schedule = empty(samples);
    auto& ch = schedule.channel(couplerChannel(qubit_a, qubit_b));
    for (double& v : ch)
        v = amp;
    return schedule;
}

PulseSchedule
GatePulseLibrary::cz(int qubit_a, int qubit_b) const
{
    // CZ = e^{i pi/4} exp(i pi/4 ZZ) (Rz(pi/2) x Rz(pi/2)), and
    // exp(i pi/4 ZZ) = (H x H) exp(i pi/4 XX) (H x H). Time order is
    // right to left.
    PulseSchedule schedule = rz(qubit_a, kPi / 2);
    {
        PulseSchedule other = rz(qubit_b, kPi / 2);
        schedule.append(other);
    }
    schedule.append(h(qubit_a));
    schedule.append(h(qubit_b));
    schedule.append(xx(qubit_a, qubit_b, -kPi / 4));
    schedule.append(h(qubit_a));
    schedule.append(h(qubit_b));
    return schedule;
}

PulseSchedule
GatePulseLibrary::cx(int control, int target) const
{
    // CX = (I x H) CZ (I x H).
    PulseSchedule schedule = h(target);
    schedule.append(cz(control, target));
    schedule.append(h(target));
    return schedule;
}

PulseSchedule
GatePulseLibrary::swapGate(int qubit_a, int qubit_b) const
{
    PulseSchedule schedule = cx(qubit_a, qubit_b);
    schedule.append(cx(qubit_b, qubit_a));
    schedule.append(cx(qubit_a, qubit_b));
    return schedule;
}

PulseSchedule
GatePulseLibrary::compileCircuit(const Circuit& circuit) const
{
    fatalIf(circuit.numQubits() > device_.numQubits(),
            "circuit is wider than the device");
    PulseSchedule schedule = empty(0);
    for (const GateOp& op : circuit.ops()) {
        panicIf(gateIsRotation(op.kind) && op.angle.isSymbolic(),
                "bind the circuit before pulse compilation");
        const double angle =
            gateIsRotation(op.kind) ? op.angle.bind({}) : 0.0;
        switch (op.kind) {
          case GateKind::I:
            break;
          case GateKind::X:
            schedule.append(rx(op.q0, kPi));
            break;
          case GateKind::Y:
            // Y = Rz(-pi/2) Rx(pi) Rz(pi/2) up to phase.
            schedule.append(rz(op.q0, kPi / 2));
            schedule.append(rx(op.q0, kPi));
            schedule.append(rz(op.q0, -kPi / 2));
            break;
          case GateKind::Z:
            schedule.append(rz(op.q0, kPi));
            break;
          case GateKind::S:
            schedule.append(rz(op.q0, kPi / 2));
            break;
          case GateKind::Sdg:
            schedule.append(rz(op.q0, -kPi / 2));
            break;
          case GateKind::T:
            schedule.append(rz(op.q0, kPi / 4));
            break;
          case GateKind::Tdg:
            schedule.append(rz(op.q0, -kPi / 4));
            break;
          case GateKind::H:
            schedule.append(h(op.q0));
            break;
          case GateKind::Rx:
            schedule.append(rx(op.q0, angle));
            break;
          case GateKind::Ry:
            // Ry = Rz(pi/2) Rx(theta) Rz(-pi/2).
            schedule.append(rz(op.q0, -kPi / 2));
            schedule.append(rx(op.q0, angle));
            schedule.append(rz(op.q0, kPi / 2));
            break;
          case GateKind::Rz:
            schedule.append(rz(op.q0, angle));
            break;
          case GateKind::CX:
            schedule.append(cx(op.q0, op.q1));
            break;
          case GateKind::CZ:
            schedule.append(cz(op.q0, op.q1));
            break;
          case GateKind::SWAP:
            schedule.append(swapGate(op.q0, op.q1));
            break;
          case GateKind::ISwap:
            // iSWAP class: XX then YY quarter turns.
            schedule.append(xx(op.q0, op.q1, kPi / 4));
            schedule.append(rz(op.q0, kPi / 2));
            schedule.append(rz(op.q1, kPi / 2));
            schedule.append(xx(op.q0, op.q1, kPi / 4));
            schedule.append(rz(op.q0, -kPi / 2));
            schedule.append(rz(op.q1, -kPi / 2));
            break;
        }
    }
    return schedule;
}

} // namespace qpc
