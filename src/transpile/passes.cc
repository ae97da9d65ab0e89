#include "transpile/passes.h"

#include <vector>

#include "common/logging.h"

namespace qpc {

namespace {

/** Inverse partner for exact-cancellation purposes, or I when none. */
GateKind
inverseKind(GateKind kind)
{
    switch (kind) {
      case GateKind::X:
      case GateKind::Y:
      case GateKind::Z:
      case GateKind::H:
      case GateKind::CX:
      case GateKind::CZ:
      case GateKind::SWAP:
        return kind;
      case GateKind::S:
        return GateKind::Sdg;
      case GateKind::Sdg:
        return GateKind::S;
      case GateKind::T:
        return GateKind::Tdg;
      case GateKind::Tdg:
        return GateKind::T;
      default:
        return GateKind::I;
    }
}

/** Rebuild the op list without the erased entries. */
void
compact(Circuit& circuit, const std::vector<bool>& erased)
{
    std::vector<GateOp> kept;
    kept.reserve(circuit.ops().size());
    for (size_t i = 0; i < circuit.ops().size(); ++i)
        if (!erased[i])
            kept.push_back(circuit.ops()[i]);
    circuit.mutableOps() = std::move(kept);
}

} // namespace

int
mergeRotations(Circuit& circuit, bool commute_through_two_qubit)
{
    auto& ops = circuit.mutableOps();
    const int n = circuit.numQubits();
    // Per qubit: index of a pending (still mergeable) rotation, or -1.
    std::vector<int> pending(n, -1);
    std::vector<bool> erased(ops.size(), false);
    int merges = 0;

    for (size_t i = 0; i < ops.size(); ++i) {
        GateOp& op = ops[i];
        if (gateIsRotation(op.kind)) {
            const int q = op.q0;
            const int j = pending[q];
            if (j >= 0 && ops[j].kind == op.kind) {
                // An overflowing sum stays two (finite) rotations.
                auto sum = tryAdd(ops[j].angle, op.angle);
                if (sum && sum->isFinite()) {
                    ops[j].angle = *sum;
                    erased[i] = true;
                    ++merges;
                    continue;
                }
            }
            pending[q] = static_cast<int>(i);
            continue;
        }

        if (op.arity() == 1) {
            pending[op.q0] = -1;
            continue;
        }

        // Two-qubit gate: selectively keep commuting pendings.
        auto keeps = [&](int q) {
            if (!commute_through_two_qubit)
                return false;
            const int j = pending[q];
            if (j < 0)
                return false;
            const GateKind pk = ops[j].kind;
            switch (op.kind) {
              case GateKind::CX:
                // Rz commutes with the control; Rx with the target.
                if (q == op.q0)
                    return pk == GateKind::Rz;
                return pk == GateKind::Rx;
              case GateKind::CZ:
                // CZ is diagonal; Rz commutes on both sides.
                return pk == GateKind::Rz;
              default:
                return false;
            }
        };
        if (!keeps(op.q0))
            pending[op.q0] = -1;
        if (!keeps(op.q1))
            pending[op.q1] = -1;
    }

    if (merges > 0)
        compact(circuit, erased);
    return merges;
}

int
cancelInverses(Circuit& circuit)
{
    auto& ops = circuit.mutableOps();
    const int n = circuit.numQubits();
    // Per qubit: index of the latest surviving op touching it, or -1.
    std::vector<int> last(n, -1);
    std::vector<bool> erased(ops.size(), false);
    int removed = 0;

    for (size_t i = 0; i < ops.size(); ++i) {
        const GateOp& op = ops[i];
        const GateKind partner = inverseKind(op.kind);

        if (op.arity() == 1) {
            const int q = op.q0;
            const int j = last[q];
            if (partner != GateKind::I && j >= 0 && !erased[j] &&
                ops[j].kind == partner && ops[j].arity() == 1) {
                erased[i] = true;
                erased[j] = true;
                removed += 2;
                last[q] = -1;
                continue;
            }
            last[q] = static_cast<int>(i);
            continue;
        }

        const int a = op.q0;
        const int b = op.q1;
        const int j = last[a];
        bool cancelled = false;
        if (partner != GateKind::I && j >= 0 && j == last[b] &&
            !erased[j] && ops[j].kind == op.kind) {
            const bool ordered_match = ops[j].q0 == a && ops[j].q1 == b;
            const bool unordered_match =
                ops[j].q0 == b && ops[j].q1 == a &&
                (op.kind == GateKind::CZ || op.kind == GateKind::SWAP);
            if (ordered_match || unordered_match) {
                erased[i] = true;
                erased[j] = true;
                removed += 2;
                last[a] = -1;
                last[b] = -1;
                cancelled = true;
            }
        }
        if (!cancelled) {
            last[a] = static_cast<int>(i);
            last[b] = static_cast<int>(i);
        }
    }

    if (removed > 0)
        compact(circuit, erased);
    return removed;
}

int
removeTrivialOps(Circuit& circuit)
{
    auto& ops = circuit.mutableOps();
    std::vector<bool> erased(ops.size(), false);
    int removed = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
        const GateOp& op = ops[i];
        const bool trivial =
            op.kind == GateKind::I ||
            (gateIsRotation(op.kind) && op.angle.isZero());
        if (trivial) {
            erased[i] = true;
            ++removed;
        }
    }
    if (removed > 0)
        compact(circuit, erased);
    return removed;
}

int
optimizeCircuit(Circuit& circuit, const OptimizeOptions& options)
{
    int total = 0;
    for (int round = 0; round < options.maxRounds; ++round) {
        int changed = 0;
        changed += mergeRotations(circuit, options.commuteThroughTwoQubit);
        changed += cancelInverses(circuit);
        changed += removeTrivialOps(circuit);
        total += changed;
        if (changed == 0)
            break;
    }
    return total;
}

} // namespace qpc
