/**
 * @file
 * Quantum circuit intermediate representation.
 *
 * A Circuit is an ordered list of gate operations over a fixed qubit
 * count. Rotation angles are ParamExpr values, so a circuit remains
 * symbolic in the variational parameters theta_i until bind() attaches
 * concrete values — matching the paper's setting where every iteration
 * of VQE / QAOA re-binds the same template circuit.
 */

#ifndef QPC_IR_CIRCUIT_H
#define QPC_IR_CIRCUIT_H

#include <string>
#include <vector>

#include "ir/gate.h"
#include "ir/param.h"

namespace qpc {

/** One gate application inside a circuit. */
struct GateOp
{
    GateKind kind = GateKind::I;
    int q0 = 0;          ///< First (or only) qubit; control for CX.
    int q1 = -1;         ///< Second qubit for two-qubit gates.
    ParamExpr angle;     ///< Rotation angle; ignored for fixed gates.

    /** Number of qubits the op acts on. */
    int arity() const { return gateArity(kind); }

    /** The op's qubits, in declaration order. */
    std::vector<int> qubits() const;

    /** Parameter index the angle depends on, or -1. */
    int paramIndex() const
    {
        return gateIsRotation(kind) ? angle.index : -1;
    }

    /** Mnemonic like "rz(0.5*t2) q3" for debugging. */
    std::string str() const;
};

/**
 * An ordered gate list over numQubits() qubits.
 *
 * Program order is execution order; the scheduler recovers parallelism
 * from qubit disjointness.
 */
class Circuit
{
  public:
    Circuit() = default;

    /** An empty circuit over a fixed number of qubits. */
    explicit Circuit(int num_qubits);

    int numQubits() const { return numQubits_; }
    const std::vector<GateOp>& ops() const { return ops_; }
    std::vector<GateOp>& mutableOps() { return ops_; }
    int size() const { return static_cast<int>(ops_.size()); }
    bool empty() const { return ops_.empty(); }

    /** The IR's one op-validity check: append the op if its qubits
     * lie in [0, numQubits()) (and differ, for a two-qubit op), its
     * angle index is >= -1 and its angle is finite; else false. */
    bool tryAdd(const GateOp& op);

    /** Append an op; panics unless tryAdd() accepts it. */
    void add(const GateOp& op);

    /** @name Builder shorthands
     *  @{ */
    void x(int q) { addOp(GateKind::X, q); }
    void y(int q) { addOp(GateKind::Y, q); }
    void z(int q) { addOp(GateKind::Z, q); }
    void h(int q) { addOp(GateKind::H, q); }
    void s(int q) { addOp(GateKind::S, q); }
    void sdg(int q) { addOp(GateKind::Sdg, q); }
    void t(int q) { addOp(GateKind::T, q); }
    void tdg(int q) { addOp(GateKind::Tdg, q); }
    void rx(int q, ParamExpr angle) { addOp(GateKind::Rx, q, -1, angle); }
    void ry(int q, ParamExpr angle) { addOp(GateKind::Ry, q, -1, angle); }
    void rz(int q, ParamExpr angle) { addOp(GateKind::Rz, q, -1, angle); }
    void rx(int q, double angle) { rx(q, ParamExpr::constant(angle)); }
    void ry(int q, double angle) { ry(q, ParamExpr::constant(angle)); }
    void rz(int q, double angle) { rz(q, ParamExpr::constant(angle)); }
    void cx(int control, int target) { addOp(GateKind::CX, control, target); }
    void cz(int a, int b) { addOp(GateKind::CZ, a, b); }
    void swap(int a, int b) { addOp(GateKind::SWAP, a, b); }
    void iswap(int a, int b) { addOp(GateKind::ISwap, a, b); }
    /** @} */

    /** Number of distinct parameters: 1 + max referenced index. */
    int numParams() const;

    /** True when no op depends on any parameter. */
    bool isParamFree() const;

    /** Sorted unique parameter indices referenced by the circuit. */
    std::vector<int> paramsUsed() const;

    /** Copy with every angle bound against a parameter vector. */
    Circuit bind(const std::vector<double>& theta) const;

    /** Append another circuit's ops (must have the same width). */
    void append(const Circuit& other);

    /** Copy of ops [first, last) as a circuit of the same width. */
    Circuit slice(int first, int last) const;

    /** Total number of two-qubit ops. */
    int countTwoQubitOps() const;

    /** Fraction of ops that are parameter-dependent. */
    double parametrizedFraction() const;

    /** One op per line. */
    std::string str() const;

  private:
    void addOp(GateKind kind, int q0, int q1 = -1, ParamExpr angle = {});

    int numQubits_ = 0;
    std::vector<GateOp> ops_;
};

/**
 * Check parameter monotonicity (Section 7.1): scanning ops in program
 * order, the referenced parameter indices never decrease. Both the
 * UCCSD and QAOA constructions satisfy this by design.
 */
bool isParamMonotone(const Circuit& circuit);

} // namespace qpc

#endif // QPC_IR_CIRCUIT_H
