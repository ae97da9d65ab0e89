#include "ir/circuit.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "common/logging.h"

namespace qpc {

std::vector<int>
GateOp::qubits() const
{
    if (arity() == 1)
        return {q0};
    return {q0, q1};
}

std::string
GateOp::str() const
{
    std::ostringstream oss;
    oss << gateName(kind);
    if (gateIsRotation(kind))
        oss << "(" << angle.str() << ")";
    oss << " q" << q0;
    if (arity() == 2)
        oss << ", q" << q1;
    return oss.str();
}

Circuit::Circuit(int num_qubits) : numQubits_(num_qubits)
{
    fatalIf(num_qubits <= 0, "circuit width must be positive, got ",
            num_qubits);
}

bool
Circuit::tryAdd(const GateOp& op)
{
    const auto outside = [this](int q) {
        return q < 0 || q >= numQubits_;
    };
    if (outside(op.q0) ||
        (op.arity() == 2 && (outside(op.q1) || op.q0 == op.q1)) ||
        op.angle.index < -1 || !op.angle.isFinite())
        return false;
    ops_.push_back(op);
    if (ops_.back().arity() == 1)
        ops_.back().q1 = -1;
    return true;
}

void
Circuit::add(const GateOp& op)
{
    if (!tryAdd(op))
        panic("invalid op ", op.str(), " for a circuit of width ",
              numQubits_);
}

void
Circuit::addOp(GateKind kind, int q0, int q1, ParamExpr angle)
{
    GateOp op;
    op.kind = kind;
    op.q0 = q0;
    op.q1 = q1;
    op.angle = angle;
    add(op);
}

int
Circuit::numParams() const
{
    int max_index = -1;
    for (const GateOp& op : ops_)
        max_index = std::max(max_index, op.paramIndex());
    return max_index + 1;
}

bool
Circuit::isParamFree() const
{
    for (const GateOp& op : ops_)
        if (op.paramIndex() >= 0)
            return false;
    return true;
}

std::vector<int>
Circuit::paramsUsed() const
{
    std::set<int> indices;
    for (const GateOp& op : ops_)
        if (op.paramIndex() >= 0)
            indices.insert(op.paramIndex());
    return {indices.begin(), indices.end()};
}

Circuit
Circuit::bind(const std::vector<double>& theta) const
{
    Circuit bound(numQubits_);
    for (const GateOp& op : ops_) {
        GateOp copy = op;
        if (gateIsRotation(op.kind))
            copy.angle = ParamExpr::constant(op.angle.bind(theta));
        bound.add(copy);
    }
    return bound;
}

void
Circuit::append(const Circuit& other)
{
    panicIf(other.numQubits_ != numQubits_,
            "appending circuit of width ", other.numQubits_,
            " to width ", numQubits_);
    for (const GateOp& op : other.ops_)
        add(op);
}

Circuit
Circuit::slice(int first, int last) const
{
    panicIf(first < 0 || last > size() || first > last,
            "bad slice [", first, ", ", last, ") of circuit with ",
            size(), " ops");
    Circuit out(numQubits_);
    for (int i = first; i < last; ++i)
        out.add(ops_[i]);
    return out;
}

int
Circuit::countTwoQubitOps() const
{
    int count = 0;
    for (const GateOp& op : ops_)
        if (op.arity() == 2)
            ++count;
    return count;
}

double
Circuit::parametrizedFraction() const
{
    if (ops_.empty())
        return 0.0;
    int symbolic = 0;
    for (const GateOp& op : ops_)
        if (op.paramIndex() >= 0)
            ++symbolic;
    return static_cast<double>(symbolic) / static_cast<double>(size());
}

std::string
Circuit::str() const
{
    std::ostringstream oss;
    oss << "circuit(" << numQubits_ << " qubits, " << size() << " ops)\n";
    for (const GateOp& op : ops_)
        oss << "  " << op.str() << "\n";
    return oss.str();
}

bool
isParamMonotone(const Circuit& circuit)
{
    int last = -1;
    for (const GateOp& op : circuit.ops()) {
        const int index = op.paramIndex();
        if (index < 0)
            continue;
        if (index < last)
            return false;
        last = index;
    }
    return true;
}

} // namespace qpc
