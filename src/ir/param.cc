#include "ir/param.h"

#include <cmath>
#include <sstream>

#include "common/logging.h"

namespace qpc {

ParamExpr
ParamExpr::constant(double value)
{
    ParamExpr e;
    e.index = -1;
    e.coeff = 0.0;
    e.offset = value;
    return e;
}

ParamExpr
ParamExpr::theta(int index, double coeff, double offset)
{
    panicIf(index < 0, "ParamExpr::theta needs a non-negative index");
    ParamExpr e;
    e.index = index;
    e.coeff = coeff;
    e.offset = offset;
    return e;
}

double
ParamExpr::bind(const std::vector<double>& values) const
{
    if (index < 0)
        return offset;
    fatalIf(index >= static_cast<int>(values.size()),
            "parameter vector of size ", values.size(),
            " cannot bind theta_", index);
    return coeff * values[index] + offset;
}

std::optional<double>
ParamExpr::tryBind(const std::vector<double>& values) const
{
    if (index >= static_cast<int>(values.size()))
        return std::nullopt;
    const double value = index < 0 ? offset : coeff * values[index] + offset;
    if (!std::isfinite(value))
        return std::nullopt;
    return value;
}

ParamExpr
ParamExpr::plus(double delta) const
{
    ParamExpr e = *this;
    e.offset += delta;
    return e;
}

ParamExpr
ParamExpr::scaled(double factor) const
{
    ParamExpr e = *this;
    e.coeff *= factor;
    e.offset *= factor;
    if (std::abs(e.coeff) < 1e-15)
        e.index = -1;
    return e;
}

ParamExpr
ParamExpr::negated() const
{
    return scaled(-1.0);
}

bool
ParamExpr::isZero(double tol) const
{
    return std::abs(offset) <= tol &&
           (index < 0 || std::abs(coeff) <= tol);
}

std::string
ParamExpr::str() const
{
    std::ostringstream oss;
    if (index < 0) {
        oss << offset;
        return oss.str();
    }
    oss << coeff << "*t" << index;
    if (offset != 0.0)
        oss << (offset > 0 ? " + " : " - ") << std::abs(offset);
    return oss.str();
}

std::optional<ParamExpr>
tryAdd(const ParamExpr& a, const ParamExpr& b)
{
    if (!a.isSymbolic() && !b.isSymbolic())
        return ParamExpr::constant(a.offset + b.offset);
    if (!a.isSymbolic())
        return b.plus(a.offset);
    if (!b.isSymbolic())
        return a.plus(b.offset);
    if (a.index != b.index)
        return std::nullopt;

    ParamExpr e;
    e.index = a.index;
    e.coeff = a.coeff + b.coeff;
    e.offset = a.offset + b.offset;
    if (std::abs(e.coeff) < 1e-15) {
        e.index = -1;
        e.coeff = 0.0;
    }
    return e;
}

} // namespace qpc
