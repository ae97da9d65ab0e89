/**
 * @file
 * Symbolic rotation-angle expressions.
 *
 * Variational circuits carry angles of the form coeff * theta_i +
 * offset: circuit construction and optimization transform raw theta_i
 * references into -theta_i, theta_i / 2, and so on (Section 7.1 of the
 * paper). Tracking the dependence explicitly — instead of erasing it at
 * construction like a plain double would — is what lets the partial
 * compiler recover parameter monotonicity and slice circuits by their
 * single dependent parameter.
 */

#ifndef QPC_IR_PARAM_H
#define QPC_IR_PARAM_H

#include <cmath>
#include <optional>
#include <string>
#include <vector>

namespace qpc {

/**
 * A linear expression over at most one variational parameter:
 * coeff * theta[index] + offset, or a plain constant when index < 0.
 */
struct ParamExpr
{
    int index = -1;      ///< Parameter index, or -1 for a constant.
    double coeff = 0.0;  ///< Multiplier on theta[index].
    double offset = 0.0; ///< Additive constant term.

    /** A constant angle. */
    static ParamExpr constant(double value);

    /** coeff * theta[index] + offset. */
    static ParamExpr theta(int index, double coeff = 1.0,
                           double offset = 0.0);

    /** True when the expression references a parameter. */
    bool isSymbolic() const { return index >= 0; }

    /** True when coeff and offset are both finite. */
    bool isFinite() const
    {
        return std::isfinite(coeff) && std::isfinite(offset);
    }

    /** Evaluate against a parameter vector (validated when symbolic). */
    double bind(const std::vector<double>& values) const;

    /** bind() that refuses instead: nullopt when `values` is too
     * short, or when the result is not finite (NaN, inf, overflow). */
    std::optional<double> tryBind(const std::vector<double>& values) const;

    /** Expression with the offset shifted by delta. */
    ParamExpr plus(double delta) const;

    /** Expression scaled by a factor (both coeff and offset). */
    ParamExpr scaled(double factor) const;

    /** Negated expression. */
    ParamExpr negated() const;

    /** True when the expression is identically zero. */
    bool isZero(double tol = 1e-12) const;

    /** Human-readable form, e.g. "0.5*t3 + 1.571". */
    std::string str() const;
};

/**
 * Sum of two expressions when they stay within the one-parameter form:
 * both constant, same index, or one constant. Returns nullopt when the
 * expressions reference different parameters.
 */
std::optional<ParamExpr> tryAdd(const ParamExpr& a, const ParamExpr& b);

} // namespace qpc

#endif // QPC_IR_PARAM_H
