#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ir/circuit.h"
#include "testutil.h"

namespace {

using namespace qpc;
using namespace qpc::testutil;

TEST(ParamExpr, ConstantBindsWithoutVector)
{
    const ParamExpr c = ParamExpr::constant(1.5);
    EXPECT_FALSE(c.isSymbolic());
    EXPECT_NEAR(c.bind({}), 1.5, 1e-12);
}

TEST(ParamExpr, SymbolicBind)
{
    const ParamExpr e = ParamExpr::theta(2, -0.5, 0.25);
    EXPECT_TRUE(e.isSymbolic());
    EXPECT_NEAR(e.bind({0.0, 0.0, 2.0}), -0.75, 1e-12);
}

TEST(ParamExpr, AddSameIndex)
{
    const auto sum = tryAdd(ParamExpr::theta(1, 2.0),
                            ParamExpr::theta(1, 0.5, 0.1));
    ASSERT_TRUE(sum.has_value());
    EXPECT_EQ(sum->index, 1);
    EXPECT_NEAR(sum->coeff, 2.5, 1e-12);
    EXPECT_NEAR(sum->offset, 0.1, 1e-12);
}

TEST(ParamExpr, AddDifferentIndicesFails)
{
    EXPECT_FALSE(tryAdd(ParamExpr::theta(0), ParamExpr::theta(1))
                     .has_value());
}

TEST(ParamExpr, AddConstantToSymbolic)
{
    const auto sum =
        tryAdd(ParamExpr::theta(3, 1.0), ParamExpr::constant(0.7));
    ASSERT_TRUE(sum.has_value());
    EXPECT_EQ(sum->index, 3);
    EXPECT_NEAR(sum->offset, 0.7, 1e-12);
}

TEST(ParamExpr, CancellationCollapsesToConstant)
{
    const auto sum = tryAdd(ParamExpr::theta(0, 1.0),
                            ParamExpr::theta(0, -1.0, 0.2));
    ASSERT_TRUE(sum.has_value());
    EXPECT_FALSE(sum->isSymbolic());
    EXPECT_NEAR(sum->offset, 0.2, 1e-12);
}

TEST(ParamExpr, ScaleAndNegate)
{
    const ParamExpr e = ParamExpr::theta(0, 2.0, 1.0);
    const ParamExpr n = e.negated();
    EXPECT_NEAR(n.coeff, -2.0, 1e-12);
    EXPECT_NEAR(n.offset, -1.0, 1e-12);
    EXPECT_TRUE(ParamExpr::constant(0.0).isZero());
    EXPECT_FALSE(e.isZero());
}

TEST(ParamExpr, TryBindRefusesShortAndNonFiniteBindings)
{
    const ParamExpr e = ParamExpr::theta(1, 2.0, 0.5);
    ASSERT_TRUE(e.tryBind({0.0, 1.0}).has_value());
    EXPECT_EQ(*e.tryBind({0.0, 1.0}), 2.5);
    EXPECT_FALSE(e.tryBind({0.0}).has_value());
    EXPECT_FALSE(e.tryBind({}).has_value());
    EXPECT_FALSE(e.tryBind({0.0, std::nan("")}).has_value());
    EXPECT_FALSE(
        e.tryBind({0.0, std::numeric_limits<double>::infinity()})
            .has_value());
    // Every input finite, the product is not.
    const ParamExpr huge = ParamExpr::theta(0, 1e308);
    EXPECT_FALSE(huge.tryBind({10.0}).has_value());
    EXPECT_TRUE(huge.tryBind({1.0}).has_value());
    // A constant ignores theta entirely.
    EXPECT_EQ(*ParamExpr::constant(0.25).tryBind({}), 0.25);
}

TEST(Circuit, TryAddRefusesEveryInvalidOpClass)
{
    Circuit c(2);
    const auto op = [](GateKind kind, int q0, int q1 = -1) {
        GateOp out;
        out.kind = kind;
        out.q0 = q0;
        out.q1 = q1;
        return out;
    };
    // Qubit out of range, on either operand.
    EXPECT_FALSE(c.tryAdd(op(GateKind::H, 2)));
    EXPECT_FALSE(c.tryAdd(op(GateKind::H, -1)));
    EXPECT_FALSE(c.tryAdd(op(GateKind::CX, 0, 2)));
    EXPECT_FALSE(c.tryAdd(op(GateKind::CX, -3, 1)));
    // Two-qubit op on one qubit.
    EXPECT_FALSE(c.tryAdd(op(GateKind::CZ, 1, 1)));
    // Angle index below -1.
    GateOp bad_index = op(GateKind::Rz, 0);
    bad_index.angle.index = -2;
    EXPECT_FALSE(c.tryAdd(bad_index));
    // Non-finite coeff or offset.
    const double inf = std::numeric_limits<double>::infinity();
    for (const double bad : {std::nan(""), inf, -inf}) {
        GateOp bad_coeff = op(GateKind::Rx, 0);
        bad_coeff.angle = ParamExpr::theta(0, bad);
        EXPECT_FALSE(c.tryAdd(bad_coeff));
        GateOp bad_offset = op(GateKind::Rx, 0);
        bad_offset.angle = ParamExpr::constant(bad);
        EXPECT_FALSE(c.tryAdd(bad_offset));
    }
    EXPECT_TRUE(c.empty());

    // Valid ops are appended; a one-qubit op's q1 is normalized.
    EXPECT_TRUE(c.tryAdd(op(GateKind::H, 1, 7)));
    EXPECT_TRUE(c.tryAdd(op(GateKind::CX, 1, 0)));
    ASSERT_EQ(c.size(), 2);
    EXPECT_EQ(c.ops()[0].q1, -1);
}

TEST(CircuitDeathTest, AddPanicsOnAnOpTryAddRefuses)
{
    Circuit c(1);
    EXPECT_DEATH(c.rz(0, std::nan("")), "invalid op");
    EXPECT_DEATH(c.h(1), "invalid op");
}

TEST(Circuit, BuildersRecordOps)
{
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.rz(2, ParamExpr::theta(0));
    c.swap(1, 2);
    EXPECT_EQ(c.size(), 4);
    EXPECT_EQ(c.ops()[1].kind, GateKind::CX);
    EXPECT_EQ(c.ops()[1].q0, 0);
    EXPECT_EQ(c.ops()[1].q1, 1);
    EXPECT_EQ(c.ops()[2].paramIndex(), 0);
    EXPECT_EQ(c.countTwoQubitOps(), 2);
}

TEST(Circuit, NumParamsAndUsage)
{
    Circuit c(2);
    c.rz(0, ParamExpr::theta(4));
    c.rx(1, ParamExpr::theta(1));
    EXPECT_EQ(c.numParams(), 5);
    const std::vector<int> used = c.paramsUsed();
    ASSERT_EQ(used.size(), 2u);
    EXPECT_EQ(used[0], 1);
    EXPECT_EQ(used[1], 4);
    EXPECT_FALSE(c.isParamFree());
}

TEST(Circuit, BindResolvesAllAngles)
{
    Circuit c(1);
    c.rz(0, ParamExpr::theta(0, 2.0, 0.5));
    const Circuit bound = c.bind({1.25});
    EXPECT_TRUE(bound.isParamFree());
    EXPECT_NEAR(bound.ops()[0].angle.bind({}), 3.0, 1e-12);
}

TEST(Circuit, AppendAndSlice)
{
    Circuit a(2), b(2);
    a.h(0);
    b.cx(0, 1);
    b.x(1);
    a.append(b);
    EXPECT_EQ(a.size(), 3);
    const Circuit mid = a.slice(1, 3);
    EXPECT_EQ(mid.size(), 2);
    EXPECT_EQ(mid.ops()[0].kind, GateKind::CX);
}

TEST(Circuit, ParametrizedFraction)
{
    Circuit c(2);
    c.h(0);
    c.h(1);
    c.cx(0, 1);
    c.rz(1, ParamExpr::theta(0));
    EXPECT_NEAR(c.parametrizedFraction(), 0.25, 1e-12);
}

TEST(Circuit, MonotonicityDetection)
{
    Circuit good(2);
    good.rz(0, ParamExpr::theta(0));
    good.h(1);
    good.rz(1, ParamExpr::theta(0));
    good.rz(0, ParamExpr::theta(1));
    EXPECT_TRUE(isParamMonotone(good));

    Circuit bad(2);
    bad.rz(0, ParamExpr::theta(1));
    bad.rz(1, ParamExpr::theta(0));
    EXPECT_FALSE(isParamMonotone(bad));
}

TEST(Gate, ArityAndNames)
{
    EXPECT_EQ(gateArity(GateKind::H), 1);
    EXPECT_EQ(gateArity(GateKind::CX), 2);
    EXPECT_EQ(gateName(GateKind::SWAP), "swap");
    EXPECT_TRUE(gateIsRotation(GateKind::Ry));
    EXPECT_FALSE(gateIsRotation(GateKind::T));
    EXPECT_TRUE(gateIsSelfInverse(GateKind::CZ));
    EXPECT_FALSE(gateIsSelfInverse(GateKind::S));
}

TEST(Gate, MatricesAreUnitary)
{
    for (GateKind kind :
         {GateKind::I, GateKind::X, GateKind::Y, GateKind::Z,
          GateKind::H, GateKind::S, GateKind::Sdg, GateKind::T,
          GateKind::Tdg, GateKind::CX, GateKind::CZ, GateKind::SWAP,
          GateKind::ISwap}) {
        EXPECT_TRUE(gateMatrix(kind).isUnitary(1e-10))
            << gateName(kind);
    }
    EXPECT_TRUE(gateMatrix(GateKind::Rx, 0.7).isUnitary(1e-10));
}

TEST(Gate, SAndTRelations)
{
    // S = T^2; Sdg S = I.
    EXPECT_TRUE((gateMatrix(GateKind::T) * gateMatrix(GateKind::T))
                    .approxEqual(gateMatrix(GateKind::S), 1e-12));
    EXPECT_TRUE((gateMatrix(GateKind::Sdg) * gateMatrix(GateKind::S))
                    .approxEqual(CMatrix::identity(2), 1e-12));
}

TEST(Circuit, RandomHelperIsDeterministic)
{
    Rng a(5), b(5);
    EXPECT_TRUE(circuitEquals(randomCircuit(a, 3, 25),
                              randomCircuit(b, 3, 25)));
}

} // namespace
