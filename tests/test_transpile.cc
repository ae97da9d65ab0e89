#include <gtest/gtest.h>

#include <cmath>

#include "sim/statevector.h"
#include "testutil.h"
#include "transpile/durations.h"
#include "transpile/mapping.h"
#include "transpile/passes.h"
#include "transpile/schedule.h"

namespace {

using namespace qpc;
using namespace qpc::testutil;

TEST(Durations, Table1Values)
{
    const GateDurations d = GateDurations::table1();
    GateOp op;
    op.kind = GateKind::Rz;
    EXPECT_NEAR(d.opDuration(op), 0.4, 1e-12);
    op.kind = GateKind::Rx;
    EXPECT_NEAR(d.opDuration(op), 2.5, 1e-12);
    op.kind = GateKind::H;
    EXPECT_NEAR(d.opDuration(op), 1.4, 1e-12);
    op.kind = GateKind::CX;
    op.q1 = 1;
    EXPECT_NEAR(d.opDuration(op), 3.8, 1e-12);
    op.kind = GateKind::SWAP;
    EXPECT_NEAR(d.opDuration(op), 7.4, 1e-12);
}

TEST(Passes, MergeConstantRotations)
{
    Circuit c(1);
    c.rx(0, 0.3);
    c.rx(0, 0.4);
    EXPECT_EQ(mergeRotations(c), 1);
    ASSERT_EQ(c.size(), 1);
    EXPECT_NEAR(c.ops()[0].angle.bind({}), 0.7, 1e-12);
}

TEST(Passes, MergeSymbolicSameIndex)
{
    Circuit c(1);
    c.rz(0, ParamExpr::theta(0, 1.0));
    c.rz(0, ParamExpr::theta(0, 0.5));
    EXPECT_EQ(mergeRotations(c), 1);
    ASSERT_EQ(c.size(), 1);
    EXPECT_NEAR(c.ops()[0].angle.coeff, 1.5, 1e-12);
}

TEST(Passes, NoMergeAcrossDifferentIndices)
{
    Circuit c(1);
    c.rz(0, ParamExpr::theta(0));
    c.rz(0, ParamExpr::theta(1));
    EXPECT_EQ(mergeRotations(c), 0);
    EXPECT_EQ(c.size(), 2);
}

TEST(Passes, NoMergeWhoseSumOverflows)
{
    Circuit c(1);
    c.rz(0, 1e308);
    c.rz(0, 1e308);
    EXPECT_EQ(mergeRotations(c), 0);
    EXPECT_EQ(c.size(), 2);
}

TEST(Passes, RzCommutesThroughCxControl)
{
    Circuit c(2);
    c.rz(0, 0.3);
    c.cx(0, 1);
    c.rz(0, 0.4);
    EXPECT_EQ(mergeRotations(c, true), 1);
    EXPECT_EQ(c.size(), 2);

    Circuit blocked(2);
    blocked.rz(1, 0.3);   // target side: Rz does NOT commute
    blocked.cx(0, 1);
    blocked.rz(1, 0.4);
    EXPECT_EQ(mergeRotations(blocked, true), 0);
}

TEST(Passes, RxCommutesThroughCxTarget)
{
    Circuit c(2);
    c.rx(1, 0.3);
    c.cx(0, 1);
    c.rx(1, 0.4);
    EXPECT_EQ(mergeRotations(c, true), 1);
}

TEST(Passes, CancelSelfInversePairs)
{
    Circuit c(2);
    c.h(0);
    c.h(0);
    c.cx(0, 1);
    c.cx(0, 1);
    c.s(1);
    c.sdg(1);
    EXPECT_EQ(cancelInverses(c), 6);
    EXPECT_EQ(c.size(), 0);
}

TEST(Passes, NoCancelWithInterveningOp)
{
    Circuit c(2);
    c.cx(0, 1);
    c.h(1);
    c.cx(0, 1);
    EXPECT_EQ(cancelInverses(c), 0);
}

TEST(Passes, SwapCancelsEitherOrientation)
{
    Circuit c(2);
    c.swap(0, 1);
    c.swap(1, 0);
    EXPECT_EQ(cancelInverses(c), 2);
}

TEST(Passes, CxOrientationMatters)
{
    Circuit c(2);
    c.cx(0, 1);
    c.cx(1, 0);
    EXPECT_EQ(cancelInverses(c), 0);
}

TEST(Passes, RemoveTrivialOps)
{
    Circuit c(1);
    c.rz(0, 0.0);
    c.add(GateOp{GateKind::I, 0, -1, {}});
    c.rx(0, 0.5);
    EXPECT_EQ(removeTrivialOps(c), 2);
    EXPECT_EQ(c.size(), 1);
}

/** Property: the full pipeline preserves the circuit unitary. */
class OptimizePreservesUnitary : public ::testing::TestWithParam<int>
{
};

TEST_P(OptimizePreservesUnitary, RandomCircuits)
{
    Rng rng(GetParam());
    const int n = 2 + GetParam() % 3;
    Circuit circuit = randomCircuit(rng, n, 40);
    const CMatrix before = circuitUnitary(circuit);
    optimizeCircuit(circuit);
    const CMatrix after = circuitUnitary(circuit);
    EXPECT_TRUE(sameUpToPhase(before, after, 1e-8));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizePreservesUnitary,
                         ::testing::Range(0, 12));

TEST(Schedule, SerialOnSameQubit)
{
    Circuit c(1);
    c.h(0);
    c.rx(0, 1.0);
    const double t = criticalPathNs(c, GateDurations::table1());
    EXPECT_NEAR(t, 1.4 + 2.5, 1e-12);
}

TEST(Schedule, ParallelOnDisjointQubits)
{
    Circuit c(2);
    c.h(0);
    c.rx(1, 1.0);
    const double t = criticalPathNs(c, GateDurations::table1());
    EXPECT_NEAR(t, 2.5, 1e-12);
}

TEST(Schedule, TwoQubitGateJoinsTimelines)
{
    Circuit c(2);
    c.h(0);      // ends 1.4
    c.cx(0, 1);  // starts 1.4, ends 5.2
    c.rz(1, 1.0);
    const Schedule s = scheduleAsap(c, GateDurations::table1());
    EXPECT_NEAR(s.items[1].startNs, 1.4, 1e-12);
    EXPECT_NEAR(s.makespanNs, 5.6, 1e-12);
}

TEST(Schedule, CriticalPathBounds)
{
    Rng rng(31);
    const GateDurations d = GateDurations::table1();
    for (int trial = 0; trial < 8; ++trial) {
        const Circuit c = randomCircuit(rng, 4, 30);
        const double critical = criticalPathNs(c, d);
        EXPECT_LE(critical, d.serialDuration(c) + 1e-9);
        double longest_gate = 0.0;
        for (const GateOp& op : c.ops())
            longest_gate = std::max(longest_gate, d.opDuration(op));
        EXPECT_GE(critical, longest_gate - 1e-9);
    }
}

TEST(Schedule, MomentsRespectDependencies)
{
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.h(2);
    const auto moments = asMoments(c);
    ASSERT_EQ(moments.size(), 2u);
    EXPECT_EQ(moments[0].size(), 2u);   // h(0) and h(2)
    EXPECT_EQ(moments[1].size(), 1u);   // cx
}

TEST(Mapping, TopologyDistances)
{
    const Topology line = Topology::line(5);
    EXPECT_TRUE(line.connected(1, 2));
    EXPECT_FALSE(line.connected(0, 4));
    EXPECT_EQ(line.distance(0, 4), 4);

    const Topology grid = Topology::grid(2, 3);
    EXPECT_EQ(grid.numQubits(), 6);
    EXPECT_TRUE(grid.connected(0, 3));
    EXPECT_EQ(grid.distance(0, 5), 3);

    const Topology k4 = Topology::clique(4);
    EXPECT_EQ(k4.distance(0, 3), 1);
}

TEST(Mapping, RoutedOpsAreAdjacent)
{
    Rng rng(32);
    const Topology line = Topology::line(5);
    const Circuit circuit = randomCircuit(rng, 5, 40);
    const MappingResult mapped = mapToTopology(circuit, line);
    for (const GateOp& op : mapped.circuit.ops()) {
        if (op.arity() == 2) {
            EXPECT_TRUE(line.connected(op.q0, op.q1)) << op.str();
        }
    }
}

TEST(Mapping, PreservesSemanticsUpToLayout)
{
    Rng rng(33);
    const Topology line = Topology::line(4);
    const Circuit circuit = randomCircuit(rng, 4, 25);
    const MappingResult mapped = mapToTopology(circuit, line);

    // U_mapped = P^dag ... with P the permutation sending logical
    // qubit l to physical finalLayout[l]; equivalently applying the
    // mapped circuit and permuting indices must match the original.
    const CMatrix original = circuitUnitary(circuit);
    const CMatrix routed = circuitUnitary(mapped.circuit);

    // routed == perm * original (logical result lands at layout).
    const CMatrix perm = layoutPermutation(mapped.finalLayout);
    EXPECT_TRUE(sameUpToPhase(routed, perm * original, 1e-8));
}

TEST(Mapping, CliqueNeedsNoSwaps)
{
    Rng rng(34);
    const Circuit circuit = randomCircuit(rng, 4, 30);
    const MappingResult mapped =
        mapToTopology(circuit, Topology::clique(4));
    EXPECT_EQ(mapped.swapsInserted, 0);
}

} // namespace
