/**
 * @file
 * Tests for the Swivel-SFI cost model: branch-density-driven compute
 * factors and code-section bloat (Table 1's comparison baseline).
 */

#include <gtest/gtest.h>

#include "swivel/swivel.h"

namespace
{

using namespace hfi::swivel;

TEST(Swivel, StraightLineCodeIsNearlyFree)
{
    CodeProfile profile{"straight", 0.0, 0.0, 1 << 20, 0};
    const auto effect = apply(profile);
    EXPECT_DOUBLE_EQ(effect.computeFactor, 1.0);
}

TEST(Swivel, FactorScalesWithBranchDensity)
{
    CodeProfile sparse{"sparse", 10.0, 0.0, 1 << 20, 0};
    CodeProfile dense{"dense", 200.0, 0.0, 1 << 20, 0};
    EXPECT_LT(apply(sparse).computeFactor, apply(dense).computeFactor);
    EXPECT_NEAR(apply(dense).computeFactor, 1.42, 0.01);
}

TEST(Swivel, CallsCostMoreThanBranches)
{
    CodeProfile branches{"b", 10.0, 0.0, 0, 0};
    CodeProfile calls{"c", 0.0, 10.0, 0, 0};
    EXPECT_GT(apply(calls).computeFactor, apply(branches).computeFactor);
}

TEST(Swivel, BloatHitsOnlyCode)
{
    CodeProfile code_heavy{"code", 0, 0, 10 << 20, 0};
    CodeProfile data_heavy{"data", 0, 0, 1 << 20, 33 << 20};
    const auto ch = apply(code_heavy);
    const auto dh = apply(data_heavy);
    // 43% growth of the code section only.
    EXPECT_NEAR(double(ch.binaryBytes) / (10 << 20), 1.43, 0.01);
    EXPECT_NEAR(double(dh.binaryBytes) / (34 << 20), 1.0126, 0.001);
}

TEST(Swivel, Table1ProfilesMatchPaperShape)
{
    // Table 1: XML +33%, image classification ~0%, SHA +9.5%, HTML +73%
    // (average latency multipliers under saturation).
    EXPECT_NEAR(apply(xmlToJsonProfile()).computeFactor, 1.33, 0.03);
    EXPECT_LT(apply(imageClassifyProfile()).computeFactor, 1.02);
    EXPECT_NEAR(apply(checkShaProfile()).computeFactor, 1.10, 0.03);
    EXPECT_NEAR(apply(templatedHtmlProfile()).computeFactor, 1.73, 0.05);
}

TEST(Swivel, Table1BinarySizesMatchPaperShape)
{
    // Table 1's Bin size rows: 3.5->4.1, 34.3->34.5, 3.9->4.6,
    // 3.6->4.2 MiB.
    const double mib = 1024 * 1024;
    EXPECT_NEAR(apply(xmlToJsonProfile()).binaryBytes / mib, 4.1, 0.15);
    EXPECT_NEAR(apply(imageClassifyProfile()).binaryBytes / mib, 34.5, 0.2);
    EXPECT_NEAR(apply(checkShaProfile()).binaryBytes / mib, 4.6, 0.15);
    EXPECT_NEAR(apply(templatedHtmlProfile()).binaryBytes / mib, 4.2, 0.15);
}

} // namespace
