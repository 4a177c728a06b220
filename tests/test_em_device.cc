// Device allocation: alignment, region (LIFO) release, growth, peak
// tracking — the substrate behind the paper's O(E) disk-space claims.
#include <gtest/gtest.h>

#include "em/array.h"
#include "test_util.h"

namespace trienum {
namespace {

TEST(Device, AllocationsAreBlockAligned) {
  em::Context ctx = test::MakeContext(1024, 16);
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(3);
  em::Array<std::uint64_t> b = ctx.Alloc<std::uint64_t>(5);
  EXPECT_EQ(a.base() % 16, 0u);
  EXPECT_EQ(b.base() % 16, 0u);
  // Distinct arrays never share a cache line.
  EXPECT_GE(b.base(), a.base() + 16);
}

TEST(Device, RegionReleaseReclaimsSpace) {
  em::Context ctx = test::MakeContext(1024, 16);
  em::Addr before = ctx.device().Mark();
  {
    auto region = ctx.Region();
    ctx.Alloc<std::uint64_t>(1000);
    ctx.Alloc<std::uint64_t>(1000);
    EXPECT_GT(ctx.device().Mark(), before);
  }
  EXPECT_EQ(ctx.device().Mark(), before);
}

TEST(Device, NestedRegionsAreLifo) {
  em::Context ctx = test::MakeContext(1024, 16);
  em::Addr m0 = ctx.device().Mark();
  {
    auto r1 = ctx.Region();
    ctx.Alloc<std::uint64_t>(100);
    em::Addr m1 = ctx.device().Mark();
    {
      auto r2 = ctx.Region();
      ctx.Alloc<std::uint64_t>(100);
      EXPECT_GT(ctx.device().Mark(), m1);
    }
    EXPECT_EQ(ctx.device().Mark(), m1);
  }
  EXPECT_EQ(ctx.device().Mark(), m0);
}

TEST(Device, PeakTracksHighWaterMark) {
  em::Context ctx = test::MakeContext(1024, 16);
  ctx.device().ResetPeak();
  std::size_t before = ctx.device().peak_words();
  {
    auto region = ctx.Region();
    ctx.Alloc<std::uint64_t>(5000);
  }
  EXPECT_GE(ctx.device().peak_words(), before + 5000);
  std::size_t peak = ctx.device().peak_words();
  {
    auto region = ctx.Region();
    ctx.Alloc<std::uint64_t>(10);
  }
  EXPECT_EQ(ctx.device().peak_words(), peak);  // smaller regions don't move it
}

TEST(Device, GrowsOnDemand) {
  em::Context ctx = test::MakeContext(1024, 16);
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(1 << 18);
  a.Set((1 << 18) - 1, 99);
  EXPECT_EQ(a.Get((1 << 18) - 1), 99u);
}

TEST(Scratch, LeaseAccountingEnforcesBudget) {
  em::Context ctx = test::MakeContext(/*m=*/256, 16);
  EXPECT_EQ(ctx.scratch_in_use(), 0u);
  {
    em::ScratchLease l1 = ctx.LeaseScratch(100);
    EXPECT_EQ(ctx.scratch_in_use(), 100u);
    {
      em::ScratchLease l2 = ctx.LeaseScratch(120);
      EXPECT_EQ(ctx.scratch_in_use(), 220u);
    }
    EXPECT_EQ(ctx.scratch_in_use(), 100u);
  }
  EXPECT_EQ(ctx.scratch_in_use(), 0u);
}

TEST(Scratch, OverBudgetThrowsInvalidArgument) {
  em::Context ctx = test::MakeContext(/*m=*/256, 16);
  em::ScratchLease held = ctx.LeaseScratch(200);
  try {
    em::ScratchLease l = ctx.LeaseScratch(57);
    ADD_FAILURE() << "a lease past M must throw";
  } catch (const Status& st) {
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find("M=256"), std::string::npos) << st.message();
    EXPECT_NE(st.message().find("57"), std::string::npos) << st.message();
  }
  // The failed lease recorded nothing; the budget is intact.
  EXPECT_EQ(ctx.scratch_in_use(), 200u);
  EXPECT_THROW({ em::ScratchLease l = ctx.LeaseScratch(257); }, Status);
}

TEST(Scratch, MoveTransfersOwnership) {
  em::Context ctx = test::MakeContext(256, 16);
  em::ScratchLease a = ctx.LeaseScratch(50);
  em::ScratchLease b = std::move(a);
  EXPECT_EQ(ctx.scratch_in_use(), 50u);
  em::ScratchLease c;
  c = std::move(b);
  EXPECT_EQ(ctx.scratch_in_use(), 50u);
}

}  // namespace
}  // namespace trienum
