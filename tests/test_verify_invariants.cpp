#include "wrht/verify/invariants.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <utility>

#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/core/wrht_schedule.hpp"

namespace wrht {
namespace {

using verify::InvariantOptions;

coll::Schedule wrht_sched(std::uint32_t n, std::uint32_t m, std::uint32_t w,
                          std::size_t elements = 64) {
  return core::wrht_allreduce(n, elements, core::WrhtOptions{m, w});
}

// ----------------------------------------------------- schedule structure

TEST(VerifyInvariants, StructureAcceptsGeneratedSchedules) {
  EXPECT_TRUE(
      verify::check_schedule_structure(coll::ring_allreduce(8, 64)).ok());
  EXPECT_TRUE(verify::check_schedule_structure(wrht_sched(30, 5, 64)).ok());
}

TEST(VerifyInvariants, StructureFlagsHandMadeViolations) {
  coll::Schedule bad("bad", 4, 8);
  bad.add_step("empty");
  coll::Step& s = bad.add_step("broken");
  using coll::TransferKind;
  s.transfers.push_back(
      coll::Transfer{0, 0, 0, 4, TransferKind::kReduce, {}});  // self transfer
  s.transfers.push_back(
      coll::Transfer{1, 9, 0, 4, TransferKind::kReduce, {}});  // node range
  s.transfers.push_back(
      coll::Transfer{2, 3, 6, 4, TransferKind::kReduce, {}});  // overflow
  s.transfers.push_back(
      coll::Transfer{3, 2, 0, 0, TransferKind::kReduce, {}});  // empty

  const verify::CheckResult result = verify::check_schedule_structure(bad);
  ASSERT_FALSE(result.ok());
  std::size_t empty = 0, self = 0, node = 0, range = 0;
  for (const verify::Finding& f : result.findings()) {
    empty += f.check == "invariant.structure.empty_step";
    self += f.check == "invariant.structure.self_transfer";
    node += f.check == "invariant.structure.node_range";
    range += f.check == "invariant.structure.element_range";
  }
  EXPECT_EQ(empty, 1u);
  EXPECT_EQ(self, 1u);
  EXPECT_EQ(node, 1u);
  EXPECT_EQ(range, 2u) << result.summary();
}

TEST(VerifyInvariants, StructureFlagsWrappingElementRanges) {
  // offset + count wraps for both; a check that adds them lets them pass.
  const std::size_t max = SIZE_MAX;
  for (const auto& [offset, count] :
       {std::pair{max, std::size_t{2}}, std::pair{max - 1, std::size_t{3}}}) {
    coll::Schedule bad("bad", 2, 4);
    bad.add_step("wrapping").transfers.push_back(
        coll::Transfer{0, 1, offset, count, coll::TransferKind::kReduce, {}});
    const verify::CheckResult result = verify::check_schedule_structure(bad);
    ASSERT_EQ(result.findings().size(), 1u) << result.summary();
    EXPECT_EQ(result.findings()[0].check, "invariant.structure.element_range");
  }
}

// ------------------------------------------------------ conflict freedom

TEST(VerifyInvariants, ConflictFreedomHoldsForAllBuilders) {
  InvariantOptions options;
  options.wavelengths = 8;
  EXPECT_TRUE(
      verify::check_conflict_freedom(coll::ring_allreduce(16, 64), 16, options)
          .ok());
  EXPECT_TRUE(
      verify::check_conflict_freedom(wrht_sched(30, 5, 8), 30, options).ok());
}

TEST(VerifyInvariants, ConflictFreedomSurvivesMultiRoundSplitting) {
  // One wavelength forces heavy splitting; every round must still verify.
  InvariantOptions options;
  options.wavelengths = 1;
  const verify::CheckResult result =
      verify::check_conflict_freedom(wrht_sched(24, 6, 64), 24, options);
  EXPECT_TRUE(result.ok()) << result.summary();
}

TEST(VerifyInvariants, ConflictFreedomWorksWithRandomFit) {
  InvariantOptions options;
  options.wavelengths = 8;
  options.rwa_policy = optics::RwaPolicy::kRandomFit;
  const verify::CheckResult result =
      verify::check_conflict_freedom(wrht_sched(30, 5, 8), 30, options);
  EXPECT_TRUE(result.ok()) << result.summary();
}

// ----------------------------------------------------- hierarchy checks

TEST(VerifyInvariants, HierarchySweepHolds) {
  for (std::uint32_t n = 2; n <= 64; ++n) {
    for (const std::uint32_t m : {2u, 3u, 4u, 5u, 8u, 13u}) {
      for (const std::uint32_t w : {1u, 2u, 8u, 64u}) {
        const verify::CheckResult result =
            verify::check_wrht_hierarchy(n, m, w);
        EXPECT_TRUE(result.ok())
            << "N=" << n << " m=" << m << " w=" << w << ":\n"
            << result.summary();
      }
    }
  }
}

// ------------------------------------------------------ step-count checks

TEST(VerifyInvariants, StepCountMatchesClosedFormAcrossSweep) {
  for (const std::uint32_t n : {4u, 11u, 16u, 30u, 47u, 64u}) {
    for (const std::uint32_t m : {2u, 3u, 5u, 8u}) {
      for (const std::uint32_t w : {2u, 8u, 64u}) {
        const verify::CheckResult result =
            verify::check_wrht_step_count(wrht_sched(n, m, w), n, m, w);
        EXPECT_TRUE(result.ok())
            << "N=" << n << " m=" << m << " w=" << w << ":\n"
            << result.summary();
      }
    }
  }
}

TEST(VerifyInvariants, StepCountFlagsForeignSchedule) {
  // A Ring schedule does not obey the WRHT closed form.
  const verify::CheckResult result = verify::check_wrht_step_count(
      coll::ring_allreduce(16, 64), 16, 4, 64);
  EXPECT_FALSE(result.ok());
}

// -------------------------------------------------- wavelength discipline

TEST(VerifyInvariants, WavelengthDisciplineHolds) {
  for (const std::uint32_t n : {8u, 16u, 30u, 47u}) {
    for (const std::uint32_t m : {2u, 4u, 7u}) {
      const verify::CheckResult result = verify::check_wrht_wavelength_discipline(
          wrht_sched(n, m, 64), n, m, 64);
      EXPECT_TRUE(result.ok())
          << "N=" << n << " m=" << m << ":\n" << result.summary();
    }
  }
}

// ------------------------------------------------------- composite check

TEST(VerifyInvariants, FullConfigurationCheckPasses) {
  for (const std::uint32_t n : {5u, 12u, 30u, 50u}) {
    for (const std::uint32_t m : {2u, 4u, 9u}) {
      for (const std::uint32_t w : {2u, 64u}) {
        const verify::CheckResult result =
            verify::check_wrht_configuration(n, m, w, 48);
        EXPECT_TRUE(result.ok())
            << "N=" << n << " m=" << m << " w=" << w << ":\n"
            << result.summary();
      }
    }
  }
}

}  // namespace
}  // namespace wrht
