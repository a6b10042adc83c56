#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "obs/obs.hpp"
#include "soc/builtin.hpp"
#include "soc/generator.hpp"
#include "tam/timing.hpp"
#include "wrapper/test_time_table.hpp"

namespace soctest {
namespace {

TEST(TestTimeTable, RejectsBadWidth) {
  const Soc soc = builtin_soc2();
  EXPECT_THROW(TestTimeTable(soc, 0), std::invalid_argument);
  const TestTimeTable table(soc, 8);
  EXPECT_THROW(table.time(0, 0), std::out_of_range);
  EXPECT_THROW(table.time(0, 9), std::out_of_range);
}

TEST(TestTimeTable, MonotoneNonIncreasing) {
  const Soc soc = builtin_soc1();
  const TestTimeTable table(soc, 64);
  for (std::size_t i = 0; i < soc.num_cores(); ++i) {
    for (int w = 2; w <= 64; ++w) {
      EXPECT_LE(table.time(i, w), table.time(i, w - 1))
          << "core " << i << " width " << w;
    }
  }
}

TEST(TestTimeTable, EnvelopeNeverAboveRaw) {
  const Soc soc = builtin_soc1();
  const TestTimeTable table(soc, 48);
  for (std::size_t i = 0; i < soc.num_cores(); ++i) {
    for (int w = 1; w <= 48; ++w) {
      EXPECT_LE(table.time(i, w), table.raw_time(i, w));
    }
  }
}

TEST(TestTimeTable, EffectiveWidthAchievesEnvelope) {
  const Soc soc = builtin_soc1();
  const TestTimeTable table(soc, 48);
  for (std::size_t i = 0; i < soc.num_cores(); ++i) {
    for (int w = 1; w <= 48; ++w) {
      const int ew = table.effective_width(i, w);
      EXPECT_LE(ew, w);
      EXPECT_GE(ew, 1);
      EXPECT_EQ(table.raw_time(i, ew), table.time(i, w));
    }
  }
}

TEST(TestTimeTable, ParetoWidthsStrictlyImprove) {
  const Soc soc = builtin_soc1();
  const TestTimeTable table(soc, 64);
  for (std::size_t i = 0; i < soc.num_cores(); ++i) {
    const auto widths = table.pareto_widths(i);
    ASSERT_FALSE(widths.empty());
    EXPECT_EQ(widths.front(), 1);
    for (std::size_t k = 1; k < widths.size(); ++k) {
      EXPECT_LT(table.time(i, widths[k]), table.time(i, widths[k - 1]));
    }
  }
}

TEST(TestTimeTable, TotalTimeIsSum) {
  const Soc soc = builtin_soc2();
  const TestTimeTable table(soc, 16);
  Cycles sum = 0;
  for (std::size_t i = 0; i < soc.num_cores(); ++i) sum += table.time(i, 16);
  EXPECT_EQ(table.total_time(16), sum);
}

TEST(TestTimeTable, WidthOneMatchesSerialFormula) {
  const Soc soc = builtin_soc1();
  const TestTimeTable table(soc, 4);
  for (std::size_t i = 0; i < soc.num_cores(); ++i) {
    const Core& c = soc.core(i);
    const Cycles si = c.scan_in_elements();
    const Cycles so = c.scan_out_elements();
    const Cycles expect =
        c.num_patterns * (1 + std::max(si, so)) + std::min(si, so);
    EXPECT_EQ(table.time(i, 1), expect) << c.name;
  }
}

TEST(TestTimeTable, BigCoresBenefitFromWidth) {
  // s38417 (32 scan chains) must speed up dramatically from w=1 to w=32.
  const Soc soc = builtin_soc1();
  const TestTimeTable table(soc, 32);
  const auto idx = *soc.find_core("s38417");
  EXPECT_LT(table.time(idx, 32) * 10, table.time(idx, 1));
}

// ------------------------------------------------ prefix reuse and memo --

/// Every accessor of `got` agrees with a table built from scratch.
void expect_same_table(const Soc& soc, const TestTimeTable& got,
                       const TestTimeTable& want) {
  ASSERT_EQ(got.max_width(), want.max_width());
  ASSERT_EQ(got.num_cores(), want.num_cores());
  for (std::size_t i = 0; i < soc.num_cores(); ++i) {
    for (int w = 1; w <= want.max_width(); ++w) {
      EXPECT_EQ(got.time(i, w), want.time(i, w)) << i << " w=" << w;
      EXPECT_EQ(got.raw_time(i, w), want.raw_time(i, w)) << i << " w=" << w;
      EXPECT_EQ(got.effective_width(i, w), want.effective_width(i, w))
          << i << " w=" << w;
    }
    EXPECT_EQ(got.pareto_widths(i), want.pareto_widths(i)) << i;
  }
  for (int w = 1; w <= want.max_width(); ++w) {
    EXPECT_EQ(got.total_time(w), want.total_time(w)) << "w=" << w;
  }
}

Soc generated_soc(int cores, std::uint64_t seed) {
  Rng rng(seed);
  SocGeneratorOptions gen;
  gen.num_cores = cores;
  gen.soft_core_fraction = 0.2;
  gen.place = false;
  return generate_soc(gen, rng);
}

TEST(TestTimeTablePrefix, GrownFromNarrowerEqualsFresh) {
  for (const Soc& soc :
       {builtin_soc1(), builtin_soc4(), generated_soc(18, 7)}) {
    SCOPED_TRACE(soc.name());
    for (auto heuristic : {PartitionHeuristic::kBestFitDecreasing,
                           PartitionHeuristic::kRoundRobin}) {
      const TestTimeTable narrow(soc, 9, heuristic);
      const TestTimeTable grown(soc, 40, heuristic, narrow);
      expect_same_table(soc, grown, TestTimeTable(soc, 40, heuristic));
    }
  }
}

TEST(TestTimeTablePrefix, CutFromWiderEqualsFresh) {
  for (const Soc& soc :
       {builtin_soc1(), builtin_soc4(), generated_soc(18, 7)}) {
    SCOPED_TRACE(soc.name());
    const TestTimeTable wide(soc, 48);
    for (int width : {1, 17, 48}) {
      const TestTimeTable cut(soc, width,
                              PartitionHeuristic::kBestFitDecreasing, wide);
      expect_same_table(soc, cut, TestTimeTable(soc, width));
    }
  }
}

TEST(TestTimeTablePrefix, RejectsPrefixOfAnotherCoreCount) {
  const TestTimeTable other(builtin_soc2(), 8);
  EXPECT_THROW(TestTimeTable(builtin_soc1(), 16,
                             PartitionHeuristic::kBestFitDecreasing, other),
               std::invalid_argument);
}

long long counter_value(const std::string& name) {
  for (const auto& c : obs::counter_values()) {
    if (c.name == name) return c.value;
  }
  return 0;
}

TEST(TestTimeTableMemo, MissesGrowFromTheWidestCachedTable) {
  // The width-search sweep's four max widths (B x W = 2x24, 2x40, 3x32,
  // 3x40): only the widest ever needs wrapper design, once.
  obs::TraceSession session(nullptr);  // counters only
  const Soc soc = generated_soc(20, 2026);
  const long long before = counter_value("wrapper.table.widths_built");
  for (int width : {23, 39, 30, 38}) {
    SCOPED_TRACE(width);
    expect_same_table(soc, cached_test_time_table(soc, width),
                      TestTimeTable(soc, width));
  }
  EXPECT_EQ(counter_value("wrapper.table.widths_built") - before,
            39 * static_cast<long long>(soc.num_cores()));
  // A hit designs nothing and hands back the same entry.
  const TestTimeTable& again = cached_test_time_table(soc, 30);
  EXPECT_EQ(&again, &cached_test_time_table(soc, 30));
  EXPECT_EQ(counter_value("wrapper.table.widths_built") - before,
            39 * static_cast<long long>(soc.num_cores()));
}

TEST(TestTimeTableMemo, ConcurrentInterleavedWidthsMatchFreshTables) {
  // Threads race misses and prefix growth on one SOC, each walking the
  // widths in a different order; every table must still equal a fresh one.
  const Soc soc = generated_soc(12, 99);
  const std::vector<int> widths = {5, 31, 12, 44, 20, 37, 9, 26};
  std::vector<std::vector<const TestTimeTable*>> seen(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < widths.size(); ++k) {
        const int width = widths[(k * (t + 1) + t) % widths.size()];
        seen[t].push_back(&cached_test_time_table(soc, width));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int width : widths) {
    SCOPED_TRACE(width);
    const TestTimeTable& cached = cached_test_time_table(soc, width);
    expect_same_table(soc, cached, TestTimeTable(soc, width));
    for (const auto& tables : seen) {
      for (const TestTimeTable* table : tables) {
        if (table->max_width() == width) {
          EXPECT_EQ(table, &cached);
        }
      }
    }
  }
}

}  // namespace
}  // namespace soctest
