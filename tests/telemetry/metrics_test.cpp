#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

namespace rasoc::telemetry {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, TracksLastMinMaxMean) {
  Gauge g;
  EXPECT_EQ(g.samples(), 0u);
  EXPECT_EQ(g.mean(), 0.0);
  g.sample(4.0);
  g.sample(-2.0);
  g.sample(1.0);
  EXPECT_EQ(g.samples(), 3u);
  EXPECT_DOUBLE_EQ(g.last(), 1.0);
  EXPECT_DOUBLE_EQ(g.min(), -2.0);
  EXPECT_DOUBLE_EQ(g.max(), 4.0);
  EXPECT_DOUBLE_EQ(g.mean(), 1.0);
}

TEST(HistogramTest, BucketsByInclusiveUpperBound) {
  Histogram h({1.0, 2.0, 4.0});
  for (double v : {0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 100.0}) h.observe(v);
  ASSERT_EQ(h.bucketCounts().size(), 4u);
  EXPECT_EQ(h.bucketCounts()[0], 2u);  // 0, 1
  EXPECT_EQ(h.bucketCounts()[1], 2u);  // 1.5, 2
  EXPECT_EQ(h.bucketCounts()[2], 2u);  // 3, 4
  EXPECT_EQ(h.bucketCounts()[3], 1u);  // 100 -> overflow
  EXPECT_EQ(h.count(), 7u);
  EXPECT_DOUBLE_EQ(h.sum(), 111.5);
}

TEST(HistogramTest, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(HistogramTest, LinearBoundsMatchFifoDepth) {
  const auto bounds = Histogram::linearBounds(4);
  EXPECT_EQ(bounds, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
  EXPECT_THROW(Histogram::linearBounds(0), std::invalid_argument);
}

TEST(RegistryTest, AccessorsCreateOnFirstUseAndReturnStableRefs) {
  MetricsRegistry registry;
  Counter& a = registry.counter("a");
  a.inc(3);
  // Creating more metrics must not move the first one.
  for (int i = 0; i < 100; ++i)
    registry.counter(std::string("c").append(std::to_string(i))).inc();
  EXPECT_EQ(&registry.counter("a"), &a);
  EXPECT_EQ(registry.counter("a").value(), 3u);
  EXPECT_EQ(registry.size(), 101u);
}

TEST(RegistryTest, FindDoesNotCreate) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.findCounter("missing"), nullptr);
  EXPECT_EQ(registry.findGauge("missing"), nullptr);
  EXPECT_EQ(registry.findHistogram("missing"), nullptr);
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.counterValue("missing"), 0u);
  EXPECT_EQ(registry.counterValue("missing", 7), 7u);
}

TEST(RegistryTest, HistogramReRegistrationChecksBounds) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("occ", {1.0, 2.0});
  h.observe(1.0);
  // Same bounds: same object.
  EXPECT_EQ(&registry.histogram("occ", {1.0, 2.0}), &h);
  EXPECT_THROW(registry.histogram("occ", {1.0, 3.0}), std::invalid_argument);
}

TEST(RegistryTest, IterationIsNameSorted) {
  MetricsRegistry registry;
  registry.counter("zeta");
  registry.counter("alpha");
  registry.counter("mid");
  std::vector<std::string> names;
  for (const auto& [name, counter] : registry.counters())
    names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

}  // namespace
}  // namespace rasoc::telemetry
