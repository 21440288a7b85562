// MetricsRegistry / Histogram / TimeSeries unit tests: typed instrument
// contracts (monotonic counters, free-moving gauges, log-bucket
// histograms), ring-buffer sampling semantics, and byte-stable CSV/JSON
// export.
#include "wrht/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "wrht/common/error.hpp"

namespace wrht::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(Histogram, BucketsCoverLogScaleRanges) {
  Histogram h(HistogramSpec{1.0, 2.0, 8});
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_lo(3), 8.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(3), 16.0);

  h.observe(1.5);    // bucket 0
  h.observe(10.0);   // bucket 3: [8, 16)
  h.observe(0.001);  // below lo -> bucket 0
  h.observe(1e9);    // overflow -> last bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1.5 + 10.0 + 0.001 + 1e9);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.bucket_counts()[7], 1u);
}

TEST(Histogram, QuantileIsBucketUpperBound) {
  Histogram h(HistogramSpec{1.0, 2.0, 8});
  for (int i = 0; i < 99; ++i) h.observe(1.5);  // bucket 0
  h.observe(100.0);                             // bucket 6: [64, 128)
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 128.0);
}

TEST(Histogram, RejectsBadSpecsAndEmptyQuantiles) {
  EXPECT_THROW(Histogram(HistogramSpec{0.0, 2.0, 4}), Error);
  EXPECT_THROW(Histogram(HistogramSpec{1.0, 1.0, 4}), Error);
  EXPECT_THROW(Histogram(HistogramSpec{1.0, 2.0, 0}), Error);
  Histogram h;
  EXPECT_THROW((void)h.quantile(0.5), Error);   // empty
  h.observe(1.0);
  EXPECT_THROW((void)h.quantile(1.5), Error);   // out of [0, 1]
}

TEST(TimeSeries, RingOverwritesOldestWhenFull) {
  TimeSeries series(3);
  series.push(Seconds(0.0), 10.0);
  series.push(Seconds(1.0), 11.0);
  EXPECT_EQ(series.size(), 2u);
  EXPECT_EQ(series.dropped(), 0u);

  series.push(Seconds(2.0), 12.0);
  series.push(Seconds(3.0), 13.0);  // evicts t=0
  EXPECT_EQ(series.size(), 3u);
  EXPECT_EQ(series.dropped(), 1u);
  EXPECT_DOUBLE_EQ(series[0].time.count(), 1.0);  // oldest retained
  EXPECT_DOUBLE_EQ(series[2].value, 13.0);
  EXPECT_THROW((void)series[3], Error);

  const auto points = series.points();
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points.front().value, 11.0);
  EXPECT_DOUBLE_EQ(points.back().value, 13.0);
}

TEST(MetricsRegistry, TypedInstrumentsEnforceTheirContracts) {
  MetricsRegistry registry;
  const auto jobs = registry.counter("svc.jobs");
  const auto depth = registry.gauge("svc.depth");
  const auto jct = registry.histogram("svc.jct", HistogramSpec{1e-3, 2.0, 32});

  registry.add(jobs, 2.0);
  registry.add(jobs);
  EXPECT_DOUBLE_EQ(registry.value(jobs), 3.0);
  EXPECT_THROW(registry.add(jobs, -1.0), Error);  // monotonic

  registry.set(depth, 5.0);
  registry.set(depth, 2.0);  // gauges move down freely
  EXPECT_DOUBLE_EQ(registry.value(depth), 2.0);

  registry.observe(jct, 0.25);
  registry.observe(jct, 0.5);
  EXPECT_DOUBLE_EQ(registry.value(jct), 2.0);  // histograms read as count
  EXPECT_EQ(registry.histogram_at(jct).count(), 2u);

  // Wrong-kind operations throw rather than corrupt.
  EXPECT_THROW(registry.set(jobs, 1.0), Error);
  EXPECT_THROW(registry.add(depth), Error);
  EXPECT_THROW(registry.observe(jobs, 1.0), Error);
  EXPECT_THROW((void)registry.histogram_at(depth), Error);
}

TEST(MetricsRegistry, InternReturnsExistingIdAndRejectsKindClashes) {
  MetricsRegistry registry;
  const auto a = registry.counter("x");
  EXPECT_EQ(registry.counter("x"), a);
  EXPECT_THROW((void)registry.gauge("x"), Error);
  EXPECT_THROW((void)registry.counter(""), Error);

  const auto h = registry.histogram("h", HistogramSpec{1.0, 2.0, 8});
  EXPECT_EQ(registry.histogram("h", HistogramSpec{1.0, 2.0, 8}), h);
  EXPECT_THROW((void)registry.histogram("h", HistogramSpec{2.0, 2.0, 8}),
               Error);

  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.name(a), "x");
  EXPECT_EQ(registry.kind(h), InstrumentKind::kHistogram);
  EXPECT_TRUE(registry.find("h").has_value());
  EXPECT_FALSE(registry.find("absent").has_value());
}

TEST(MetricsRegistry, SampleSnapshotsEveryInstrument) {
  MetricsRegistry registry(MetricsRegistry::Options{4});
  const auto jobs = registry.counter("jobs");
  const auto depth = registry.gauge("depth");

  registry.add(jobs);
  registry.set(depth, 3.0);
  registry.sample(Seconds(0.5));
  registry.add(jobs);
  registry.sample(Seconds(1.0));

  const TimeSeries& series = registry.series(jobs);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0].value, 1.0);
  EXPECT_DOUBLE_EQ(series[1].value, 2.0);
  EXPECT_DOUBLE_EQ(series[1].time.count(), 1.0);
  EXPECT_DOUBLE_EQ(registry.series(depth)[0].value, 3.0);
}

TEST(MetricsRegistry, ExportsAreDeterministicAndNameOrdered) {
  const auto build = [] {
    MetricsRegistry registry;
    const auto z = registry.counter("z.last");
    const auto a = registry.gauge("a.first");
    registry.add(z, 2.0);
    registry.set(a, 1.5);
    registry.sample(Seconds(0.25));
    return registry;
  };

  const std::string csv1 = "metrics_test_1.csv";
  const std::string csv2 = "metrics_test_2.csv";
  build().write_series_csv(csv1);
  build().write_series_csv(csv2);
  const std::string text = slurp(csv1);
  EXPECT_EQ(text, slurp(csv2));  // byte-identical across identical runs
  EXPECT_EQ(text.find("metric,kind,t_s,value"), 0u);
  // Name order: the gauge "a.first" precedes the counter "z.last".
  EXPECT_LT(text.find("a.first"), text.find("z.last"));
  std::remove(csv1.c_str());
  std::remove(csv2.c_str());

  std::ostringstream json1, json2;
  build().write_json(json1);
  build().write_json(json2);
  EXPECT_EQ(json1.str(), json2.str());
  EXPECT_NE(json1.str().find("\"schema\": \"wrht-metrics-1\""),
            std::string::npos);
}

// Instrument names used to be printed raw, so a quote or backslash in a
// name broke the document.
TEST(MetricsRegistry, JsonEscapesInstrumentNames) {
  MetricsRegistry registry;
  registry.counter("say \"hi\"\\now");
  std::ostringstream json;
  registry.write_json(json);
  EXPECT_NE(json.str().find(R"("name": "say \"hi\"\\now")"),
            std::string::npos)
      << json.str();
}

}  // namespace
}  // namespace wrht::obs
