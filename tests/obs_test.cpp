// Tests for the airshed::obs observability layer: recorder lane mechanics,
// JSON writer escaping, metric semantics, Chrome trace-event export
// (golden), durable container round-trips, virtual-timeline determinism
// across host thread counts, and the bit-identity guarantee (instrumented
// runs produce byte-identical science).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "airshed/core/executor.hpp"
#include "airshed/core/model.hpp"
#include "airshed/core/report.hpp"
#include "airshed/fault/fault_plan.hpp"
#include "airshed/io/dataset.hpp"
#include "airshed/io/vault.hpp"
#include "airshed/obs/export.hpp"
#include "airshed/obs/json.hpp"
#include "airshed/obs/metrics.hpp"
#include "airshed/obs/trace.hpp"
#include "airshed/util/error.hpp"
#include "airshed/util/hash.hpp"
#include "airshed/util/rng.hpp"

namespace airshed {
namespace {

// ------------------------------------------------------------ JsonWriter

TEST(ObsJson, EscapesEverythingJsonRequires) {
  obs::JsonWriter json;
  json.begin_object();
  json.key("s").value(std::string_view("a\"b\\c\nd\te\x01" "f"));
  json.key("nan").value(std::numeric_limits<double>::quiet_NaN());
  json.key("inf").value(std::numeric_limits<double>::infinity());
  json.key("i").value(-7);
  json.key("b").value(true);
  json.end_object();
  EXPECT_EQ(json.str(),
            "{\"s\":\"a\\\"b\\\\c\\nd\\te\\u0001f\","
            "\"nan\":null,\"inf\":null,\"i\":-7,\"b\":true}");
}

TEST(ObsJson, CommasNestAndDoublesRoundTrip) {
  obs::JsonWriter json;
  json.begin_object();
  json.key("a").begin_array().value(1).value(2.5).begin_object().end_object();
  json.end_array();
  json.key("tiny").value(0.1);
  json.end_object();
  // Shortest round-trip form: 0.1 stays "0.1", not the 17-digit expansion.
  EXPECT_EQ(json.str(), "{\"a\":[1,2.5,{}],\"tiny\":0.1}");
}

TEST(ObsJson, DoublesUseShortestRoundTripForm) {
  const auto rendered = [](double v) {
    obs::JsonWriter json;
    json.value(v);
    return json.str();
  };
  // Human-friendly decimals render as typed, not as their nearest-double
  // 17-digit expansion.
  EXPECT_EQ(rendered(0.15), "0.15");
  EXPECT_EQ(rendered(1e-5), "1e-05");
  EXPECT_EQ(rendered(2.0), "2");
  EXPECT_EQ(rendered(-123.456), "-123.456");
  // Integral values keep plain notation when it is no longer than the
  // exponential form ("10", not "1e+01"; "250000", not "2.5e+05") —
  // histogram bounds and virtual-time stamps stay grep-able.
  EXPECT_EQ(rendered(10.0), "10");
  EXPECT_EQ(rendered(250000.0), "250000");
  EXPECT_EQ(rendered(1e6), "1000000");
  EXPECT_EQ(rendered(-500000.0), "-500000");
  EXPECT_EQ(rendered(1e18), "1e+18");  // longer in fixed form: stays %g
  // And every rendering still parses back to the exact same double, even
  // for values that genuinely need all 17 digits.
  Rng rng(2026);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-1e9, 1e9) * std::pow(10.0, rng.uniform(-12.0, 12.0));
    const std::string s = rendered(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
}

// ---------------------------------------------------------- TraceRecorder

TEST(ObsRecorder, FullLaneDropsAndCountsInsteadOfGrowing) {
  obs::TraceRecorder rec(2, /*capacity_per_thread=*/2);
  obs::SpanEvent ev;
  ev.name = "x";
  for (int i = 0; i < 5; ++i) {
    ev.start_ns = static_cast<std::uint64_t>(i);
    ev.end_ns = ev.start_ns + 1;
    rec.record(0, ev);
  }
  rec.record(1, ev);
  EXPECT_EQ(rec.dropped(), 3u);

  obs::TraceSession s = rec.drain();
  EXPECT_EQ(s.host_threads, 2);
  EXPECT_EQ(s.dropped, 3u);
  ASSERT_EQ(s.host.size(), 3u);
  // Lanes drain in thread order, each in record order.
  EXPECT_EQ(s.host[0].thread, 0);
  EXPECT_EQ(s.host[0].start_ns, 0u);
  EXPECT_EQ(s.host[1].start_ns, 1u);
  EXPECT_EQ(s.host[2].thread, 1);

  // Drain resets the recorder for reuse.
  obs::TraceSession again = rec.drain();
  EXPECT_TRUE(again.host.empty());
  EXPECT_EQ(again.dropped, 0u);
}

TEST(ObsRecorder, SpanGuardRecordsTagsAndNullRecorderIsInert) {
  obs::TraceRecorder rec(1);
  {
    obs::ObsSpan guard(&rec, 0, "phase", PhaseCategory::Chemistry,
                       /*hour=*/4, /*node=*/2);
  }
  { obs::ObsSpan noop(nullptr, 0, "x", PhaseCategory::Transport); }
  obs::TraceSession s = rec.drain();
  ASSERT_EQ(s.host.size(), 1u);
  EXPECT_EQ(s.host[0].name, "phase");
  EXPECT_EQ(s.host[0].category, PhaseCategory::Chemistry);
  EXPECT_EQ(s.host[0].hour, 4);
  EXPECT_EQ(s.host[0].node, 2);
  EXPECT_GE(s.host[0].end_ns, s.host[0].start_ns);
}

// --------------------------------------------------------------- Metrics

TEST(ObsMetrics, HistogramUsesInclusiveUpperBounds) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("lat", {1.0, 2.0, 4.0}, "test");
  for (double v : {0.5, 1.0, 1.5, 2.0, 4.0, 5.0}) h.observe(v);
  ASSERT_EQ(h.bucket_counts().size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(h.bucket_counts()[0], 2);       // 0.5, 1.0  (le 1)
  EXPECT_EQ(h.bucket_counts()[1], 2);       // 1.5, 2.0  (le 2)
  EXPECT_EQ(h.bucket_counts()[2], 1);       // 4.0       (le 4)
  EXPECT_EQ(h.bucket_counts()[3], 1);       // 5.0       (overflow)
  EXPECT_EQ(h.count(), 6);
  EXPECT_DOUBLE_EQ(h.sum(), 14.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
}

TEST(ObsMetrics, HistogramRejectsInvalidBounds) {
  obs::MetricsRegistry registry;
  EXPECT_THROW(registry.histogram("a", {}, ""), Error);
  EXPECT_THROW(registry.histogram("b", {2.0, 1.0}, ""), Error);
  EXPECT_THROW(registry.histogram("c", {1.0, 1.0}, ""), Error);
  EXPECT_THROW(
      registry.histogram("d", {1.0, std::numeric_limits<double>::infinity()},
                         ""),
      Error);
}

TEST(ObsMetrics, RegistryAccumulatesAndRejectsKindCollisions) {
  obs::MetricsRegistry registry;
  registry.counter("n", "count").inc();
  registry.counter("n", "count").inc(2);
  EXPECT_EQ(registry.counter("n", "count").value(), 3);
  registry.gauge("g", "").set(1.5);
  registry.gauge("g", "").set(2.5);
  EXPECT_DOUBLE_EQ(registry.gauge("g", "").value(), 2.5);
  EXPECT_THROW(registry.gauge("n", ""), Error);
  EXPECT_THROW(registry.counter("g", ""), Error);
}

TEST(ObsMetrics, SnapshotJsonCarriesSchemaRunAndEveryMetric) {
  obs::MetricsRegistry registry;
  registry.counter("events", "how many").inc(3);
  registry.gauge("level", "").set(0.5);
  registry.histogram("ms", {1.0, 10.0}, "").observe(4.0);
  const std::string body = obs::metrics_json(registry, "unit-test");
  EXPECT_NE(body.find("\"schema\":\"airshed-metrics-v1\""), std::string::npos);
  EXPECT_NE(body.find("\"run\":\"unit-test\""), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"events\""), std::string::npos);
  EXPECT_NE(body.find("\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(body.find("\"type\":\"gauge\""), std::string::npos);
  EXPECT_NE(body.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(body.find("\"upper_bounds\":[1,10]"), std::string::npos);
  EXPECT_NE(body.find("\"counts\":[0,1,0]"), std::string::npos);
}

// -------------------------------------------------------- Chrome export

obs::TraceSession golden_session() {
  obs::TraceSession s;
  s.host_threads = 1;
  s.dropped = 2;
  obs::CompletedSpan host;
  host.name = "chem block";
  host.category = PhaseCategory::Chemistry;
  host.thread = 0;
  host.hour = 3;
  host.start_ns = 1000;
  host.end_ns = 3500;
  s.host.push_back(host);
  s.virt.push_back(obs::VirtualSpan{"transport", PhaseCategory::Transport,
                                    /*node=*/-1, /*hour=*/0, 0.25, 0.5});
  s.virt.push_back(obs::VirtualSpan{"chemistry", PhaseCategory::Chemistry,
                                    /*node=*/1, /*hour=*/0, 1.0, 0.125});
  return s;
}

TEST(ObsExport, ChromeTraceGolden) {
  const std::string expected =
      "{\"displayTimeUnit\":\"ms\","
      "\"otherData\":{\"dropped_spans\":2},"
      "\"traceEvents\":["
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"host\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"host thread 0\"}},"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
      "\"args\":{\"name\":\"fxsim virtual machine\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,"
      "\"args\":{\"name\":\"barrier (all nodes)\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":2,"
      "\"args\":{\"name\":\"node 1\"}},"
      "{\"name\":\"chem block\",\"cat\":\"chemistry\",\"ph\":\"X\","
      "\"pid\":1,\"tid\":0,\"ts\":1,\"dur\":2.5,\"args\":{\"hour\":3}},"
      "{\"name\":\"transport\",\"cat\":\"transport\",\"ph\":\"X\","
      "\"pid\":2,\"tid\":0,\"ts\":250000,\"dur\":500000,"
      "\"args\":{\"hour\":0}},"
      "{\"name\":\"chemistry\",\"cat\":\"chemistry\",\"ph\":\"X\","
      "\"pid\":2,\"tid\":2,\"ts\":1000000,\"dur\":125000,"
      "\"args\":{\"hour\":0,\"node\":1}}"
      "]}";
  EXPECT_EQ(obs::chrome_trace_json(golden_session()), expected);
}

TEST(ObsExport, EmptySessionIsStillValidJson) {
  const std::string body = obs::chrome_trace_json(obs::TraceSession{});
  EXPECT_EQ(body,
            "{\"displayTimeUnit\":\"ms\","
            "\"otherData\":{\"dropped_spans\":0},\"traceEvents\":[]}");
}

// ------------------------------------------------------ durable container

TEST(ObsExport, ContainerRoundTripsEveryField) {
  const std::string path =
      testing::TempDir() + "/obs_roundtrip_trace.obs";
  const obs::TraceSession in = golden_session();
  obs::save_trace_container(path, in);

  const obs::TraceSession out = obs::load_trace_container(path);
  EXPECT_EQ(out.host_threads, in.host_threads);
  EXPECT_EQ(out.dropped, in.dropped);
  ASSERT_EQ(out.host.size(), in.host.size());
  EXPECT_EQ(out.host[0].name, in.host[0].name);
  EXPECT_EQ(out.host[0].category, in.host[0].category);
  EXPECT_EQ(out.host[0].thread, in.host[0].thread);
  EXPECT_EQ(out.host[0].hour, in.host[0].hour);
  EXPECT_EQ(out.host[0].node, in.host[0].node);
  EXPECT_EQ(out.host[0].start_ns, in.host[0].start_ns);
  EXPECT_EQ(out.host[0].end_ns, in.host[0].end_ns);
  ASSERT_EQ(out.virt.size(), in.virt.size());
  for (std::size_t i = 0; i < in.virt.size(); ++i) {
    EXPECT_EQ(out.virt[i].name, in.virt[i].name);
    EXPECT_EQ(out.virt[i].category, in.virt[i].category);
    EXPECT_EQ(out.virt[i].node, in.virt[i].node);
    EXPECT_EQ(out.virt[i].hour, in.virt[i].hour);
    EXPECT_EQ(out.virt[i].start_s, in.virt[i].start_s);
    EXPECT_EQ(out.virt[i].dur_s, in.virt[i].dur_s);
  }
  std::remove(path.c_str());
}

TEST(ObsExport, ContainerDetectsCorruption) {
  const std::string path = testing::TempDir() + "/obs_corrupt_trace.obs";
  obs::save_trace_container(path, golden_session());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(80);
    char c;
    f.seekg(80);
    f.get(c);
    f.seekp(80);
    f.put(static_cast<char>(c ^ 0x40));
  }
  EXPECT_THROW(obs::load_trace_container(path), durable::StorageError);
  std::remove(path.c_str());
}

// --------------------------------------------- model + executor threading

ModelRunResult run_test_model(int host_threads, obs::TraceRecorder* rec) {
  ModelOptions opts;
  opts.hours = 2;
  opts.host_threads = host_threads;
  opts.oversubscribe = true;  // keep real multi-thread coverage on small hosts
  opts.trace = rec;
  return AirshedModel(test_basin_dataset(), opts).run();
}

std::uint64_t outputs_checksum(const ModelRunResult& r) {
  std::uint64_t h = fnv1a(r.outputs.conc.flat());
  return fnv1a(std::span<const double>(r.outputs.pm.flat()), h);
}

TEST(ObsIntegration, InstrumentedRunIsBitIdentical) {
  const std::uint64_t bare = outputs_checksum(run_test_model(2, nullptr));
  obs::TraceRecorder rec(2);
  const std::uint64_t traced = outputs_checksum(run_test_model(2, &rec));
  EXPECT_EQ(bare, traced);

  const obs::TraceSession s = rec.drain();
  EXPECT_EQ(s.dropped, 0u);
  ASSERT_FALSE(s.host.empty());
  // Every model phase family shows up, tagged with a valid hour and a
  // thread index inside the pool.
  bool saw_input = false, saw_layer = false, saw_chem = false,
       saw_aerosol = false;
  for (const obs::CompletedSpan& sp : s.host) {
    EXPECT_GE(sp.end_ns, sp.start_ns);
    EXPECT_GE(sp.thread, 0);
    EXPECT_LT(sp.thread, 2);
    EXPECT_GE(sp.hour, -1);
    EXPECT_LT(sp.hour, 2);
    saw_input |= sp.name == "inputhour";
    saw_layer |= sp.name == "transport layer";
    saw_chem |= sp.name == "chem block" || sp.name == "chemistry Lcz";
    saw_aerosol |= sp.name == "aerosol";
  }
  EXPECT_TRUE(saw_input);
  EXPECT_TRUE(saw_layer);
  EXPECT_TRUE(saw_chem);
  EXPECT_TRUE(saw_aerosol);
}

TEST(ObsIntegration, HostSpanSequenceIsDeterministicAcrossRuns) {
  // Span content is deterministic per item: the same spans (name, category,
  // hour) every run. Which lane a pool item's spans land on depends on
  // which thread claimed the item, so lanes are compared as one multiset.
  using Key = std::tuple<std::string, int, int>;
  auto sequence = [](obs::TraceSession s) {
    std::vector<Key> keys;
    keys.reserve(s.host.size());
    for (const obs::CompletedSpan& sp : s.host) {
      EXPECT_LT(sp.thread, 2);
      keys.emplace_back(sp.name, static_cast<int>(sp.category), sp.hour);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  obs::TraceRecorder a(2), b(2);
  run_test_model(2, &a);
  run_test_model(2, &b);
  EXPECT_EQ(sequence(a.drain()), sequence(b.drain()));
}

const WorkTrace& shared_trace() {
  static const WorkTrace trace = run_test_model(0, nullptr).trace;
  return trace;
}

std::vector<obs::VirtualSpan> timeline_for(const ExecutionConfig& base,
                                           int host_threads) {
  obs::VirtualTimeline tl;
  ExecutionConfig cfg = base;
  cfg.host_threads = host_threads;
  cfg.timeline = &tl;
  simulate_execution(shared_trace(), cfg);
  return tl.take();
}

void expect_identical_timelines(const std::vector<obs::VirtualSpan>& a,
                                const std::vector<obs::VirtualSpan>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name) << "span " << i;
    EXPECT_EQ(a[i].category, b[i].category) << "span " << i;
    EXPECT_EQ(a[i].node, b[i].node) << "span " << i;
    EXPECT_EQ(a[i].hour, b[i].hour) << "span " << i;
    // Bit-equality, not tolerance: the timeline must be byte-stable.
    EXPECT_EQ(a[i].start_s, b[i].start_s) << "span " << i;
    EXPECT_EQ(a[i].dur_s, b[i].dur_s) << "span " << i;
  }
}

TEST(ObsIntegration, VirtualTimelineBitIdenticalAcrossHostThreads) {
  ExecutionConfig cfg;
  cfg.machine = intel_paragon();
  cfg.nodes = 8;
  const std::vector<obs::VirtualSpan> base = timeline_for(cfg, 1);
  ASSERT_FALSE(base.empty());
  expect_identical_timelines(base, timeline_for(cfg, 4));

  bool any_barrier = false, any_node = false;
  for (const obs::VirtualSpan& s : base) {
    any_barrier |= s.node < 0;
    any_node |= s.node >= 0;
    EXPECT_GE(s.dur_s, 0.0);
    EXPECT_GE(s.start_s, 0.0);
  }
  EXPECT_TRUE(any_barrier);
  EXPECT_TRUE(any_node);  // per_node defaults to true
}

TEST(ObsIntegration, FaultyTimelineDeterministicAndCarriesRecoverySpans) {
  FaultModelOptions fopts;
  fopts.node_mtbf_hours = 20.0;
  fopts.slowdown_probability = 0.2;
  FaultPlan plan;
  const int hours = static_cast<int>(shared_trace().hours.size());
  for (std::uint64_t seed = 1; seed < 200; ++seed) {
    plan = FaultPlan::make(seed, 8, hours, fopts);
    if (plan.has_failures()) break;
  }
  ASSERT_TRUE(plan.has_failures()) << "no failing seed in 200 draws";

  ExecutionConfig cfg;
  cfg.machine = intel_paragon();
  cfg.nodes = 8;
  cfg.faults = plan;
  cfg.checkpoint.interval_hours = 1;
  const std::vector<obs::VirtualSpan> base = timeline_for(cfg, 1);
  expect_identical_timelines(base, timeline_for(cfg, 4));

  bool any_recovery = false;
  for (const obs::VirtualSpan& s : base) {
    any_recovery |= s.category == PhaseCategory::Recovery;
  }
  EXPECT_TRUE(any_recovery);
}

TEST(ObsIntegration, TimelineDoesNotChangeTheReport) {
  ExecutionConfig cfg;
  cfg.machine = intel_paragon();
  cfg.nodes = 8;
  cfg.host_threads = 1;
  const RunReport bare = simulate_execution(shared_trace(), cfg);
  obs::VirtualTimeline tl;
  cfg.timeline = &tl;
  const RunReport traced = simulate_execution(shared_trace(), cfg);
  EXPECT_EQ(bare.total_seconds, traced.total_seconds);
  EXPECT_EQ(bare.comm.phases, traced.comm.phases);
}

TEST(ObsIntegration, VaultOperationsRecordRecoverySpans) {
  ModelOptions opts;
  opts.hours = 1;
  opts.host_threads = 1;
  CheckpointRecord last;
  AirshedModel(test_basin_dataset(), opts)
      .run_with_checkpoints(
          [&](const CheckpointRecord& rec) { last = rec; });

  const std::string dir = testing::TempDir() + "/obs_vault_test";
  CheckpointVault vault(dir, "test");
  obs::TraceRecorder rec(1);
  vault.set_observer(&rec);
  vault.append(last);
  vault.restore_newest_valid();

  const obs::TraceSession s = rec.drain();
  ASSERT_EQ(s.host.size(), 2u);
  EXPECT_EQ(s.host[0].name, "vault append");
  EXPECT_EQ(s.host[0].category, PhaseCategory::Recovery);
  EXPECT_EQ(s.host[1].name, "vault verify+restore");
}

TEST(ObsIntegration, RecordMetricsFlattensAReport) {
  ExecutionConfig cfg;
  cfg.machine = intel_paragon();
  cfg.nodes = 8;
  cfg.host_threads = 1;
  const RunReport report = simulate_execution(shared_trace(), cfg);
  obs::MetricsRegistry registry;
  record_metrics(registry, report);
  EXPECT_DOUBLE_EQ(registry.gauge("sim/total_seconds", "").value(),
                   report.total_seconds);
  EXPECT_DOUBLE_EQ(
      registry.gauge("phase/chemistry/seconds", "").value(),
      report.ledger.category_seconds(PhaseCategory::Chemistry));
  // Fault-free report: no recovery/* metrics (the phase/recovery/* gauges
  // from the category sweep are always present; the recovery/ namespace
  // only appears when the report carries recovery events).
  const std::string body = obs::metrics_json(registry, "r");
  EXPECT_EQ(body.find("\"name\":\"recovery/"), std::string::npos);
}

}  // namespace
}  // namespace airshed
