// Tests for airshed::city — the seeded procedural scenario generator: the
// "city:" spec codec (round-trip, named errors), bit-exact determinism of
// the generation pipeline, per-layer salt isolation (perturbing one salt
// regenerates exactly one layer; road/diurnal salts preserve the shared
// dataset base), the golden small-city inventory snapshot, and the svc
// integration property: a generated-city batch produces byte-identical
// archives at 1, 2 and 8 threads and across a SIGKILL + journal resume.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "airshed/city/generator.hpp"
#include "airshed/city/options.hpp"
#include "airshed/durable/container.hpp"
#include "airshed/durable/journal.hpp"
#include "airshed/fault/killpoint.hpp"
#include "airshed/io/dataset.hpp"
#include "airshed/svc/input_cache.hpp"
#include "airshed/svc/journal.hpp"
#include "airshed/svc/scenario.hpp"
#include "airshed/svc/supervisor.hpp"
#include "airshed/util/error.hpp"
#include "airshed/util/hash.hpp"

namespace airshed {
namespace {

namespace fs = std::filesystem;
using city::CityModel;
using city::CityOptions;
using city::CitySummary;
using city::LandUse;

// ---------------------------------------------------------------- helpers

std::uint64_t doubles_digest(std::span<const double> v,
                             std::uint64_t h = kFnvOffset) {
  return fnv1a(v, h);
}

/// Bit-exact digest over every layer of a generated city.
std::uint64_t model_digest(const CityModel& m) {
  std::uint64_t h = kFnvOffset;
  for (LandUse u : m.landuse) h = fnv1a(static_cast<std::uint64_t>(u), h);
  for (const city::RoadSegment& r : m.roads) {
    h = fnv1a(static_cast<std::uint64_t>(r.x), h);
    h = fnv1a(static_cast<std::uint64_t>(r.y), h);
    h = fnv1a(static_cast<std::uint64_t>(r.horizontal), h);
    h = fnv1a(static_cast<std::uint64_t>(r.road_class), h);
    h = fnv1a(r.traffic, h);
  }
  h = doubles_digest(m.block_traffic, h);
  for (const CitySpec& c : m.cores) {
    h = fnv1a(c.center.x, h);
    h = fnv1a(c.center.y, h);
    h = fnv1a(c.radius_km, h);
    h = fnv1a(c.strength, h);
  }
  for (const PointSource& s : m.stacks) {
    h = fnv1a(s.location.x, h);
    h = fnv1a(s.location.y, h);
    h = fnv1a(static_cast<std::uint64_t>(s.layer), h);
    h = fnv1a(static_cast<std::uint64_t>(s.species), h);
    h = fnv1a(s.rate_ppm_m_min, h);
  }
  h = fnv1a(m.met.ambient_wind_kmh, h);
  h = fnv1a(m.met.eddy_wind_kmh, h);
  h = fnv1a(m.met.sea_breeze_fraction, h);
  h = fnv1a(m.met.t_mean_k, h);
  h = fnv1a(m.met.latitude_deg, h);
  h = fnv1a(static_cast<std::uint64_t>(m.met.day_of_year), h);
  return h;
}

/// Bit-exact digest over the lowered emission overlay.
std::uint64_t field_digest(const AreaSourceField& f) {
  std::uint64_t h = kFnvOffset;
  h = doubles_digest(f.nox, h);
  h = doubles_digest(f.voc, h);
  h = doubles_digest(f.co, h);
  h = doubles_digest(f.so2, h);
  h = doubles_digest(f.nh3, h);
  h = doubles_digest(f.traffic_frac, h);
  h = doubles_digest(f.vegetation, h);
  h = fnv1a(f.rush_am_hour, h);
  h = fnv1a(f.rush_pm_hour, h);
  h = fnv1a(f.rush_width_h, h);
  h = fnv1a(f.rush_amplitude, h);
  return h;
}

std::uint64_t mesh_digest(const TriMesh& mesh) {
  const std::span<const Point2> pts = mesh.points();
  return fnv1a_bytes(std::string_view(
      reinterpret_cast<const char*>(pts.data()), pts.size() * sizeof(Point2)));
}

/// A small, fast city for the unit tests.
CityOptions tiny_city() {
  CityOptions o;
  o.seed = 11;
  o.blocks_x = 16;
  o.blocks_y = 16;
  o.target_points = 90;
  o.max_level = 2;
  o.layers = 3;
  return o;
}

// --------------------------------------------------------------- the codec

TEST(CitySpecCodec, RoundTripsNonDefaultOptions) {
  CityOptions o;
  o.seed = 99;
  o.name = "GOTHAM";
  o.blocks_x = 32;
  o.block_km = 2.25;
  o.industrial_fraction = 0.3;
  o.highways = 3;
  o.traffic_demand = 1.7;
  o.max_cores = 2;
  o.target_points = 250;
  o.road_salt = 7;

  const std::string spec = city::format_city_spec(o);
  EXPECT_EQ(spec.rfind("city:", 0), 0u);
  const CityOptions back = city::parse_city_spec(spec);
  EXPECT_EQ(back, o);
  // The canonical form is a fixed point of the codec.
  EXPECT_EQ(city::format_city_spec(back), spec);
}

TEST(CitySpecCodec, DefaultsAndScheme) {
  EXPECT_TRUE(city::is_city_spec("city:"));
  EXPECT_TRUE(city::is_city_spec("city:seed=3"));
  EXPECT_FALSE(city::is_city_spec("LA"));
  EXPECT_FALSE(city::is_city_spec("metropolis"));

  // Empty body = the default city; the bare key=value list also parses.
  EXPECT_EQ(city::parse_city_spec("city:"), CityOptions{});
  EXPECT_EQ(city::parse_city_spec("seed=5").seed, 5u);
  EXPECT_EQ(CityOptions{}.resolved_name(), "CITY-s1");
  CityOptions named;
  named.name = "ISOCITY";
  EXPECT_EQ(named.resolved_name(), "ISOCITY");
}

TEST(CitySpecCodec, ErrorsNameTheOffendingKey) {
  try {
    city::parse_city_spec("city:seed=1,boroughs=5");
    FAIL() << "unknown key accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("boroughs"), std::string::npos);
  }
  try {
    city::parse_city_spec("city:bx=tall");
    FAIL() << "malformed value accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("bx"), std::string::npos);
  }
  EXPECT_THROW(city::parse_city_spec("city:bx=2"), ConfigError);   // range
  EXPECT_THROW(city::parse_city_spec("city:name=a b"), ConfigError);
  EXPECT_THROW(city::parse_city_spec("city:seed"), ConfigError);   // bare token
}

// ----------------------------------------------------------- determinism

TEST(CityGenerator, PureInOptions) {
  const CityOptions o = tiny_city();
  const CityModel a = city::generate_city(o);
  const CityModel b = city::generate_city(o);
  EXPECT_EQ(model_digest(a), model_digest(b));
  EXPECT_EQ(field_digest(*city::lower_emissions(a)),
            field_digest(*city::lower_emissions(b)));
  EXPECT_EQ(a.roads, b.roads);
}

TEST(CityGenerator, DatasetBaseBuildsByteIdentically) {
  const DatasetSpec spec = city::city_dataset_spec(tiny_city());
  const auto base_a = build_dataset_base(spec);
  const auto base_b = build_dataset_base(spec);
  EXPECT_EQ(mesh_digest(base_a->mesh), mesh_digest(base_b->mesh));
  EXPECT_EQ(base_a->mesh.vertex_count(), base_b->mesh.vertex_count());
}

TEST(CityGenerator, EveryLandUseClassPresentByDefault) {
  const CityModel m = city::generate_city(CityOptions{});
  const CitySummary s = city::summarize(m);
  EXPECT_GT(s.industrial_blocks, 0u);
  EXPECT_GT(s.commercial_blocks, 0u);
  EXPECT_GT(s.residential_blocks, 0u);
  EXPECT_GE(s.cores, 1u);
  EXPECT_EQ(s.stacks, 3u);
  EXPECT_GT(s.highway_segments, 0u);
  EXPECT_GT(s.arterial_segments, 0u);
  EXPECT_GT(s.nox_flux_rush, 0.0);
}

// -------------------------------------------------------- salt isolation

TEST(CitySalts, RoadSaltMovesOnlyTrafficAndKeepsTheBase) {
  CityOptions base = tiny_city();
  CityOptions salted = base;
  salted.road_salt = 1;

  const CityModel a = city::generate_city(base);
  const CityModel b = city::generate_city(salted);

  EXPECT_EQ(a.landuse, b.landuse);        // districts untouched
  EXPECT_NE(a.roads, b.roads);            // traffic realization moved
  EXPECT_EQ(model_digest(a) == model_digest(b), false);

  // Refinement cores, stacks and met are road-independent, so the two
  // variants resolve to the SAME dataset base (one cache entry, one mesh).
  const DatasetSpec spec_a = city::city_dataset_spec(base);
  const DatasetSpec spec_b = city::city_dataset_spec(salted);
  EXPECT_EQ(dataset_base_digest(spec_a), dataset_base_digest(spec_b));

  // Only the emission overlay differs.
  EXPECT_NE(field_digest(*spec_a.area_sources),
            field_digest(*spec_b.area_sources));
}

TEST(CitySalts, DiurnalSaltMovesOnlyTheRushProfile) {
  CityOptions base = tiny_city();
  CityOptions salted = base;
  salted.diurnal_salt = 1;

  const CityModel a = city::generate_city(base);
  const CityModel b = city::generate_city(salted);
  EXPECT_EQ(model_digest(a), model_digest(b));  // city layout untouched

  const auto fa = city::lower_emissions(a);
  const auto fb = city::lower_emissions(b);
  EXPECT_EQ(fa->nox, fb->nox);  // rasters untouched
  EXPECT_EQ(fa->traffic_frac, fb->traffic_frac);
  EXPECT_NE(fa->rush_am_hour, fb->rush_am_hour);  // profile moved

  EXPECT_EQ(dataset_base_digest(city::city_dataset_spec(base)),
            dataset_base_digest(city::city_dataset_spec(salted)));
}

TEST(CitySalts, DistrictSaltRebuildsTheCity) {
  CityOptions base = tiny_city();
  CityOptions salted = base;
  salted.district_salt = 1;

  const CityModel a = city::generate_city(base);
  const CityModel b = city::generate_city(salted);
  EXPECT_NE(a.landuse, b.landuse);
  // Districts move the refinement cores, so the base digest changes too.
  EXPECT_NE(dataset_base_digest(city::city_dataset_spec(base)),
            dataset_base_digest(city::city_dataset_spec(salted)));
  // Met is derived from the master seed only: shared even here.
  EXPECT_EQ(fnv1a(a.met.ambient_wind_kmh), fnv1a(b.met.ambient_wind_kmh));
  EXPECT_EQ(a.met.day_of_year, b.met.day_of_year);
}

// ------------------------------------------------------- golden snapshot

/// Golden digest of the tiny city's lowered inventory. This pins the whole
/// pipeline — district growth, traffic, speciation weights, diurnal jitter
/// — bit for bit; any intentional generator change must update the
/// constant (and bumps every cached city base in the wild, which is the
/// point of the check).
TEST(CityGolden, TinyCityInventorySnapshot) {
  const auto field = city::lower_emissions(city::generate_city(tiny_city()));
  EXPECT_EQ(hash_hex(field_digest(*field)), "80f1eabfc4d8e1d9");
}

// --------------------------------------------------------- svc dispatch

TEST(CityScenario, ScenarioDatasetSpecDispatchesCitySpecs) {
  svc::ScenarioSpec s;
  s.dataset = city::format_city_spec(tiny_city());
  s.controls.nox_scale = 0.5;
  s.emission_perturbation = 1.1;
  const DatasetSpec spec = svc::scenario_dataset_spec(s);
  EXPECT_EQ(spec.name, "CITY-s11");
  EXPECT_NE(spec.area_sources, nullptr);
  EXPECT_DOUBLE_EQ(spec.controls.nox_scale, 0.5 * 1.1);

  svc::ScenarioSpec bad;
  bad.dataset = "city:bx=nope";
  EXPECT_THROW(svc::scenario_dataset_spec(bad), ConfigError);
  bad.dataset = "METROPOLIS";
  EXPECT_THROW(svc::scenario_dataset_spec(bad), ConfigError);
}

TEST(CityScenario, SharedInputCacheSharesSaltedVariants) {
  svc::SharedInputCache cache;
  svc::ScenarioSpec a;
  a.dataset = city::format_city_spec(tiny_city());
  CityOptions salted = tiny_city();
  salted.road_salt = 3;
  svc::ScenarioSpec b;
  b.id = 1;
  b.dataset = city::format_city_spec(salted);

  const Dataset da = svc::build_scenario_dataset(a, false, &cache);
  const Dataset db = svc::build_scenario_dataset(b, false, &cache);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(da.base.get(), db.base.get());  // literally the same mesh
  // ... under different emission overlays.
  EXPECT_NE(field_digest(*da.emissions.area_sources()),
            field_digest(*db.emissions.area_sources()));
}

// ------------------------------------------------------- svc integration

class CityBatchDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("airshed_city_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

svc::JobMixOptions city_mix(int scenarios) {
  svc::JobMixOptions mix;
  mix.scenarios = scenarios;
  mix.dataset = city::format_city_spec([] {
    CityOptions o;
    o.seed = 11;
    o.blocks_x = 12;
    o.blocks_y = 12;
    o.target_points = 70;
    o.max_level = 2;
    o.layers = 3;
    return o;
  }());
  mix.hours_min = 1;
  mix.hours_max = 2;
  return mix;
}

std::map<std::string, std::string> archive_bytes(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name == "batch.journal") continue;
    out[name] = durable::read_file_bytes(e.path().string());
  }
  return out;
}

/// A generated-city batch through the full throughput engine — shared
/// inputs and fair-share scheduling — is byte-identical at
/// 1, 2 and 8 threads, and the whole batch shares ONE dataset base.
TEST_F(CityBatchDir, ByteIdenticalAcrossThreadsWithFullThroughputEngine) {
  const auto specs = svc::make_job_mix(21, city_mix(4));

  std::map<std::string, std::string> reference;
  for (int threads : {1, 2, 8}) {
    svc::BatchOptions opts;
    opts.batch_seed = 21;
    opts.threads = threads;
    opts.share_inputs = true;
    opts.schedule = svc::Schedule::Fair;
    opts.archive_dir = path("archive_t" + std::to_string(threads));

    const svc::BatchReport report = svc::BatchSupervisor(opts).run(specs);
    EXPECT_EQ(report.completed, 4);
    EXPECT_EQ(report.input_cache_misses, 1) << "threads " << threads;
    EXPECT_EQ(report.input_cache_hits, 3) << "threads " << threads;

    const auto files = archive_bytes(opts.archive_dir);
    EXPECT_FALSE(files.empty());
    if (reference.empty()) {
      reference = files;
    } else {
      EXPECT_EQ(files, reference) << "threads " << threads;
    }
  }
}

/// SIGKILL mid-batch, then journal-resume: the archive is byte-identical
/// to an uninterrupted run — the city spec string survives the journal
/// header round-trip and regenerates the identical dataset.
TEST_F(CityBatchDir, SigkillThenResumeIsByteIdentical) {
  const auto specs = svc::make_job_mix(21, city_mix(3));

  auto journaled = [&](const std::string& dir) {
    svc::BatchOptions opts;
    opts.batch_seed = 21;
    opts.threads = 1;
    opts.archive_dir = dir;
    opts.journal_path = dir + "/batch.journal";
    return opts;
  };

  const std::string ref_dir = path("ref");
  svc::BatchSupervisor(journaled(ref_dir)).run(specs);
  const auto ref_files = archive_bytes(ref_dir);
  const std::uint64_t frames =
      svc::BatchJournal::replay(ref_dir + "/batch.journal").raw.records.size();
  ASSERT_GT(frames, 2u);

  // Kill after an early and a late journal append (the exhaustive per-
  // boundary sweep lives in svc_test; this drills the city-spec round-trip).
  for (std::uint64_t k : {std::uint64_t{1}, frames - 2}) {
    const std::string dir = path("crash_" + std::to_string(k));
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      fault::arm_kill_point(k, durable::JournalKillAction::KillAfter);
      try {
        svc::BatchSupervisor(journaled(dir)).run(specs);
      } catch (...) {
        _exit(3);
      }
      _exit(0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "kill point " << k << " did not fire";

    svc::BatchOptions opts = journaled(dir);
    opts.threads = k % 2 == 0 ? 2 : 1;
    opts.resume = svc::BatchJournal::replay(dir + "/batch.journal").existed;
    const svc::BatchReport report = svc::BatchSupervisor(opts).run(specs);
    EXPECT_EQ(report.resumed, opts.resume);
    EXPECT_EQ(archive_bytes(dir), ref_files) << "kill point " << k;
  }
}

}  // namespace
}  // namespace airshed
