// Batch workloads: one caller submits a whole batch to svc::BatchSupervisor
// and waits for it (closed loop), 4 svc threads, shared inputs and resident
// engines on, write-ahead journal and durable archive in a scratch dir.
//
//   la-batch    LA job mix, fixed heavy-tailed episode lengths, fair
//               schedule, no chaos: one round, one base build
//   city-chaos  many short scenarios over generated city variants (several
//               distinct bases, salted variants sharing them) under chaos:
//               retries, a poisoned scenario forced to a degraded rerun
//
// Every batch's canonical report and per-scenario checksums must equal a
// threads = 1 reference batch of the same seed, and every archive
// container, the manifest and the journal must read back intact.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <numeric>

#include <airshed/util/rng.hpp>

#include "common.hpp"

namespace perfbench {
namespace {

using namespace airshed;
namespace fs = std::filesystem;

/// Chaos schedule seed of city-chaos. Faults are pure in (batch seed,
/// scenario, attempt); holding it fixed makes the same attempts fault under
/// every workload seed, so the retry work — and the makespan — stays
/// comparable across seeds while the seed varies the cities and controls.
constexpr std::uint64_t kChaosSeed = 1998;

struct Plan {
  std::vector<svc::ScenarioSpec> specs;
  svc::BatchOptions opts;
  std::vector<city::CityOptions> cities;  ///< distinct generated cities
};

Plan la_batch_plan(const Args& a) {
  Plan p;
  svc::JobMixOptions mix = job_mix(a.smoke ? 4 : 8);
  mix.dataset = a.smoke ? "TEST" : "LA";
  mix.hours_min = 1;
  mix.hours_max = a.smoke ? 2 : 4;
  p.specs = svc::make_job_mix(a.seed, mix);
  // Fixed multiset of heavy-tailed lengths, dealt to scenarios by the seed.
  std::vector<int> hours = stratified_hours(mix.scenarios, mix.hours_min,
                                            mix.hours_max, mix.hours_alpha);
  Rng rng(a.seed ^ 0x6c612d6261746368ull);
  for (std::size_t i = hours.size(); i > 1; --i) {
    std::swap(hours[i - 1], hours[rng.uniform_index(i)]);
  }
  for (std::size_t i = 0; i < hours.size(); ++i) p.specs[i].hours = hours[i];
  p.opts.batch_seed = a.seed;
  p.opts.schedule = svc::Schedule::Fair;
  return p;
}

Plan city_chaos_plan(const Args& a) {
  Plan p;
  const int n = a.smoke ? 8 : 24;
  svc::JobMixOptions mix = job_mix(n);
  p.specs = svc::make_job_mix(a.seed, mix);  // names, controls, perturbations
  const std::vector<int> hours = stratified_hours(n, 1, 3, mix.hours_alpha);

  // Two generated cities x two district salts = four distinct bases, the
  // same under every seed so that the mesh work is too; the seed's road and
  // diurnal salts make per-scenario emission variants that share them.
  for (int b = 0; b < 4; ++b) {
    city::CityOptions o;
    o.seed = 1 + static_cast<std::uint64_t>(b / 2);
    o.district_salt = static_cast<std::uint64_t>(b % 2);
    o.blocks_x = o.blocks_y = 16;
    o.target_points = 32;
    o.max_level = 2;
    o.layers = 2;
    o.max_cores = 2;
    o.stack_count = 2;
    p.cities.push_back(o);
  }
  Rng rng(a.seed ^ 0x636974792d636861ull);
  for (int i = 0; i < n; ++i) {
    city::CityOptions v = p.cities[static_cast<std::size_t>(i % 4)];
    v.road_salt = rng.uniform_index(1u << 20);
    v.diurnal_salt = rng.uniform_index(1u << 20);
    p.specs[static_cast<std::size_t>(i)].dataset = city::format_city_spec(v);
    // A fixed interleave of the stratified lengths over the id order that
    // the fifo schedule deals out in contiguous blocks.
    p.specs[static_cast<std::size_t>(i)].hours =
        hours[static_cast<std::size_t>((i * 5) % n)];
  }

  p.opts.batch_seed = kChaosSeed;
  p.opts.schedule = svc::Schedule::Fifo;
  p.opts.max_attempts = 2;
  svc::ChaosOptions& c = p.opts.chaos;
  c.node_death = 0.06;
  c.straggler = 0.06;
  c.storage_fault = 0.05;
  c.payload_corruption = 0.05;
  c.numerics = 0.04;
  c.hang = 0.03;
  c.poison_scenarios = {1};
  return p;
}

/// Everything set-up produces: the plan and per-scenario cell counts.
struct Prepared {
  Plan plan;
  std::vector<double> fine_cells;      ///< mesh points x layers
  std::vector<double> degraded_cells;  ///< coarse uniform fallback grid
  double generate_s = 0.0;             ///< city::generate_city calls
  double build_s = 0.0;                ///< svc::build_scenario_dataset calls
};

Prepared prepare(const Args& a) {
  Prepared pr;
  pr.plan = a.workload == "la-batch" ? la_batch_plan(a) : city_chaos_plan(a);
  svc::BatchOptions& o = pr.plan.opts;
  o.share_inputs = true;
  o.resident = true;
  pr.generate_s = timed([&] {
    for (const city::CityOptions& c : pr.plan.cities) {
      const city::CitySummary s = city::summarize(city::generate_city(c));
      AIRSHED_REQUIRE(s.cores >= 1, "generated city has no refinement core");
    }
  });
  pr.build_s = timed([&] {
    svc::SharedInputCache cache;
    for (const svc::ScenarioSpec& s : pr.plan.specs) {
      const Dataset ds = svc::build_scenario_dataset(s, false, &cache);
      pr.fine_cells.push_back(static_cast<double>(ds.points()) * ds.layers());
      pr.degraded_cells.push_back(static_cast<double>(o.degrade_nx) *
                                  static_cast<double>(o.degrade_ny) *
                                  ds.layers());
    }
  });
  return pr;
}

/// One executed batch and what read-back found.
struct BatchRun {
  svc::BatchReport report;
  double wall_s = 0.0;
  double verify_s = 0.0;
  std::vector<bool> readback;  ///< per scenario: committed artifact intact
  std::vector<std::string> errors;
  double archive_bytes = 0.0;
  double archive_files = 0.0;
  double journal_bytes = 0.0;
};

std::string artifact_path(const std::string& archive_dir,
                          const std::string& file) {
  return fs::path(file).is_absolute() ? file : archive_dir + "/" + file;
}

BatchRun run_once(const Plan& plan, int threads, const std::string& dir,
                  obs::TraceRecorder* rec, const std::string& tamper) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  svc::BatchOptions opts = plan.opts;
  opts.threads = threads;
  opts.archive_dir = dir + "/archive";
  opts.journal_path = dir + "/batch.journal";
  opts.trace = rec;
  svc::BatchSupervisor sup(opts);

  BatchRun r;
  r.wall_s = timed([&] { r.report = sup.run(plan.specs); });

  svc::ScenarioResult& first = r.report.results.front();
  if (tamper == "digest") {
    first.checksum.back() = first.checksum.back() == '0' ? '1' : '0';
  } else if (tamper == "truncate") {
    const std::string path = artifact_path(opts.archive_dir, first.archive_file);
    fs::resize_file(path, fs::file_size(path) / 2);
  }

  // Read-back: every committed artifact against its reported checksum,
  // every other container in the archive (quarantined *.corrupt evidence
  // excluded), the manifest and the sealed journal.
  r.verify_s = timed([&] {
    for (const svc::ScenarioResult& res : r.report.results) {
      bool ok = false;
      if (!res.archive_file.empty()) {
        try {
          const auto stored = svc::BatchArchive::read_result(
              artifact_path(opts.archive_dir, res.archive_file));
          ok = hash_hex(stored.checksum) == res.checksum &&
               stored.spec == res.spec;
        } catch (const Error&) {
        }
      }
      r.readback.push_back(ok);
    }
    for (const fs::directory_entry& e : fs::directory_iterator(opts.archive_dir)) {
      const std::string name = e.path().filename().string();
      r.archive_bytes += static_cast<double>(e.file_size());
      r.archive_files += 1.0;
      if (name.find(".corrupt") != std::string::npos) continue;
      try {
        (void)durable::ContainerReader::read_file(e.path().string());
      } catch (const Error& err) {
        r.errors.push_back(std::string("archive container unreadable: ") +
                           err.what());
      }
    }
    try {
      const auto manifest = svc::BatchArchive(opts.archive_dir).read_manifest();
      if (manifest.entries.size() != plan.specs.size()) {
        r.errors.push_back("manifest entry count differs from the batch");
      }
      if (!svc::BatchJournal::replay(opts.journal_path).sealed) {
        r.errors.push_back("journal not sealed");
      }
    } catch (const Error& err) {
      r.errors.push_back(std::string("manifest/journal unreadable: ") +
                         err.what());
    }
  });
  r.journal_bytes = static_cast<double>(fs::file_size(opts.journal_path));
  fs::remove_all(dir);
  return r;
}

struct SpanRec {
  int thread = 0;
  int id = -1;
  double start = 0.0, end = 0.0;
  double dur() const { return end - start; }
};

/// Makespan of LPT (longest first onto the least-loaded lane).
double lpt_makespan(std::vector<double> durations, int lanes) {
  std::sort(durations.rbegin(), durations.rend());
  std::vector<double> load(static_cast<std::size_t>(lanes), 0.0);
  for (double d : durations) *std::min_element(load.begin(), load.end()) += d;
  return *std::max_element(load.begin(), load.end());
}

/// svc/io/durable metrics of one traced batch, plus the attribution terms
/// (attr.*) and the critical-lane line.
std::map<std::string, double> batch_metrics(const Plan& plan,
                                            const BatchRun& r,
                                            const obs::TraceSession& s,
                                            std::string& lane_line) {
  std::vector<SpanRec> attempts, blocks;
  std::vector<int> block_round;
  for (const obs::CompletedSpan& sp : s.host) {
    SpanRec rec{sp.thread, sp.node, 1e-9 * static_cast<double>(sp.start_ns),
                1e-9 * static_cast<double>(sp.end_ns)};
    if (sp.name == "scenario attempt") attempts.push_back(rec);
    if (sp.name == "svc attempt") {
      blocks.push_back(rec);
      block_round.push_back(sp.hour);
    }
  }
  const int rounds = r.report.rounds;
  std::vector<double> lane_busy(kThreads, 0.0), lane_hours(kThreads, 0.0);
  std::vector<std::vector<double>> round_durs(static_cast<std::size_t>(rounds));
  std::vector<std::vector<double>> round_lane(
      static_cast<std::size_t>(rounds), std::vector<double>(kThreads, 0.0));
  std::vector<double> durs;
  for (const SpanRec& at : attempts) {
    const auto t = static_cast<std::size_t>(at.thread);
    lane_busy[t] += at.dur();
    lane_hours[t] += plan.specs[static_cast<std::size_t>(at.id)].hours;
    durs.push_back(at.dur());
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      if (blocks[b].thread == at.thread && blocks[b].start <= at.start &&
          at.end <= blocks[b].end) {
        const auto rd = static_cast<std::size_t>(block_round[b]);
        round_durs[rd].push_back(at.dur());
        round_lane[rd][t] += at.dur();
        break;
      }
    }
  }
  double lpt = 0.0, round_span = 0.0, critical = 0.0;
  for (int rd = 0; rd < rounds; ++rd) {
    const auto i = static_cast<std::size_t>(rd);
    if (round_durs[i].empty()) continue;  // breaker cooldown round
    lpt += lpt_makespan(round_durs[i], kThreads);
    critical += *std::max_element(round_lane[i].begin(), round_lane[i].end());
    double lo = 1e300, hi = 0.0;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      if (block_round[b] != rd) continue;
      lo = std::min(lo, blocks[b].start);
      hi = std::max(hi, blocks[b].end);
    }
    round_span += hi - lo;
  }
  const double wall = r.wall_s;
  const double busy = std::accumulate(lane_busy.begin(), lane_busy.end(), 0.0);
  const auto crit = static_cast<std::size_t>(
      std::max_element(lane_busy.begin(), lane_busy.end()) - lane_busy.begin());
  const double total_hours =
      std::accumulate(lane_hours.begin(), lane_hours.end(), 0.0);

  std::map<std::string, double> m;
  m["svc.lane_idle_frac"] = 1.0 - busy / (kThreads * wall);
  m["svc.critical_lane_s"] = lane_busy[crit];
  m["svc.lpt_bound_s"] = lpt;
  m["svc.lpt_gap"] = wall / lpt;
  m["svc.attempt_p50_s"] = median(durs);
  m["svc.attempt_max_s"] = *std::max_element(durs.begin(), durs.end());
  const svc::BatchReport& rep = r.report;
  m["svc.rounds"] = rep.rounds;
  m["svc.retries"] = rep.retries;
  m["svc.degraded"] = rep.degraded;
  m["svc.rate_shared_hits"] = static_cast<double>(rep.rate_cache_shared_hits);
  m["svc.input_cache_hit_ratio"] =
      static_cast<double>(rep.input_cache_hits) /
      static_cast<double>(rep.input_cache_hits + rep.input_cache_misses);
  m["svc.engine_reuse_ratio"] =
      static_cast<double>(rep.engine_reuses) / static_cast<double>(durs.size());
  m["svc.setup_s"] = rep.setup_s;
  m["io.archive_bytes"] = r.archive_bytes;
  m["io.archive_files"] = r.archive_files;
  m["durable.journal_bytes"] = r.journal_bytes;
  m["durable.verify_s"] = r.verify_s;
  m["attr.serial_s"] = wall - round_span;
  m["attr.critical_attempts_s"] = critical;
  m["attr.lane_busy_s"] = busy;
  m["wall_s"] = wall;

  char line[256];
  std::snprintf(line, sizeof(line),
                "critical lane %zu: %.0f/%.0f model-hours, busy %.3f s of "
                "%.3f s wall; lane idle %.1f%%; LPT bound %.3f s (gap %.2fx)",
                crit, lane_hours[crit], total_hours, lane_busy[crit], wall,
                100.0 * m["svc.lane_idle_frac"], lpt, m["svc.lpt_gap"]);
  lane_line = line;
  return m;
}

/// Solo probe: the mix's first shortest fine-grid scenario on its own at
/// host_threads = 1 (the configuration the supervisor runs it in), with
/// the model's public sinks attached. Gives the per-attempt core / chem /
/// transport breakdown that the batch's own sinks do not expose.
struct Probe {
  int id = 0;
  std::uint64_t digest = 0;
  std::map<std::string, double> m;
  double wall = 0.0, chemistry = 0.0, transport = 0.0, io = 0.0;
};

Probe probe(const Plan& plan, const Prepared& pr) {
  Probe p;
  for (const svc::ScenarioSpec& s : plan.specs) {
    if (s.hours < plan.specs[static_cast<std::size_t>(p.id)].hours) p.id = s.id;
  }
  const svc::ScenarioSpec& spec = plan.specs[static_cast<std::size_t>(p.id)];
  const Dataset ds = svc::build_scenario_dataset(spec);
  obs::TraceRecorder rec(1);
  HostProfile prof;
  ModelOptions mo;
  mo.hours = spec.hours;
  mo.host_threads = 1;
  mo.trace = &rec;
  mo.profile = &prof;
  std::vector<double> hour_s;
  auto mark = Clock::now();
  const auto t0 = Clock::now();
  ModelRunResult r = AirshedModel(ds, mo).run(
      [&](const HourlyStats&, const ConcentrationField&) {
        hour_s.push_back(since(mark));
        mark = Clock::now();
      });
  p.wall = since(t0);
  p.digest = svc::field_digest(r.outputs);
  p.m = layer_metrics(prof, p.wall, hour_s,
                      pr.fine_cells[static_cast<std::size_t>(p.id)],
                      r.trace.total_steps());
  const obs::TraceSession session = rec.drain();
  p.chemistry = span_seconds(session, "chemistry Lcz");
  p.transport = span_seconds(session, "transport Lxy");
  p.io = span_seconds(session, "inputhour") + span_seconds(session, "outputhour");
  return p;
}

void dump(const Plan& p) {
  const svc::BatchOptions& o = p.opts;
  const svc::ChaosOptions& c = o.chaos;
  std::printf("batch_seed %llu\nschedule %s\nmax_attempts %d\n",
              static_cast<unsigned long long>(o.batch_seed),
              svc::to_string(o.schedule), o.max_attempts);
  std::printf("chaos death=%.17g straggler=%.17g storage=%.17g payload=%.17g "
              "numerics=%.17g hang=%.17g poison=%zu\n",
              c.node_death, c.straggler, c.storage_fault, c.payload_corruption,
              c.numerics, c.hang, c.poison_scenarios.size());
  for (const svc::ScenarioSpec& s : p.specs) {
    std::printf("%d %s %s hours=%d perturbation=%.17g %s\n", s.id,
                s.name.c_str(), s.dataset.c_str(), s.hours,
                s.emission_perturbation, describe(s.controls).c_str());
  }
}

}  // namespace

bool is_batch(const std::string& w) {
  return w == "la-batch" || w == "city-chaos";
}

void run_batch(const Args& a, Result& res) {
  if (a.dump_specs) {
    std::printf("workload %s\n", a.workload.c_str());
    dump(a.workload == "la-batch" ? la_batch_plan(a) : city_chaos_plan(a));
    return;
  }
  // Set-up: plan, city generation and dataset builds. The sampler repeats
  // it on throwaway products; the timed phase uses one more.
  double generate_total = 0.0, build_total = 0.0;
  long long preps = 0;
  SetupSampler setup([&] {
    const Prepared p = prepare(a);
    generate_total += p.generate_s;
    build_total += p.build_s;
    ++preps;
  });
  const Prepared pr = prepare(a);
  const Plan& plan = pr.plan;
  const std::string root = a.work_dir + "/" + a.workload;

  std::vector<BatchRun> runs;
  int iteration = 0;
  const auto op = [&] {
    runs.push_back(run_once(plan, kThreads,
                            root + "/it" + std::to_string(iteration++), nullptr,
                            runs.empty() ? a.tamper : std::string()));
  };
  const std::vector<double> walls =
      closed_loop(a.seconds, op, [&] { setup.sample_after_op(); });
  const std::size_t untraced = runs.size();

  std::vector<std::map<std::string, double>> traced;
  std::vector<std::string> lane_lines;
  if (a.trace) {
    obs::TraceRecorder rec(kThreads);
    closed_loop(a.seconds, [&] {
      runs.push_back(run_once(plan, kThreads,
                              root + "/it" + std::to_string(iteration++), &rec,
                              std::string()));
      lane_lines.emplace_back();
      traced.push_back(
          batch_metrics(plan, runs.back(), rec.drain(), lane_lines.back()));
    });
  }

  const BatchRun ref = run_once(plan, 1, root + "/ref", nullptr, "");
  fs::remove_all(root);
  const std::string ref_canon = ref.report.canonical_json().str();
  res.errors.insert(res.errors.end(), ref.errors.begin(), ref.errors.end());

  std::vector<double> rates;
  for (std::size_t k = 0; k < runs.size(); ++k) {
    const BatchRun& r = runs[k];
    const bool canon_ok = r.report.canonical_json().str() == ref_canon;
    if (!canon_ok) {
      res.errors.push_back("batch " + std::to_string(k) +
                           ": canonical report differs from the one-thread "
                           "reference");
    }
    res.errors.insert(res.errors.end(), r.errors.begin(), r.errors.end());
    double cell_hours = 0.0;
    for (std::size_t i = 0; i < r.report.results.size(); ++i) {
      const svc::ScenarioResult& s = r.report.results[i];
      const svc::ScenarioResult& want = ref.report.results[i];
      const bool committed = s.status == svc::ScenarioStatus::Ok ||
                             s.status == svc::ScenarioStatus::Degraded;
      const bool ok = canon_ok && committed && r.readback[i] &&
                      s.status == want.status && s.checksum == want.checksum;
      ++res.attempted;
      if (!ok) {
        ++res.failed;
        std::printf("check failed: batch %zu scenario %d (%s, checksum %s, "
                    "reference %s, read-back %s)\n",
                    k, s.spec.id, svc::to_string(s.status), s.checksum.c_str(),
                    want.checksum.c_str(), r.readback[i] ? "ok" : "FAILED");
        continue;
      }
      const bool degraded = s.status == svc::ScenarioStatus::Degraded;
      cell_hours += (degraded ? pr.degraded_cells[i] : pr.fine_cells[i]) *
                    s.spec.hours;
    }
    if (k < untraced) rates.push_back(cell_hours / r.wall_s);
  }
  const svc::BatchReport& rep = runs.front().report;
  std::printf("batch: %zu scenarios, %d round(s), %d ok, %d degraded, "
              "%d quarantined, %d retries; %zu batches timed\n",
              plan.specs.size(), rep.rounds, rep.completed, rep.degraded,
              rep.quarantined, rep.retries, untraced);

  if (!a.trace) {
    res.set("wall_s", median(walls));
    res.set("setup_s", setup.median());
    res.set("cell_hours_per_s", median(rates));
    res.set("peak_rss_mb", peak_rss_mib());
    return;
  }

  const std::map<std::string, double> m = median_each(traced);
  for (const auto& [name, value] : m) {
    if (name.rfind("attr.", 0) != 0 && name != "wall_s") res.set(name, value);
  }
  std::vector<double> traced_walls;
  for (std::size_t k = untraced; k < runs.size(); ++k) {
    traced_walls.push_back(runs[k].wall_s);
  }
  res.set("obs.trace_overhead_frac", median(traced_walls) / median(walls) - 1.0);
  if (!plan.cities.empty()) {
    res.set("city.generate_s", generate_total / static_cast<double>(preps));
  }
  res.set("io.dataset_build_s", build_total / static_cast<double>(preps));

  const Probe p = probe(plan, pr);
  for (const auto& [name, value] : p.m) {
    if (name.rfind("par.", 0) != 0) res.set(name, value);  // single-threaded
  }
  // The probe's digest is a solo run of a batch scenario: it must match the
  // batch's committed fine-grid result bit for bit.
  const svc::ScenarioResult& solo = rep.results[static_cast<std::size_t>(p.id)];
  if (solo.status == svc::ScenarioStatus::Ok) {
    ++res.attempted;
    if (hash_hex(p.digest) != solo.checksum) {
      ++res.failed;
      std::printf("check failed: solo probe of scenario %d digest %s != "
                  "batch checksum %s\n",
                  p.id, hash_hex(p.digest).c_str(), solo.checksum.c_str());
    }
  }

  // Share of the 4 lanes' wall time not spent in chemistry, chemistry
  // estimated from the probe's chemistry fraction of attempt time.
  const std::size_t mid = median_op(traced);
  const std::map<std::string, double>& at = traced[mid];
  const double wall = at.at("wall_s");
  const double chem_frac = p.chemistry / p.wall;
  res.set("obs.non_chem_frac",
          1.0 - chem_frac * at.at("attr.lane_busy_s") / (kThreads * wall));
  std::printf("%s\n", lane_lines[mid].c_str());
  print_attribution(a.workload, wall,
                    {{"svc serial (decide, journal)", at.at("attr.serial_s")},
                     {"attempts, critical lane", at.at("attr.critical_attempts_s")}});
  std::printf("  inside attempts (solo probe, scenario %d, %d h, %.3f s): "
              "chemistry %.1f%%, transport %.1f%%, io %.1f%%, engine setup "
              "%.1f%%\n",
              p.id, plan.specs[static_cast<std::size_t>(p.id)].hours, p.wall,
              100.0 * chem_frac, 100.0 * p.transport / p.wall,
              100.0 * p.io / p.wall,
              100.0 * p.m.at("core.engine_setup_s") / p.wall);
}

}  // namespace perfbench
