// FIG9-A / FIG9-B: reproduction of the paper's Fig. 9 — "Event processing
// time versus number of events and number of rules" (§5) — plus the
// airport-baggage workload series.
//
// Setup mirrors the paper: a simulated RFID-enabled supply chain
// (warehouses, shipping, retail, sale), observation arrival rate 1000
// events/sec, rule families for filtering / transformation / aggregation /
// monitoring, and *action cost excluded* from the measured processing time
// (execute_actions = false).
//
//   ./build/bench/fig9_scalability [--series=events|rules|workload|
//                                   both|all]
//                                  [--batch=N]
//                                  [--rules=N] [--sites=N] [--events=N]
//                                  [--metrics] [--metrics-out=FILE]
//                                  [--json-out=FILE] [--recovery-smoke]
//
// The rules series (FIG9-B) sweeps the SKU x site rule family — one
// duplicate-detection rule per (site, SKU) pair over 20 sites and 500
// SKU classes — from 500 to 10,000 rules against ONE fixed stream, so
// the usec/event curve isolates rule-set size. --rules=N pins the
// series to a single point (the CI bench smoke runs --rules=2000).
//
// --recovery-smoke replaces the timed series with a durability check:
// the FIG9-A workload runs once uninterrupted and once interrupted by a
// midpoint Checkpoint()/Restore() into a fresh engine, and the two
// executions must agree on every match / fired count and on every
// `_total` counter in the Prometheus exposition (exit 1 otherwise).
// A store-effects phase follows: the same workload runs with SQL
// actions against a database behind a write-ahead log (store/wal.h), is
// hard-killed after a mid-run SerializeState by truncating the WAL
// mid-write, recovered (WAL replay + state restore + reprocessing the
// suffix), and the final OBSERVATION / OBJECTLOCATION /
// OBJECTCONTAINMENT tables must be byte-identical (store/csv.h dumps)
// to the uninterrupted run's — the exactly-once contract of
// docs/recovery.md "Exactly-once effects". CI runs this as the recovery
// smoke job.
//
// Metric collection defaults OFF here (the engine defaults it on) so the
// timed numbers stay comparable with BENCH_rfidcep.json; --metrics turns
// it on and --metrics-out dumps the final run's Prometheus exposition.
// --json-out writes every timing row as JSON for scripts/bench_guard.py.
//
// The stream is pre-split into batches outside the timed region and fed
// through RcedaEngine::ProcessAll, the batch entry point.
//
// Expected shape (paper): total processing time grows ~linearly with the
// number of primitive events, and stays moderate as the number of rules
// grows (sub-linear in rules thanks to common-subgraph merging and
// indexed primitive dispatch).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "sim/supply_chain.h"
#include "sim/workload.h"
#include "store/csv.h"
#include "store/database.h"
#include "store/wal.h"

namespace {

using rfidcep::Status;
using rfidcep::engine::EngineOptions;
using rfidcep::engine::RcedaEngine;
using rfidcep::events::Observation;

struct RunResult {
  double total_ms = 0;
  double usec_per_event = 0;
  uint64_t matches = 0;
  uint64_t pseudo_fired = 0;
  uint64_t rules_fired = 0;
};

struct BenchFlags {
  std::string series = "both";
  size_t batch = 1024;
  int rules = 0;    // 0 = per-series default.
  int sites = 0;    // 0 = per-series default.
  size_t events = 0;  // 0 = per-series default.
  bool metrics = false;  // Collection off: timed numbers match the seed.
  bool recovery_smoke = false;  // Midpoint checkpoint/restore check.
  std::string metrics_out;  // Exposition of the last run ("-" = stdout).
  std::string json_out;     // Timing rows for scripts/bench_guard.py.
};

// Rows accumulated across series for --json-out / --metrics-out.
struct BenchOutput {
  std::vector<std::string> json_rows;
  std::string metrics_text;  // Last run's exposition (--metrics only).
};

void AppendJsonRow(BenchOutput* out, const char* series,
                   const char* rule_family, size_t events, int rules,
                   const RunResult& r) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"series\":\"%s\",\"rule_family\":\"%s\","
                "\"events\":%zu,\"rules\":%d,"
                "\"total_ms\":%.3f,\"usec_per_event\":%.4f,"
                "\"matches\":%llu,\"fired\":%llu}",
                series, rule_family, events, rules, r.total_ms,
                r.usec_per_event, static_cast<unsigned long long>(r.matches),
                static_cast<unsigned long long>(r.rules_fired));
  out->json_rows.emplace_back(buf);
}

rfidcep::sim::SupplyChainConfig BenchConfig(int num_sites) {
  rfidcep::sim::SupplyChainConfig config;
  config.seed = 20060327;  // EDBT'06.
  config.num_sites = num_sites;
  config.num_items = 10000;  // Large pool: duplicates come from injection.
  config.num_cases = 1000;
  config.arrival_rate_per_second = 1000.0;  // Paper's arrival rate.
  config.duplicate_rate = 0.03;
  return config;
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s error: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

RunResult RunOnce(const std::string& rule_program,
                  const rfidcep::sim::SupplyChainConfig& chain_config,
                  size_t num_events, const BenchFlags& flags,
                  BenchOutput* out) {
  const size_t batch_size = flags.batch;
  rfidcep::sim::SupplyChain chain(chain_config);
  std::vector<Observation> stream = chain.GenerateStream(num_events);

  // Pre-split the stream outside the timed region; the timed loop only
  // pays for detection, not for batch assembly.
  std::vector<std::vector<Observation>> batches;
  for (size_t begin = 0; begin < stream.size(); begin += batch_size) {
    size_t end = std::min(begin + batch_size, stream.size());
    batches.emplace_back(stream.begin() + static_cast<long>(begin),
                         stream.begin() + static_cast<long>(end));
  }

  EngineOptions options;
  options.execute_actions = false;  // Paper: action cost not counted.
  options.enable_metrics = flags.metrics;
  RcedaEngine engine(nullptr, chain.environment(), options);
  Check(engine.AddRulesFromText(rule_program), "rule");
  Check(engine.Compile(), "compile");

  auto start = std::chrono::steady_clock::now();
  for (const std::vector<Observation>& batch : batches) {
    Check(engine.ProcessAll(batch), "process");
  }
  (void)engine.Flush();
  auto end = std::chrono::steady_clock::now();

  RunResult result;
  result.total_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  result.usec_per_event = result.total_ms * 1000.0 /
                          static_cast<double>(stream.size());
  result.matches = engine.stats().detector.rule_matches;
  result.pseudo_fired = engine.stats().detector.pseudo_fired;
  result.rules_fired = engine.stats().rules_fired;
  if (flags.metrics) out->metrics_text = engine.ExportMetrics();
  return result;
}

void RunEventsSeries(const BenchFlags& flags, BenchOutput* out) {
  const int num_rules = flags.rules > 0 ? flags.rules : 25;
  std::printf(
      "\nFIG9-A: total event processing time versus number of primitive "
      "events\n");
  std::printf("(fixed rule set: %d rules over %d sites, arrival rate 1000 "
              "ev/s, actions excluded, batch=%zu)\n",
              num_rules, flags.sites > 0 ? flags.sites : 5, flags.batch);
  std::printf("%12s %14s %14s %12s %12s\n", "events", "total_ms",
              "usec/event", "matches", "pseudo");
  const int sites = flags.sites > 0 ? flags.sites : 5;
  rfidcep::sim::SupplyChain chain(BenchConfig(sites));
  std::string rules = chain.GeneratedRuleProgram(num_rules);
  // --events pins the series to a single point (CI smoke runs).
  std::vector<size_t> points = {50000, 100000, 150000, 200000, 250000};
  if (flags.events > 0) points = {flags.events};
  for (size_t events : points) {
    RunResult r = RunOnce(rules, BenchConfig(sites), events, flags, out);
    std::printf("%12zu %14.1f %14.3f %12llu %12llu\n", events, r.total_ms,
                r.usec_per_event, static_cast<unsigned long long>(r.matches),
                static_cast<unsigned long long>(r.pseudo_fired));
    AppendJsonRow(out, "events", "generated", events, num_rules, r);
  }
}

void RunRulesSeries(const BenchFlags& flags, BenchOutput* out) {
  std::printf(
      "\nFIG9-B: total event processing time versus number of rules\n");
  const size_t events = flags.events > 0 ? flags.events : 100000;
  // One fixed stream for every point, drawn from the 25 SKU classes the
  // smallest (500-rule) point covers: every event does the same
  // detection work (exactly one matching rule per (site, SKU) pair) at
  // every rule count, and rules past 500 reference SKUs the stream
  // never emits — but in the SAME site groups the index probes on every
  // event, so they load the probed buckets without adding matching
  // work. The usec/event ratio between points is therefore the pure
  // dispatch-scaling measurement the rule-set compiler is gated on
  // (scripts/bench_guard.py).
  const int sites = flags.sites > 0 ? flags.sites : 20;
  rfidcep::sim::SupplyChainConfig config = BenchConfig(sites);
  config.num_skus = 25;  // Stream pool == the 500-rule point's coverage.
  rfidcep::sim::SupplyChainConfig naming = config;
  naming.num_skus = 500;  // Rule family spans the full SKU space.
  std::printf("(fixed stream: %zu primitive events at 1000 ev/s over %d "
              "sites x %d SKUs, sku_site rule family over %d SKUs, "
              "actions excluded, batch=%zu)\n",
              events, sites, config.num_skus, naming.num_skus, flags.batch);
  std::printf("%12s %14s %14s %12s %12s\n", "rules", "total_ms", "usec/event",
              "matches", "pseudo");
  rfidcep::sim::SupplyChain naming_chain(naming);
  // --rules pins the series to a single point (CI smoke).
  std::vector<int> points = {500, 1000, 2000, 5000, 10000};
  if (flags.rules > 0) points = {flags.rules};
  for (int rules : points) {
    std::string program = naming_chain.SkuSiteRuleProgram(rules);
    RunResult r = RunOnce(program, config, events, flags, out);
    std::printf("%12d %14.1f %14.3f %12llu %12llu\n", rules, r.total_ms,
                r.usec_per_event, static_cast<unsigned long long>(r.matches),
                static_cast<unsigned long long>(r.pseudo_fired));
    AppendJsonRow(out, "rules", "sku_site", events, rules, r);
  }
}

// One FIG9-W point: a pre-generated stream through the detection
// pipeline, optionally with out-of-order tolerance (the upload-order
// feed regresses in time whenever one portal's batch lands after
// another portal's later batch).
RunResult RunWorkloadOnce(const std::string& rule_program,
                          const std::vector<rfidcep::events::Observation>&
                              stream,
                          bool tolerate, const BenchFlags& flags,
                          BenchOutput* out) {
  std::vector<std::vector<Observation>> batches;
  for (size_t begin = 0; begin < stream.size(); begin += flags.batch) {
    size_t end = std::min(begin + flags.batch, stream.size());
    batches.emplace_back(stream.begin() + static_cast<long>(begin),
                         stream.begin() + static_cast<long>(end));
  }
  EngineOptions options;
  options.execute_actions = false;
  options.enable_metrics = flags.metrics;
  options.detector.tolerate_out_of_order = tolerate;
  RcedaEngine engine(nullptr, rfidcep::events::Environment{}, options);
  Check(engine.AddRulesFromText(rule_program), "rule");
  Check(engine.Compile(), "compile");

  auto start = std::chrono::steady_clock::now();
  for (const std::vector<Observation>& batch : batches) {
    Check(engine.ProcessAll(batch), "process");
  }
  (void)engine.Flush();
  auto end = std::chrono::steady_clock::now();

  RunResult result;
  result.total_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  result.usec_per_event =
      result.total_ms * 1000.0 / static_cast<double>(stream.size());
  result.matches = engine.stats().detector.rule_matches;
  result.pseudo_fired = engine.stats().detector.pseudo_fired;
  result.rules_fired = engine.stats().rules_fired;
  if (flags.metrics) out->metrics_text = engine.ExportMetrics();
  return result;
}

// FIG9-W: the airport-baggage workload (sim/workload.h GenerateBaggage —
// ROADMAP's out-of-order-heavy scenario). Each point feeds the same
// observation multiset two ways: `time` order (timestamp-sorted, with
// the burst ties batch uploading creates) through the default engine,
// and `upload` order (per-reader batch uploads, heavy timestamp
// regressions) through an engine with out-of-order tolerance, which
// drops reads that regress behind the running clock. The rule family
// covers the journey shapes: misroute loops through the sorter, full
// check-in -> claim journeys, a negated stuck-bag monitor, and a TSEQ+
// reread aggregate.
void RunWorkloadSeries(const BenchFlags& flags, BenchOutput* out) {
  static const char* kBaggageRules = R"(
CREATE RULE misroute, baggage ON WITHIN(SEQ(observation("sorter", o, t1); observation("sorter", o, t2)), 30sec) IF true DO act
CREATE RULE journey, baggage ON WITHIN(SEQ(observation("checkin", o, t1); observation("claim", o, t2)), 60sec) IF true DO act
CREATE RULE stuck, baggage ON WITHIN(SEQ(observation("sorter", o, t1); NOT observation("gate", o, t2)), 45sec) IF true DO act
CREATE RULE reread, baggage ON WITHIN(TSEQ+(observation("gate", o, t), 0sec, 1sec), 20sec) IF true DO act
)";
  // ~5 reads per bag (4 stages + misroutes + rereads): size the bag
  // pool so each point lands near its primitive-event target.
  std::vector<size_t> points = {50000, 100000, 200000};
  if (flags.events > 0) points = {flags.events};
  std::printf("\nFIG9-W: airport-baggage workload, in-order versus "
              "out-of-order arrival\n");
  std::printf("(4 baggage rules, per-reader upload batching, batch=%zu; "
              "`upload` feeds arrival order with out-of-order tolerance)\n",
              flags.batch);
  std::printf("%12s %8s %14s %14s %12s %12s\n", "events", "order",
              "total_ms", "usec/event", "matches", "fired");
  for (size_t target : points) {
    const size_t bags = std::max<size_t>(1, target / 5);
    std::vector<std::string> bag_epcs;
    bag_epcs.reserve(bags);
    for (size_t i = 0; i < bags; ++i) {
      bag_epcs.push_back("bag" + std::to_string(i));
    }
    rfidcep::sim::BaggageConfig config;
    rfidcep::Prng prng(20060327 + target);
    rfidcep::sim::BaggageWorkload workload =
        rfidcep::sim::GenerateBaggage(config, bag_epcs, &prng);
    const size_t events = workload.arrivals.size();
    struct Feed {
      const char* order;
      const std::vector<Observation>* stream;
      bool tolerate;
    };
    for (const Feed& feed :
         {Feed{"time", &workload.event_order, false},
          Feed{"upload", &workload.arrivals, true}}) {
      RunResult r =
          RunWorkloadOnce(kBaggageRules, *feed.stream, feed.tolerate, flags,
                          out);
      std::printf("%12zu %8s %14.1f %14.3f %12llu %12llu\n", events,
                  feed.order, r.total_ms, r.usec_per_event,
                  static_cast<unsigned long long>(r.matches),
                  static_cast<unsigned long long>(r.rules_fired));
      AppendJsonRow(out, "workload",
                    feed.tolerate ? "baggage_upload" : "baggage_time", events,
                    4, r);
    }
  }
}

// Counter lines (`*_total ...`) of a Prometheus exposition, sorted.
// Gauges and histogram buckets carry timings and queue depths that
// legitimately differ across executions, so only counters reconcile.
// The dedup counter is excluded too: an interrupted-and-recovered run
// legitimately dedups re-fired actions against the WAL, an uninterrupted
// run never does (the LOGICAL action counters still reconcile because
// dedup hits credit them).
std::vector<std::string> CounterLines(const std::string& exposition) {
  std::vector<std::string> lines;
  std::istringstream in(exposition);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("_total") == std::string::npos) continue;
    if (line.find("actions_deduped") != std::string::npos) continue;
    lines.push_back(line);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

// Hard-kill simulation: keep exactly `keep` bytes of the WAL directory
// (segments in name order), deleting later segments and cutting the one
// the boundary lands in — usually mid-record, which is exactly the torn
// tail Wal::Open must recover from.
void TruncateWalAt(const std::string& dir, uint64_t keep) {
  namespace fs = std::filesystem;
  std::vector<fs::path> segments;
  for (const auto& entry : fs::directory_iterator(dir)) {
    segments.push_back(entry.path());
  }
  std::sort(segments.begin(), segments.end());
  uint64_t offset = 0;
  for (const fs::path& segment : segments) {
    uint64_t size = fs::file_size(segment);
    if (offset >= keep) {
      fs::remove(segment);
      continue;
    }
    if (offset + size > keep) fs::resize_file(segment, keep - offset);
    offset += size;
  }
}

// Store-effects phase of the recovery smoke: the FIG9-A workload with
// SQL actions against a real database behind a write-ahead log,
// hard-killed after a mid-run checkpoint by truncating the WAL halfway
// through the post-checkpoint bytes (mid-record), then recovered — WAL
// replay into a fresh store, state restore, suffix reprocessing.
// Same-layout recovery, so the final OBSERVATION / OBJECTLOCATION /
// OBJECTCONTAINMENT tables must be byte-identical to the uninterrupted
// run's, and the exported counters must reconcile.
int RunDurableStoreSmoke(const BenchFlags& flags) {
  namespace fs = std::filesystem;
  using rfidcep::store::Database;
  using rfidcep::store::Wal;
  using rfidcep::store::WalOptions;
  const int num_rules = flags.rules > 0 ? flags.rules : 25;
  const int sites = flags.sites > 0 ? flags.sites : 5;
  const size_t events = flags.events > 0 ? flags.events : 20000;
  rfidcep::sim::SupplyChain chain(BenchConfig(sites));
  const std::string program = chain.GeneratedRuleProgram(num_rules);
  std::vector<Observation> stream = chain.GenerateStream(events);
  std::vector<std::vector<Observation>> batches;
  for (size_t begin = 0; begin < stream.size(); begin += flags.batch) {
    size_t end = std::min(begin + flags.batch, stream.size());
    batches.emplace_back(stream.begin() + static_cast<long>(begin),
                         stream.begin() + static_cast<long>(end));
  }
  const size_t cut = batches.size() / 2;
  const size_t doomed_end = cut + (batches.size() - cut + 1) / 2;

  EngineOptions options;
  options.execute_actions = true;
  options.enable_metrics = true;
  auto make_engine = [&](Database* db) {
    auto engine =
        std::make_unique<RcedaEngine>(db, chain.environment(), options);
    Check(engine->AddRulesFromText(program), "rule");
    return engine;
  };
  auto dump_store = [](Database* db) {
    std::string out;
    for (const char* table :
         {"OBSERVATION", "OBJECTLOCATION", "OBJECTCONTAINMENT"}) {
      out += rfidcep::store::TableToCsv(*db->GetTable(table));
      out += '\n';
    }
    return out;
  };

  std::printf("\nDURABLE STORE SMOKE: %zu events, %d rules, checkpoint after "
              "batch %zu/%zu, crash after batch %zu, WAL cut mid-record\n",
              events, num_rules, cut, batches.size(), doomed_end);

  Database reference_db;
  Check(reference_db.InstallRfidSchema(), "schema");
  auto reference = make_engine(&reference_db);
  Check(reference->Compile(), "compile");
  for (const auto& batch : batches) {
    Check(reference->ProcessAll(batch), "process");
  }
  Check(reference->Flush(), "flush");
  const std::string want_store = dump_store(&reference_db);

  const std::string wal_dir = "fig9_durable_smoke_wal";
  fs::remove_all(wal_dir);
  WalOptions wal_options;
  wal_options.segment_bytes = 4096;  // The cut can cross rotations.
  uint64_t checkpoint_bytes = 0;
  uint64_t final_bytes = 0;
  std::string snapshot;
  {
    rfidcep::Result<std::unique_ptr<Wal>> opened =
        Wal::Open(wal_dir, wal_options);
    Check(opened.status(), "wal open");
    std::unique_ptr<Wal> wal = std::move(*opened);
    Database db;
    Check(db.InstallRfidSchema(), "schema");
    auto crashed = make_engine(&db);
    Check(crashed->AttachWal(wal.get()), "attach wal");
    Check(crashed->Compile(), "compile");
    for (size_t i = 0; i < cut; ++i) {
      Check(crashed->ProcessAll(batches[i]), "process");
    }
    Check(crashed->SerializeState(&snapshot), "serialize");
    checkpoint_bytes = wal->total_bytes();
    for (size_t i = cut; i < doomed_end; ++i) {
      Check(crashed->ProcessAll(batches[i]), "process");
    }
    crashed.reset();
    final_bytes = wal->total_bytes();
  }  // The Wal flushes on destruction; the files now hold everything.
  TruncateWalAt(wal_dir,
                checkpoint_bytes + (final_bytes - checkpoint_bytes) / 2);

  // One-pass recovery: the reopen replays the log into the fresh store.
  Database db;
  Check(db.InstallRfidSchema(), "schema");
  rfidcep::Result<std::unique_ptr<Wal>> reopened =
      Wal::Open(wal_dir, wal_options, &db);
  Check(reopened.status(), "wal reopen");
  std::unique_ptr<Wal> wal = std::move(*reopened);
  auto second = make_engine(&db);
  Check(second->AttachWal(wal.get()), "attach wal");
  Check(second->Compile(), "compile");
  Check(second->RestoreState(snapshot), "restore");
  for (size_t i = cut; i < batches.size(); ++i) {
    Check(second->ProcessAll(batches[i]), "process");
  }
  Check(second->Flush(), "flush");

  int failures = 0;
  auto require = [&failures](const char* what, uint64_t want, uint64_t got) {
    bool ok = want == got;
    std::printf("  %-24s reference=%-10llu recovered=%-10llu %s\n", what,
                static_cast<unsigned long long>(want),
                static_cast<unsigned long long>(got), ok ? "ok" : "MISMATCH");
    if (!ok) ++failures;
  };
  require("rule_matches", reference->stats().detector.rule_matches,
          second->stats().detector.rule_matches);
  require("rules_fired", reference->stats().rules_fired,
          second->stats().rules_fired);
  require("sql_actions_executed", reference->stats().sql_actions_executed,
          second->stats().sql_actions_executed);

  const std::string got_store = dump_store(&db);
  if (want_store == got_store) {
    std::printf("  %-24s %zu bytes byte-identical\n", "store tables",
                want_store.size());
  } else {
    ++failures;
    std::printf("  %-24s MISMATCH (%zu vs %zu bytes)\n", "store tables",
                want_store.size(), got_store.size());
  }

  std::vector<std::string> want = CounterLines(reference->ExportMetrics());
  std::vector<std::string> got = CounterLines(second->ExportMetrics());
  if (want == got) {
    std::printf("  %-24s %zu lines reconcile\n", "exported counters",
                want.size());
  } else {
    ++failures;
    std::printf("  %-24s MISMATCH\n", "exported counters");
    for (const std::string& line : want) {
      if (!std::binary_search(got.begin(), got.end(), line)) {
        std::printf("    - %s\n", line.c_str());
      }
    }
    for (const std::string& line : got) {
      if (!std::binary_search(want.begin(), want.end(), line)) {
        std::printf("    + %s\n", line.c_str());
      }
    }
  }
  fs::remove_all(wal_dir);
  std::printf("durable store smoke: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures;
}

// --recovery-smoke: the FIG9-A workload uninterrupted versus interrupted
// by a midpoint Checkpoint()/Restore(). The cut lands on a batch
// boundary so both executions issue the same ProcessAll calls. The
// durable store phase (above) runs after it.
int RunRecoverySmoke(const BenchFlags& flags) {
  const int num_rules = flags.rules > 0 ? flags.rules : 25;
  const int sites = flags.sites > 0 ? flags.sites : 5;
  const size_t events = flags.events > 0 ? flags.events : 20000;
  rfidcep::sim::SupplyChain chain(BenchConfig(sites));
  const std::string program = chain.GeneratedRuleProgram(num_rules);
  std::vector<Observation> stream = chain.GenerateStream(events);

  std::vector<std::vector<Observation>> batches;
  for (size_t begin = 0; begin < stream.size(); begin += flags.batch) {
    size_t end = std::min(begin + flags.batch, stream.size());
    batches.emplace_back(stream.begin() + static_cast<long>(begin),
                         stream.begin() + static_cast<long>(end));
  }
  const size_t cut = batches.size() / 2;

  EngineOptions options;
  options.execute_actions = false;
  options.enable_metrics = true;
  auto make_engine = [&] {
    auto engine = std::make_unique<RcedaEngine>(nullptr, chain.environment(),
                                                options);
    Check(engine->AddRulesFromText(program), "rule");
    Check(engine->Compile(), "compile");
    return engine;
  };

  std::printf("\nRECOVERY SMOKE: %zu events, %d rules, checkpoint after "
              "batch %zu/%zu\n",
              events, num_rules, cut, batches.size());

  auto reference = make_engine();
  for (const auto& batch : batches) {
    Check(reference->ProcessAll(batch), "process");
  }
  Check(reference->Flush(), "flush");

  const std::string path = "fig9_recovery_smoke.snap";
  auto first = make_engine();
  for (size_t i = 0; i < cut; ++i) {
    Check(first->ProcessAll(batches[i]), "process");
  }
  Check(first->Checkpoint(path), "checkpoint");
  auto second = make_engine();
  Check(second->Restore(path), "restore");
  std::remove(path.c_str());
  for (size_t i = cut; i < batches.size(); ++i) {
    Check(second->ProcessAll(batches[i]), "process");
  }
  Check(second->Flush(), "flush");

  int failures = 0;
  auto require = [&failures](const char* what, uint64_t want, uint64_t got) {
    bool ok = want == got;
    std::printf("  %-24s reference=%-10llu recovered=%-10llu %s\n", what,
                static_cast<unsigned long long>(want),
                static_cast<unsigned long long>(got), ok ? "ok" : "MISMATCH");
    if (!ok) ++failures;
  };
  require("rule_matches", reference->stats().detector.rule_matches,
          second->stats().detector.rule_matches);
  require("rules_fired", reference->stats().rules_fired,
          second->stats().rules_fired);
  require("pseudo_fired", reference->stats().detector.pseudo_fired,
          second->stats().detector.pseudo_fired);

  std::vector<std::string> want = CounterLines(reference->ExportMetrics());
  std::vector<std::string> got = CounterLines(second->ExportMetrics());
  if (want == got) {
    std::printf("  %-24s %zu lines reconcile\n", "exported counters",
                want.size());
  } else {
    ++failures;
    std::printf("  %-24s MISMATCH\n", "exported counters");
    for (const std::string& line : want) {
      if (!std::binary_search(got.begin(), got.end(), line)) {
        std::printf("    - %s\n", line.c_str());
      }
    }
    for (const std::string& line : got) {
      if (!std::binary_search(want.begin(), want.end(), line)) {
        std::printf("    + %s\n", line.c_str());
      }
    }
  }
  std::printf("recovery smoke: %s\n", failures == 0 ? "PASS" : "FAIL");
  failures += RunDurableStoreSmoke(flags);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--series=", 9) == 0) {
      flags.series = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--batch=", 8) == 0) {
      flags.batch = static_cast<size_t>(std::atol(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--rules=", 8) == 0) {
      flags.rules = std::atoi(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--sites=", 8) == 0) {
      flags.sites = std::atoi(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--events=", 9) == 0) {
      flags.events = static_cast<size_t>(std::atol(argv[i] + 9));
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      flags.metrics = true;
    } else if (std::strcmp(argv[i], "--recovery-smoke") == 0) {
      flags.recovery_smoke = true;
    } else if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      flags.metrics = true;
      flags.metrics_out = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--json-out=", 11) == 0) {
      flags.json_out = argv[i] + 11;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 1;
    }
  }
  if (flags.batch < 1) {
    std::fprintf(stderr, "--batch must be >= 1\n");
    return 1;
  }
  const std::string& s = flags.series;
  if (s != "events" && s != "rules" && s != "workload" && s != "both" &&
      s != "all") {
    std::fprintf(stderr, "unknown series: %s\n", s.c_str());
    return 1;
  }
  std::printf("rfidcep Fig. 9 reproduction "
              "(Wang et al., EDBT 2006, \"Bridging Physical and Virtual "
              "Worlds\")\n");
  if (flags.recovery_smoke) return RunRecoverySmoke(flags);
  BenchOutput output;
  if (s == "events" || s == "both" || s == "all") {
    RunEventsSeries(flags, &output);
  }
  if (s == "rules" || s == "both" || s == "all") {
    RunRulesSeries(flags, &output);
  }
  if (s == "workload" || s == "all") RunWorkloadSeries(flags, &output);
  if (!flags.json_out.empty()) {
    std::ofstream out(flags.json_out);
    if (!out) {
      std::fprintf(stderr, "cannot open '%s'\n", flags.json_out.c_str());
      return 1;
    }
    out << "{\"bench\":\"fig9_scalability\",\"rows\":[\n";
    for (size_t i = 0; i < output.json_rows.size(); ++i) {
      out << "  " << output.json_rows[i]
          << (i + 1 < output.json_rows.size() ? ",\n" : "\n");
    }
    out << "]}\n";
  }
  if (!flags.metrics_out.empty()) {
    if (flags.metrics_out == "-") {
      std::fputs(output.metrics_text.c_str(), stdout);
    } else {
      std::ofstream out(flags.metrics_out);
      if (!out) {
        std::fprintf(stderr, "cannot open '%s'\n", flags.metrics_out.c_str());
        return 1;
      }
      out << output.metrics_text;
    }
  }
  return 0;
}
