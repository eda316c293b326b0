// Shared helpers for engine tests: build an engine from rule text, feed a
// scripted observation history, and record matches.

#ifndef RFIDCEP_TESTS_ENGINE_TEST_UTIL_H_
#define RFIDCEP_TESTS_ENGINE_TEST_UTIL_H_

#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "epc/catalog.h"
#include "events/observation.h"
#include "store/database.h"

namespace rfidcep::engine::testing {

struct RecordedMatch {
  std::string rule_id;
  TimePoint t_begin;
  TimePoint t_end;
  events::EventInstancePtr instance;
};

// Owns a database, catalogs, and an engine wired to record every match.
class EngineHarness {
 public:
  explicit EngineHarness(EngineOptions options = {}) {
    EXPECT_TRUE(db.InstallRfidSchema().ok());
    engine = std::make_unique<RcedaEngine>(
        &db, events::Environment{&catalog, &readers}, options);
    engine->SetMatchCallback(
        [this](const rules::Rule& rule, const events::EventInstancePtr& e) {
          matches.push_back(
              RecordedMatch{rule.id, e->t_begin(), e->t_end(), e});
        });
  }

  Status AddRules(std::string_view program) {
    return engine->AddRulesFromText(program);
  }

  // Feeds observation(reader, object, t_seconds) — seconds for readability.
  // Compiles on first use so tests can focus on detection semantics.
  Status ObserveAt(const std::string& reader, const std::string& object,
                   double t_seconds) {
    if (!engine->compiled()) {
      if (Status s = engine->Compile(); !s.ok()) return s;
    }
    return engine->Process(events::Observation{
        reader, object,
        static_cast<TimePoint>(t_seconds * kSecond)});
  }

  std::vector<RecordedMatch> MatchesFor(const std::string& rule_id) const {
    std::vector<RecordedMatch> out;
    for (const RecordedMatch& match : matches) {
      if (match.rule_id == rule_id) out.push_back(match);
    }
    return out;
  }

  store::Database db;
  epc::ProductCatalog catalog;
  epc::ReaderRegistry readers;
  std::unique_ptr<RcedaEngine> engine;
  std::vector<RecordedMatch> matches;
};

// The bytes of `path` ("" when it cannot be read), e.g. a committed
// snapshot fixture.
inline std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Checks a snapshot against an uninterrupted run: `bytes` was captured
// from an engine running `program` after `head`. Restored and fed
// `tail`, the engine must fire exactly the matches an engine fed
// head + tail fires after that capture instant, and end on the same
// fired counts.
inline void ExpectRestoresToUninterruptedRun(
    std::string_view program, const std::vector<events::Observation>& head,
    const std::vector<events::Observation>& tail, const std::string& bytes) {
  using Span = std::tuple<std::string, TimePoint, TimePoint>;
  auto spans = [](const EngineHarness& h, size_t from) {
    std::vector<Span> out;
    for (size_t i = from; i < h.matches.size(); ++i) {
      const RecordedMatch& m = h.matches[i];
      out.emplace_back(m.rule_id, m.t_begin, m.t_end);
    }
    return out;
  };
  // Serializing advances the reference to the capture instant, where its
  // match log and a restored engine's log line up.
  EngineHarness reference;
  ASSERT_TRUE(reference.AddRules(program).ok());
  ASSERT_TRUE(reference.engine->Compile().ok());
  ASSERT_TRUE(reference.engine->ProcessAll(head).ok());
  std::string discard;
  ASSERT_TRUE(reference.engine->SerializeState(&discard).ok());
  const size_t at_cut = reference.matches.size();
  ASSERT_TRUE(reference.engine->ProcessAll(tail).ok());
  ASSERT_TRUE(reference.engine->Flush().ok());

  EngineHarness restored;
  ASSERT_TRUE(restored.AddRules(program).ok());
  ASSERT_TRUE(restored.engine->Compile().ok());
  ASSERT_TRUE(restored.engine->RestoreState(bytes).ok());
  ASSERT_TRUE(restored.engine->ProcessAll(tail).ok());
  ASSERT_TRUE(restored.engine->Flush().ok());
  EXPECT_EQ(spans(restored, 0), spans(reference, at_cut));
  for (size_t i = 0; i < reference.engine->num_rules(); ++i) {
    const std::string& id = reference.engine->rule(i).id;
    EXPECT_EQ(restored.engine->FiredCount(id),
              reference.engine->FiredCount(id))
        << id;
  }
}

}  // namespace rfidcep::engine::testing

#endif  // RFIDCEP_TESTS_ENGINE_TEST_UTIL_H_
