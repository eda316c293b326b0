// Shared helpers for engine tests: build an engine from rule text, feed a
// scripted observation history, and record matches.

#ifndef RFIDCEP_TESTS_ENGINE_TEST_UTIL_H_
#define RFIDCEP_TESTS_ENGINE_TEST_UTIL_H_

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.h"
#include "engine/engine.h"
#include "engine/snapshot.h"
#include "epc/catalog.h"
#include "events/expr.h"
#include "events/observation.h"
#include "sim/workload.h"
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

// The samples of a Prometheus exposition (RcedaEngine::ExportMetrics),
// by full sample name including labels.
inline std::map<std::string, uint64_t> ParseExposition(
    const std::string& text) {
  std::map<std::string, uint64_t> samples;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    const size_t space = line.rfind(' ');
    if (line.empty() || line[0] == '#' || space == std::string::npos) continue;
    samples[line.substr(0, space)] = std::stoull(line.substr(space + 1));
  }
  return samples;
}

// --- The action path ---------------------------------------------------------

// perfbench's baggage_daemon rules (perfbench/daemon.cc kRules): the four
// FIG9-W shapes with SQL actions, OBSERVATION inserts and an
// UPDATE-then-INSERT chain on OBJECTLOCATION.
inline constexpr std::string_view kBaggageRules = R"(
CREATE RULE misroute, baggage ON WITHIN(SEQ(observation("sorter", o, t1); observation("sorter", o, t2)), 30sec) IF true DO INSERT INTO OBSERVATION VALUES ("sorter", o, t2)
CREATE RULE journey, baggage ON WITHIN(SEQ(observation("checkin", o, t1); observation("claim", o, t2)), 60sec) IF true DO UPDATE OBJECTLOCATION SET tend = t2 WHERE object_epc = o AND tend = "UC"; INSERT INTO OBJECTLOCATION VALUES (o, "claim", t2, "UC")
CREATE RULE stuck, baggage ON WITHIN(SEQ(observation("sorter", o, t1); NOT observation("gate", o, t2)), 45sec) IF true DO UPDATE OBJECTLOCATION SET tend = t1 WHERE object_epc = o AND tend = "UC"; INSERT INTO OBJECTLOCATION VALUES (o, "sorter", t1, "UC")
CREATE RULE reread, baggage ON WITHIN(TSEQ+(observation("gate", o, t), 0sec, 1sec), 20sec) IF true DO BULK INSERT INTO OBSERVATION VALUES ("gate", o, t)
)";

// The first `count` observations of perfbench's baggage stream for `seed`:
// GenerateBaggage over "bag<i>" tags, in timestamp order.
inline std::vector<events::Observation> BaggageStream(uint64_t seed,
                                                      size_t count) {
  std::vector<std::string> bags;
  for (size_t i = 0; i < count / 4 + 16; ++i) {
    bags.push_back("bag" + std::to_string(i));
  }
  Prng prng(seed);
  std::vector<events::Observation> stream =
      sim::GenerateBaggage(sim::BaggageConfig{}, bags, &prng).event_order;
  EXPECT_GE(stream.size(), count);
  stream.resize(std::min(stream.size(), count));
  return stream;
}

// --- Rule programs behind committed snapshot fixtures ----------------------

// The fixture engine of snapshot_format_test (checkpoint_v<N>.snap). It
// covers every serialized state shape: SEQ slot buffers, a NOT log with
// pending confirmation pseudos, and SEQ+ open runs.
inline constexpr std::string_view kFixtureRules = R"(
  CREATE RULE pair, pairing
  ON WITHIN(observation("a", o, t1); observation("b", o, t2), 8sec)
  IF true
  DO send alarm

  CREATE RULE quiet, quiet zone
  ON WITHIN(observation("a", o1, t1) AND NOT observation("c", o2, t2), 6sec)
  IF true
  DO send alarm

  CREATE RULE run, aperiodic
  ON WITHIN(TSEQ+(observation("a", o1, t1), 0sec, 4sec), 20sec)
  IF true
  DO send alarm
)";

// SEQ+ prefix sharing (rule_index_test), and the workload
// checkpoint_v2_presharing.snap was captured on. Two rules over the same
// bounded TSEQ+ prefix behind NEGATION terminators (the run still closes
// via the SEQ+ node's own expiry, so sharing is safe) plus a third whose
// identical-looking TSEQ+ is terminator-closed — its terminator CONSUMES
// the run, so it must keep a private copy. The fourth, keyed on the tag,
// shares no node with them.
inline constexpr std::string_view kSharingProgram = R"(
  DEFINE E1 = observation("r_conv", o1, t1)
  CREATE RULE wa, exit negated
  ON TSEQ(TSEQ+(E1, 0.1sec, 1sec); NOT observation("r_exit", o2, t2),
          2sec, 4sec)
  IF true
  DO send alarm
  CREATE RULE nb, case negated
  ON TSEQ(TSEQ+(E1, 0.1sec, 1sec); NOT observation("r_case", o2, t2),
          2sec, 4sec)
  IF true
  DO send alarm
  CREATE RULE ct, closed terminator
  ON TSEQ(TSEQ+(E1, 0.1sec, 1sec); observation("r_case", o2, t2),
          2sec, 4sec)
  IF true
  DO send alarm
  CREATE RULE cv, conveyor read
  ON observation("r_conv", o, t)
  IF true
  DO send alarm
)";

// The sharing workload: two TSEQ+ runs on r_conv, one of them confirmed
// by an r_case terminator, plus unrelated traffic.
inline std::vector<events::Observation> SharingStream() {
  auto at = [](double sec) { return static_cast<TimePoint>(sec * kSecond); };
  return {
      {"r_conv", "a", at(1.0)},
      {"r_conv", "b", at(1.5)},
      {"r_conv", "c", at(2.0)},
      // Consumes ct's private run AND falsifies nb's negation window;
      // wa's r_exit negation still holds, so run 1 fires wa + ct but not
      // nb.
      {"r_case", "K", at(4.5)},
      // Run 2 gets no terminator: once the clock moves past its windows
      // (or at Flush), both negation rules fire and ct stays silent.
      {"r_conv", "d", at(8.0)},
      {"r_conv", "e", at(8.4)},
  };
}

// The rules of checkpoint_v2_pending_actions.snap: one procedure and one
// SQL action per observation.
inline constexpr std::string_view kPendingRules = R"(
  CREATE RULE alert, alert rule
  ON observation(r, o, t)
  IF true
  DO notify(o)

  CREATE RULE log, log rule
  ON observation(r, o, t)
  IF true
  DO INSERT INTO OBSERVATION VALUES (r, o, t)
)";

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

// --- Forged restores -------------------------------------------------------

// The record `snap` holds for the first node of `engine`'s graph whose op
// is `op`; with `add`, one is appended when the capture has none. Null
// when the graph has no such node (or, without `add`, no such record).
inline snapshot::NodeStateRecord* RecordFor(const RcedaEngine& engine,
                                            events::ExprOp op, bool add,
                                            snapshot::EngineSnapshot* snap) {
  std::vector<std::string> rule_ids;
  for (size_t i = 0; i < engine.num_rules(); ++i) {
    rule_ids.push_back(engine.rule(i).id);
  }
  const std::vector<std::string> keys =
      engine.graph().NodeStateKeys(rule_ids);
  for (const GraphNode& node : engine.graph().nodes()) {
    if (node.op != op) continue;
    for (snapshot::NodeStateRecord& rec : snap->detector.nodes) {
      if (rec.state_key == keys[node.id]) return &rec;
    }
    if (!add) return nullptr;
    snapshot::NodeStateRecord& rec = snap->detector.nodes.emplace_back();
    rec.state_key = keys[node.id];
    return &rec;
  }
  return nullptr;
}

// The first record holding a SEQ+ run, or null.
inline snapshot::NodeStateRecord* RecordWithRun(
    snapshot::EngineSnapshot* snap) {
  for (snapshot::NodeStateRecord& rec : snap->detector.nodes) {
    if (!rec.runs.empty()) return &rec;
  }
  return nullptr;
}

// One edit of a decoded capture of `engine` that restore must refuse with
// `code` and a message holding `fragment`, leaving the engine as it was.
// `apply` returns false, having changed nothing, when the capture holds
// nothing the edit applies to.
struct ForgedRestore {
  const char* name;
  StatusCode code;
  const char* fragment;
  bool (*apply)(const RcedaEngine& engine, snapshot::EngineSnapshot* snap);
};

inline const std::vector<ForgedRestore>& ForgedRestores() {
  using events::ExprOp;
  using Snap = snapshot::EngineSnapshot;
  static const std::vector<ForgedRestore> rows = {
      {"empty run", StatusCode::kInvalidArgument, "an empty SEQ+ run",
       [](const RcedaEngine&, Snap* snap) {
         snapshot::NodeStateRecord* rec = RecordWithRun(snap);
         if (rec == nullptr) return false;
         rec->runs[0].elements.clear();
         return true;
       }},
      {"run under the SEQ node", StatusCode::kInvalidArgument,
       "a SEQ+ run under",
       [](const RcedaEngine& engine, Snap* snap) {
         const snapshot::NodeStateRecord* rec = RecordWithRun(snap);
         if (rec == nullptr) return false;
         const snapshot::RunRecord run = rec->runs[0];
         snapshot::NodeStateRecord* seq =
             RecordFor(engine, ExprOp::kSeq, /*add=*/true, snap);
         if (seq == nullptr) return false;
         seq->runs.push_back(run);
         return true;
       }},
      {"second run", StatusCode::kInvalidArgument, "a second SEQ+ run",
       [](const RcedaEngine&, Snap* snap) {
         snapshot::NodeStateRecord* rec = RecordWithRun(snap);
         if (rec == nullptr) return false;
         rec->runs.push_back(rec->runs[0]);
         return true;
       }},
      {"slot 1 under the SEQ node", StatusCode::kInvalidArgument,
       "slot-1 entries",
       [](const RcedaEngine& engine, Snap* snap) {
         snapshot::NodeStateRecord* rec =
             RecordFor(engine, ExprOp::kSeq, /*add=*/false, snap);
         if (rec == nullptr || rec->slots[0].empty()) return false;
         rec->slots[1] = rec->slots[0];
         return true;
       }},
      {"NOT-log entries under the AND node", StatusCode::kInvalidArgument,
       "NOT-log entries",
       [](const RcedaEngine& engine, Snap* snap) {
         snapshot::NodeStateRecord* rec =
             RecordFor(engine, ExprOp::kAnd, /*add=*/false, snap);
         if (rec == nullptr) return false;
         rec->not_log = rec->slots[rec->slots[0].empty() ? 1 : 0];
         return !rec->not_log.empty();
       }},
      {"pseudo event querying a leaf", StatusCode::kInvalidArgument,
       "a pseudo event from",
       [](const RcedaEngine& engine, Snap* snap) {
         if (snap->detector.pseudos.empty()) return false;
         snapshot::NodeStateRecord* leaf =
             RecordFor(engine, ExprOp::kPrimitive, /*add=*/true, snap);
         snap->detector.pseudos[0].target_key = leaf->state_key;
         return true;
       }},
      {"unknown key", StatusCode::kFailedPrecondition, "'rule:forged|",
       [](const RcedaEngine&, Snap* snap) {
         for (snapshot::NodeStateRecord& rec : snap->detector.nodes) {
           if (!rec.slots[0].empty() || !rec.slots[1].empty() ||
               !rec.not_log.empty() || !rec.runs.empty()) {
             rec.state_key = "rule:forged|" + rec.state_key;
             return true;
           }
         }
         return false;
       }},
      {"duplicate key", StatusCode::kInvalidArgument,
       "two records for state key",
       [](const RcedaEngine&, Snap* snap) {
         std::vector<snapshot::NodeStateRecord>& nodes = snap->detector.nodes;
         if (nodes.empty()) return false;
         nodes.push_back(snapshot::NodeStateRecord(nodes.front()));
         return true;
       }},
      {"live anchor past its parent's entries", StatusCode::kInvalidArgument,
       "live pseudo anchor outside",
       [](const RcedaEngine&, Snap* snap) {
         for (snapshot::PseudoRecord& pseudo : snap->detector.pseudos) {
           if (pseudo.anchor_kind != snapshot::AnchorKind::kLive) continue;
           for (const snapshot::NodeStateRecord& rec : snap->detector.nodes) {
             if (rec.state_key != pseudo.parent_key) continue;
             pseudo.anchor_pos = static_cast<uint32_t>(
                 rec.slots[pseudo.anchor_slot].size());
             return true;
           }
         }
         return false;
       }},
      {"unknown rule id in the counts", StatusCode::kInvalidArgument,
       "counts for unknown rule",
       [](const RcedaEngine&, Snap* snap) {
         if (snap->rules.empty()) return false;
         snap->rules[0].rule_id += "_forged";
         return true;
       }},
      {"fingerprint mismatch", StatusCode::kFailedPrecondition, "fingerprint",
       [](const RcedaEngine&, Snap* snap) {
         snap->fingerprint ^= 1;
         return true;
       }},
  };
  return rows;
}

}  // namespace rfidcep::engine::testing

#endif  // RFIDCEP_TESTS_ENGINE_TEST_UTIL_H_
