// Regression: a checkpoint captured on a data-partitioned engine must
// restore into any layout without inventing or losing matches for
// negation (WITHIN ... AND NOT ...) rules whose confirmation pseudos
// straddle the cut. Distilled from differential-fuzz seed 51365158574:
// two EPC keys on different replicas each hold an open negation window
// at the capture instant, and the merged snapshot has to keep each
// pending confirmation anchored to ITS OWN initiator.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "events/observation.h"
#include "rules/parser.h"

namespace rfidcep::engine {
namespace {

using events::Observation;

constexpr char kNegationRule[] =
    "CREATE RULE f1, fuzz distilled\n"
    "ON WITHIN((observation(\"B\", o, t2) AND NOT observation(\"C\", o, t1)),"
    " 15sec)\n"
    "IF true DO act\n";

struct Span {
  std::string rule;
  TimePoint t_begin;
  TimePoint t_end;
  friend bool operator==(const Span& a, const Span& b) {
    return a.rule == b.rule && a.t_begin == b.t_begin && a.t_end == b.t_end;
  }
};

struct Harness {
  std::unique_ptr<RcedaEngine> engine;
  std::vector<Span> matches;

  static std::unique_ptr<Harness> Make(int shards) {
    auto h = std::make_unique<Harness>();
    EngineOptions options;
    options.detector.context = ParameterContext::kChronicle;
    options.shards = shards;
    options.enable_metrics = true;
    h->engine = std::make_unique<RcedaEngine>(/*db=*/nullptr,
                                              events::Environment{}, options);
    std::vector<Span>* out = &h->matches;
    h->engine->SetMatchCallback(
        [out](const rules::Rule& rule, const events::EventInstancePtr& e) {
          out->push_back(Span{rule.id, e->t_begin(), e->t_end()});
        });
    if (!h->engine->AddRulesFromText(kNegationRule).ok()) return nullptr;
    if (!h->engine->Compile().ok()) return nullptr;
    return h;
  }
};

std::vector<Observation> Stream() {
  // Trimmed from the fuzz stream: B,z opens a window at 3s (falsified by
  // C,z at 11.999s), B,y opens one at 5.999s (falsified by C,y at
  // 19.999s — after the cut). Neither rule instance may fire.
  return {
      {"B", "z", 3000000},
      {"B", "y", 5999999},
      {"C", "z", 11999999},
      {"B", "z", 12999998},
      {"A", "y", 14999998},  // <- cut after this observation
      {"B", "z", 15999998},
      {"C", "y", 19999999},
      {"A", "y", 42000000},
  };
}

uint64_t NodeFirings(RcedaEngine& engine) {
  uint64_t sum = 0;
  for (const auto& [name, value] : engine.metrics_registry().CounterValues()) {
    if (name.starts_with("graph_node_firings_total{")) sum += value;
  }
  return sum;
}

void RunCutAt(size_t cut, int src_shards, int tgt_shards) {
  std::vector<Observation> stream = Stream();
  ASSERT_LE(cut, stream.size());

  auto reference = Harness::Make(1);
  ASSERT_NE(reference, nullptr);
  ASSERT_TRUE(reference->engine->ProcessAll(stream).ok());
  ASSERT_TRUE(reference->engine->Flush().ok());

  auto source = Harness::Make(src_shards);
  ASSERT_NE(source, nullptr);
  std::vector<Observation> head(stream.begin(),
                                stream.begin() + static_cast<long>(cut));
  std::vector<Observation> tail(stream.begin() + static_cast<long>(cut),
                                stream.end());
  ASSERT_TRUE(source->engine->ProcessAll(head).ok());
  std::string bytes;
  ASSERT_TRUE(source->engine->SerializeState(&bytes).ok());

  auto target = Harness::Make(tgt_shards);
  ASSERT_NE(target, nullptr);
  ASSERT_TRUE(target->engine->RestoreState(bytes).ok());
  // Counters copy verbatim only between serial engines. With a sharded
  // side, per-node firings stay with the layout that did the work, also
  // at 2 -> 2 and 4 -> 4, where the worker counts agree.
  EXPECT_EQ(NodeFirings(*target->engine),
            src_shards == 1 && tgt_shards == 1
                ? NodeFirings(*source->engine)
                : 0u)
      << src_shards << " -> " << tgt_shards;
  ASSERT_TRUE(target->engine->ProcessAll(tail).ok());
  ASSERT_TRUE(target->engine->Flush().ok());

  std::vector<Span> combined = source->matches;
  combined.insert(combined.end(), target->matches.begin(),
                  target->matches.end());
  EXPECT_EQ(combined, reference->matches)
      << "cut " << cut << ", " << src_shards << " -> " << tgt_shards;
}

TEST(DataPartitionRecoveryTest, PendingNegationWindowsStayPerKey) {
  // The fuzz failure: 2-shard data-partitioned capture between the two
  // falsifiers, restored serially, fired y's window with z's deadline.
  for (size_t cut = 0; cut <= Stream().size(); ++cut) {
    RunCutAt(cut, /*src_shards=*/2, /*tgt_shards=*/1);
  }
}

TEST(DataPartitionRecoveryTest, AllLayoutPairsAgree) {
  for (int src_shards : {1, 2, 4}) {
    for (int tgt_shards : {1, 2, 4}) {
      RunCutAt(/*cut=*/5, src_shards, tgt_shards);
    }
  }
}

}  // namespace
}  // namespace rfidcep::engine
