// Differential semantics fuzzing: every execution of a random case must
// agree:
//
//   1. reference interpreter (src/engine/reference/) vs serial Detector —
//      per-rule span multisets, in the chronicle and the unrestricted
//      context. On the same runs every case also checks that chronicle
//      spans are a sub-multiset of unrestricted ones, that no
//      constituent serves two chronicle matches of one rule, and that
//      every match re-validates against its rule's declarative
//      constraints under chronicle, recent, continuous and unrestricted;
//   2. single-shot Process loop vs batch-split ProcessAll — per-rule span
//      lists in exact firing order, as for every engine-vs-engine axis;
//   3. end-of-stream Flush vs incremental AdvanceTo interleaved between
//      observations (pseudo events fire early instead of at Flush), and
//      runs with every complete join key forced onto one chain
//      (debug_force_join_collisions), so the flat join buffers unlink
//      and expire entries of mixed join tuples;
//   4. crash-recovery axis — a checkpoint at a salt-chosen prefix,
//      restored into a fresh engine, must continue to the uninterrupted
//      run's matches, and re-serialize to the same bytes;
//   5. durable (WAL) crash axis — rules carry real SQL actions against
//      the RFID store, the run is killed at a salt-chosen BYTE offset in
//      the write-ahead log (mid-record torn tails included), and
//      WAL replay + snapshot restore must reproduce the uninterrupted
//      run's match stream AND byte-identical final tables (exactly-once
//      effects);
//   6. metamorphic rewrite axis — each case's compiled rule expressions
//      get a random chain of provably equivalent rewrites
//      (engine/rewrite.h: operand permutation, OR rotation, ⊥-branch
//      introduction, SEQ⇄TSEQ, bound slack, WITHIN push); original and
//      rewritten programs must agree through the reference interpreter
//      and the engine — ordered when the chain preserves order, as
//      multisets otherwise;
//   7. reader-group axis — leaves naming reader groups (`group(r) = …`,
//      a reader literal naming a group); the engine must equal the
//      reference in spans and in the r_location values its matches bind;
//   8. window-family axis — each rule must match alike with and without
//      its window siblings, in every parameter context.
//
// Every engine and the reference run with one fixed environment
// (FuzzEnvironment): A and B registered, C not; o0 and o1 are cases, o2
// an item. Fixed NOT-free templates, two of them over groups and types,
// also run through the same checks as a deterministic sweep.
//
// Cases are seeded: random rule sets (OR/AND/NOT/SEQ/TSEQ/SEQ+/TSEQ+/
// WITHIN nested up to depth 4) over random observation streams with
// duplicates, timestamp ties, and boundary-landing gaps. A failing case
// is greedily shrunk (observations first, then rules) and dumped as a
// replayable .rules + .trace pair for scripts/fuzz_repro.sh.
//
// RFIDCEP_FUZZ_CASES scales the sweep (default runs in a few seconds;
// CI's nightly dispatch sets it high). Minimized regressions live in
// tests/property/corpus/ and are replayed by the Corpus test below.

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.h"
#include "engine/engine.h"
#include "engine/reference/reference_interpreter.h"
#include "engine/rewrite.h"
#include "engine/snapshot.h"
#include "engine/state_dir.h"
#include "rules/parser.h"
#include "sim/trace.h"
#include "sim/workload.h"
#include "store/csv.h"
#include "store/database.h"
#include "store/store_image.h"
#include "store/wal.h"
#include "tests/engine/test_util.h"

namespace rfidcep::engine {
namespace {

using events::EventInstancePtr;
using events::Observation;

// A match's time span; sorted lists compare as multisets.
struct Span {
  TimePoint t_begin;
  TimePoint t_end;
  friend auto operator<=>(const Span&, const Span&) = default;
};

// Spans keyed by rule id. Ordered = emission order; callers sort a copy
// when only the multiset matters.
using SpansByRule = std::map<std::string, std::vector<Span>>;
// Every match instance keyed by rule id, in emission order.
using InstancesByRule = std::map<std::string, std::vector<EventInstancePtr>>;

std::vector<Span> Sorted(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end());
  return spans;
}

std::string FormatSpans(const std::vector<Span>& spans) {
  std::ostringstream out;
  out << "{";
  for (const Span& s : spans) {
    out << " [" << s.t_begin << "," << s.t_end << "]";
  }
  out << " }";
  return out.str();
}

// --- Case representation -----------------------------------------------------

struct FuzzCase {
  std::vector<std::string> rules;  // Full CREATE RULE statements.
  std::vector<Observation> stream;

  std::string Program() const {
    std::string out;
    for (const std::string& rule : rules) {
      out += rule;
      out += "\n";
    }
    return out;
  }
};

// --- Generators --------------------------------------------------------------

std::string Sec(int64_t s) { return std::to_string(s) + "sec"; }

class ExprGen {
 public:
  // `groups` lets leaves name reader groups (see Primitive); off, the
  // generator draws exactly what it drew before groups existed.
  explicit ExprGen(Prng* prng, bool groups = false)
      : prng_(*prng), groups_(groups) {}

  // One rule event, nested up to `depth` constructor levels below the
  // mandatory root WITHIN (which bounds every expiry window, keeping the
  // rule compilable).
  std::string Root(int depth) {
    return "WITHIN(" + Expr(depth, /*safe=*/true) + ", " +
           Sec(prng_.UniformInt(6, 16)) + ")";
  }

  // Variables every firing of the rule is guaranteed to bind to a single
  // scalar: collected only from leaves outside OR branches, negations,
  // and SEQ+ bodies (whose repeats bind multis). SQL actions draw their
  // parameters from these so generated statements never hit the
  // unbound-parameter error path.
  const std::vector<std::string>& scalar_objects() const {
    return scalar_objects_;
  }
  const std::vector<std::string>& scalar_times() const {
    return scalar_times_;
  }

 private:
  std::string Fresh(const char* base) {
    return std::string(base) + std::to_string(++var_counter_);
  }

  std::string Primitive(bool safe) {
    // Shared variables ("r", "o") across leaves create equality joins;
    // literals anchor the leaf to one reader.
    std::string reader;
    switch (prng_.UniformInt(0, 3)) {
      case 0: reader = "\"A\""; break;
      case 1: reader = "\"B\""; break;
      case 2: reader = "\"C\""; break;
      default: reader = "r"; break;
    }
    std::string object = prng_.Chance(0.4) ? "o" : Fresh("o");
    std::string time = Fresh("t");
    if (safe) {
      scalar_objects_.push_back(object);
      scalar_times_.push_back(time);
    }
    // Group choices come after every draw above. Under the harness
    // registry, G is A's and B's group, C is its own, and no reader's
    // group is A.
    std::string constraint;
    if (groups_) {
      static const char* kGroups[] = {"G", "C", "A"};
      const int64_t choice = prng_.UniformInt(0, 5);
      if (choice == 1) {
        reader = "\"G\"";  // A reader literal naming a group.
      } else if (choice >= 2 && choice <= 4) {
        reader = "r";
        constraint = std::string(", group(r) = \"") + kGroups[choice - 2] +
                     "\"";
      } else if (choice == 5) {
        constraint = ", group(r) = \"G\"";  // On the reader as drawn.
      }
    }
    return "observation(" + reader + ", " + object + ", " + time + ")" +
           constraint;
  }

  std::string Expr(int depth, bool safe) {
    if (depth <= 0 || prng_.Chance(0.25)) return Primitive(safe);
    switch (prng_.UniformInt(0, 7)) {
      case 0:
        // A firing binds only the matched branch's variables.
        return "(" + Expr(depth - 1, false) + " OR " + Expr(depth - 1, false) +
               ")";
      case 1:
        return "(" + Expr(depth - 1, safe) + " AND " + Expr(depth - 1, safe) +
               ")";
      case 2:
        return "SEQ(" + Expr(depth - 1, safe) + "; " + Expr(depth - 1, safe) +
               ")";
      case 3: {
        int64_t lo = prng_.UniformInt(0, 2);
        int64_t hi = lo + prng_.UniformInt(0, 4);
        return "TSEQ(" + Expr(depth - 1, safe) + "; " + Expr(depth - 1, safe) +
               ", " + Sec(lo) + ", " + Sec(hi) + ")";
      }
      case 4:
        return "WITHIN(" + Expr(depth - 1, safe) + ", " +
               Sec(prng_.UniformInt(2, 10)) + ")";
      case 5:
        // Negation as a conjunction sibling (Fig. 8's shoplifting shape).
        return "(" + Expr(depth - 1, safe) + " AND NOT " + Primitive(false) +
               ")";
      case 6: {
        // Negation inside a sequence, either side.
        int64_t lo = prng_.UniformInt(0, 1);
        int64_t hi = lo + prng_.UniformInt(1, 4);
        if (prng_.Chance(0.5)) {
          return "TSEQ(NOT " + Primitive(false) + "; " +
                 Expr(depth - 1, safe) + ", " + Sec(lo) + ", " + Sec(hi) + ")";
        }
        return "TSEQ(" + Expr(depth - 1, safe) + "; NOT " + Primitive(false) +
               ", " + Sec(lo) + ", " + Sec(hi) + ")";
      }
      default: {
        // Bounded aperiodic runs: standalone (root WITHIN bounds the
        // expiry) or as a TSEQ initiator under the documented regime
        // (outer dist_lo >= inner dist_hi; see DESIGN.md §3).
        int64_t lo = prng_.UniformInt(0, 1);
        int64_t hi = lo + prng_.UniformInt(1, 3);
        std::string plus = "TSEQ+(" + Primitive(false) + ", " + Sec(lo) +
                           ", " + Sec(hi) + ")";
        if (prng_.Chance(0.5)) return plus;
        int64_t outer_lo = hi + prng_.UniformInt(0, 2);
        int64_t outer_hi = outer_lo + prng_.UniformInt(1, 4);
        return "TSEQ(" + plus + "; " + Primitive(safe) + ", " +
               Sec(outer_lo) + ", " + Sec(outer_hi) + ")";
      }
    }
  }

  Prng& prng_;
  bool groups_;
  int var_counter_ = 0;
  std::vector<std::string> scalar_objects_;
  std::vector<std::string> scalar_times_;
};

// A DO clause over parameters the match always binds (the durable crash
// axis): the paper's location-maintenance UPDATE+INSERT pair, plain
// INSERTs into the RFID tables, and an SQL+procedure mix. Every
// statement stays executable, so a store divergence means lost or
// doubled effects, not error-path noise. The UPDATE's WHERE is scoped to
// the rule's own loc_id, so rules never rewrite each other's rows.
std::string GenActions(Prng* prng, const ExprGen& gen, int rule_index) {
  const std::vector<std::string>& objects = gen.scalar_objects();
  const std::vector<std::string>& times = gen.scalar_times();
  if (objects.empty() || times.empty()) {
    return "INSERT INTO OBSERVATION VALUES (\"wal\", \"probe\", 1)";
  }
  auto pick = [prng](const std::vector<std::string>& v) {
    return v[static_cast<size_t>(
        prng->UniformInt(0, static_cast<int64_t>(v.size()) - 1))];
  };
  const std::string o = pick(objects);
  const std::string t = pick(times);
  const std::string loc = "\"L" + std::to_string(rule_index) + "\"";
  switch (prng->UniformInt(0, 3)) {
    case 0:
      return "UPDATE OBJECTLOCATION SET tend = " + t +
             " WHERE object_epc = " + o + " AND loc_id = " + loc +
             " AND tend = \"UC\"; " + "INSERT INTO OBJECTLOCATION VALUES (" +
             o + ", " + loc + ", " + t + ", \"UC\")";
    case 1:
      return "INSERT INTO OBSERVATION VALUES (\"relay\", " + o + ", " + t +
             ")";
    case 2:
      // Half the mixes end in an alarm-named procedure so the durable
      // axis exercises both kProcedure and kAlarm WAL frames.
      return "INSERT INTO OBJECTCONTAINMENT VALUES (" + o + ", " + loc +
             ", " + t + ", \"UC\"); " +
             (prng->UniformInt(0, 1) != 0 ? "raise alarm" : "act");
    default:
      return "INSERT INTO OBSERVATION VALUES (\"wal\", \"probe\", 1)";
  }
}

// One syntactically valid, compilable rule. Random shapes can violate
// graph validation (unbounded expiry through an OR, pull-mode roots); the
// generator retries and finally falls back to a known-good template.
std::string GenRule(Prng* prng, int rule_index, int depth,
                    bool sql_actions = false, bool groups = false) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    ExprGen gen(prng, groups);
    std::string root = gen.Root(depth);
    std::string action =
        sql_actions ? GenActions(prng, gen, rule_index) : "act";
    std::string text = "CREATE RULE f" + std::to_string(rule_index) +
                       ", fuzz generated ON " + root + " IF true DO " +
                       action;
    Result<rules::RuleSet> set = rules::ParseRuleProgram(text);
    if (!set.ok()) continue;
    if (EventGraph::Build(set->rules).ok()) return text;
  }
  return "CREATE RULE f" + std::to_string(rule_index) +
         ", fuzz fallback ON WITHIN(SEQ(observation(\"A\", o1, t1); "
         "observation(\"B\", o2, t2)), 5sec) IF true DO " +
         (sql_actions
              ? "INSERT INTO OBSERVATION VALUES (\"relay\", o2, t2)"
              : "act");
}

// Sorted stream with heavy timestamp ties and steps that land exactly on
// (and one microsecond off) the whole-second bounds the rules use.
std::vector<Observation> GenStream(Prng* prng, size_t min_n, size_t max_n) {
  static const Duration kSteps[] = {0,           0,       kSecond,
                                    2 * kSecond, 3 * kSecond, 1,
                                    kSecond - 1};
  static const char* kReaders[] = {"A", "B", "C"};
  static const char* kObjects[] = {"x", "y", "z"};
  size_t n = static_cast<size_t>(
      prng->UniformInt(static_cast<int64_t>(min_n),
                       static_cast<int64_t>(max_n)));
  std::vector<Observation> out;
  out.reserve(n);
  TimePoint t = 0;
  for (size_t i = 0; i < n; ++i) {
    t += kSteps[prng->UniformInt(0, 6)];
    out.push_back(Observation{kReaders[prng->UniformInt(0, 2)],
                              kObjects[prng->UniformInt(0, 2)], t});
  }
  return out;
}

// Airport-baggage stream (satellite 4) mapped onto the harness
// vocabulary: stage readers A→B→C→A so SEQ rules over A/B/C fire on the
// journeys, and duplicated bag EPCs so concurrent journeys collide on
// the join variables. The fuzzer feeds engines in timestamp order, so
// this uses event_order — the batching shows up as heavy burst ties.
std::vector<Observation> BaggageFuzzStream(uint64_t seed) {
  sim::BaggageConfig config;
  config.stage_readers = {"A", "B", "C", "A"};
  Prng prng(seed * 0x100000001b3ULL);
  sim::BaggageWorkload workload =
      sim::GenerateBaggage(config, {"x", "y", "z", "x", "y", "z"}, &prng);
  return workload.event_order;
}

// Redraws every WITHIN bound of `event`: the root's (at offset 0) in
// [6, 16] seconds like ExprGen::Root, nested ones in [2, 10].
std::string RedrawWindows(std::string event, Prng* prng) {
  // Right to left: rewriting a bound never moves an unvisited WITHIN.
  for (size_t at = event.rfind("WITHIN("); at != std::string::npos;
       at = at == 0 ? std::string::npos : event.rfind("WITHIN(", at - 1)) {
    int depth = 0;
    size_t comma = std::string::npos;
    size_t close = std::string::npos;
    for (size_t i = at + 6; i < event.size() && close == std::string::npos;
         ++i) {
      if (event[i] == '(') ++depth;
      if (event[i] == ')' && --depth == 0) close = i;
      if (event[i] == ',' && depth == 1) comma = i;
    }
    if (comma == std::string::npos || close == std::string::npos) continue;
    const bool root = at == 0;
    event.replace(comma + 2, close - comma - 2,
                  Sec(prng->UniformInt(root ? 6 : 2, root ? 16 : 10)));
  }
  return event;
}

// A window sibling of generated rule f<from>: the same rule as f<to>
// with every WITHIN bound redrawn, so both rules' nodes fall into one
// window family and share its buffers. A durable action keeps to the new
// rule's own loc_id.
std::string WindowSibling(const std::string& rule, int from, int to,
                          Prng* prng) {
  const std::string old_id = "CREATE RULE f" + std::to_string(from) + ",";
  const size_t on = rule.find(" ON ");
  const size_t tail = rule.find(" IF ", on);
  std::string action = rule.substr(tail);
  const std::string old_loc = "\"L" + std::to_string(from) + "\"";
  const std::string new_loc = "\"L" + std::to_string(to) + "\"";
  for (size_t at = action.find(old_loc); at != std::string::npos;
       at = action.find(old_loc, at + new_loc.size())) {
    action.replace(at, old_loc.size(), new_loc);
  }
  return "CREATE RULE f" + std::to_string(to) + "," +
         rule.substr(old_id.size(), on + 4 - old_id.size()) +
         RedrawWindows(rule.substr(on + 4, tail - on - 4), prng) + action;
}

// About a third of the cases get one or two window siblings of a random
// rule (drawn after the stream, so the rest of the case is what the seed
// drew before siblings existed). Siblings that do not compile are
// skipped.
void AddWindowSiblings(Prng* prng, FuzzCase* c) {
  if (!prng->Chance(0.35)) return;
  const int base = static_cast<int>(
      prng->UniformInt(0, static_cast<int64_t>(c->rules.size()) - 1));
  const int siblings = static_cast<int>(prng->UniformInt(1, 2));
  for (int i = 0; i < siblings; ++i) {
    const int index = static_cast<int>(c->rules.size());
    std::string text = WindowSibling(c->rules[base], base, index, prng);
    Result<rules::RuleSet> set = rules::ParseRuleProgram(text);
    if (!set.ok()) continue;
    if (EventGraph::Build(set->rules).ok()) c->rules.push_back(std::move(text));
  }
}

FuzzCase GenCase(uint64_t seed) {
  Prng prng(seed);
  FuzzCase c;
  int num_rules = static_cast<int>(prng.UniformInt(1, 3));
  for (int i = 0; i < num_rules; ++i) {
    c.rules.push_back(GenRule(&prng, i, /*depth=*/3));
  }
  c.stream = GenStream(&prng, 20, 60);
  AddWindowSiblings(&prng, &c);
  return c;
}

// Like GenCase, but every rule carries real SQL actions against the RFID
// store — the input to the durable (WAL) crash axis.
FuzzCase GenDurableCase(uint64_t seed) {
  Prng prng(seed);
  FuzzCase c;
  int num_rules = static_cast<int>(prng.UniformInt(1, 3));
  for (int i = 0; i < num_rules; ++i) {
    c.rules.push_back(GenRule(&prng, i, /*depth=*/3, /*sql_actions=*/true));
  }
  c.stream = GenStream(&prng, 20, 60);
  AddWindowSiblings(&prng, &c);
  return c;
}

// Rules whose leaves name reader groups, over the harness registry: the
// registered-reader dispatch path and its r_location bindings.
FuzzCase GenGroupCase(uint64_t seed) {
  Prng prng(seed);
  FuzzCase c;
  int num_rules = static_cast<int>(prng.UniformInt(1, 3));
  for (int i = 0; i < num_rules; ++i) {
    c.rules.push_back(GenRule(&prng, i, /*depth=*/3, /*sql_actions=*/false,
                              /*groups=*/true));
  }
  c.stream = GenStream(&prng, 20, 60);
  return c;
}

// --- Execution protocols -----------------------------------------------------

// The harness's one environment. Its reader registry has A and B in
// group G at distinct locations and C unregistered (group(C) = C, no
// location), so reader literals reach registered and unregistered readers
// alike and r-variable leaves bind r_location for A and B. Its catalog
// types o0 and o1 as cases and o2 as an item, for the fixed templates'
// type constraints. Every engine and the reference run with it.
const events::Environment& FuzzEnvironment() {
  static const epc::ReaderRegistry readers = [] {
    epc::ReaderRegistry registry;
    registry.RegisterReader("A", "G", "LA");
    registry.RegisterReader("B", "G", "LB");
    return registry;
  }();
  static const epc::ProductCatalog catalog = [] {
    epc::ProductCatalog types;
    types.RegisterExact("o0", "case");
    types.RegisterExact("o1", "case");
    types.RegisterExact("o2", "item");
    return types;
  }();
  static const events::Environment env{&catalog, &readers};
  return env;
}

// A match's span plus the r_location values it binds ("" when none; a
// SEQ+ run's values in run order).
using LocatedSpan = std::pair<Span, std::string>;

LocatedSpan Locate(const events::EventInstance& e) {
  const events::SymbolId sym = events::FindSymbol("r_location");
  const events::Bindings& bindings = e.bindings();
  std::string where;
  if (const events::BindingValue* value = bindings.FindScalar(sym)) {
    where = events::BindingValueToString(*value);
  } else if (const auto* values = bindings.FindMulti(sym)) {
    for (const events::BindingValue& value : *values) {
      where += events::BindingValueToString(value) + ";";
    }
  }
  return {Span{e.t_begin(), e.t_end()}, std::move(where)};
}

struct RunSpec {
  bool split_batch = false;  // Two ProcessAll halves instead of Process.
  bool incremental = false;  // AdvanceTo interleaved between observations.
  bool tolerate_out_of_order = false;
  // Every complete join key onto one chain (DetectorOptions): distinct
  // join tuples share a chain, so pairing, unlinking and expiry run on
  // mixed chains instead of one chain per tuple.
  bool force_join_collisions = false;
  ParameterContext context = ParameterContext::kChronicle;
};

// A non-null `instances` also receives every match instance.
SpansByRule RunEngine(const std::string& program,
                      const std::vector<Observation>& stream, RunSpec spec,
                      InstancesByRule* instances = nullptr) {
  EngineOptions options;
  options.detector.context = spec.context;
  options.detector.tolerate_out_of_order = spec.tolerate_out_of_order;
  options.detector.debug_force_join_collisions = spec.force_join_collisions;
  RcedaEngine engine(/*db=*/nullptr, FuzzEnvironment(), options);
  SpansByRule out;
  engine.SetMatchCallback(
      [&out, instances](const rules::Rule& rule, const EventInstancePtr& e) {
        out[rule.id].push_back(Span{e->t_begin(), e->t_end()});
        if (instances != nullptr) (*instances)[rule.id].push_back(e);
      });
  EXPECT_TRUE(engine.AddRulesFromText(program).ok());
  EXPECT_TRUE(engine.Compile().ok());
  // Every rule id present even when it never fires, so comparisons see
  // empty-vs-nonempty instead of missing keys.
  for (size_t i = 0; i < engine.num_rules(); ++i) {
    out[engine.rule(i).id];
    if (instances != nullptr) (*instances)[engine.rule(i).id];
  }

  if (spec.split_batch) {
    size_t half = stream.size() / 2;
    std::vector<Observation> a(stream.begin(), stream.begin() + half);
    std::vector<Observation> b(stream.begin() + half, stream.end());
    EXPECT_TRUE(engine.ProcessAll(a).ok());
    EXPECT_TRUE(engine.ProcessAll(b).ok());
  } else if (spec.incremental) {
    TimePoint prev = 0;
    for (const Observation& obs : stream) {
      if (obs.timestamp > prev) {
        // Advance to the midpoint and then to the observation's own
        // instant before processing it — pseudo events fire early, and
        // the boundary pseudo at exactly obs.timestamp must stay pending.
        EXPECT_TRUE(
            engine.AdvanceTo(prev + (obs.timestamp - prev) / 2).ok());
        EXPECT_TRUE(engine.AdvanceTo(obs.timestamp).ok());
      }
      EXPECT_TRUE(engine.Process(obs).ok());
      prev = obs.timestamp;
    }
  } else {
    for (const Observation& obs : stream) {
      EXPECT_TRUE(engine.Process(obs).ok());
    }
  }
  EXPECT_TRUE(engine.Flush().ok());
  return out;
}

// The oracle runs each rule's own interval-propagated event, never the
// graph under test, so how the compiler shares or rewrites nodes cannot
// leak into the expected spans. `context` is chronicle or unrestricted,
// the two the interpreter defines (it fails on the others).
Result<SpansByRule> RunReference(const rules::RuleSet& set,
                                 const std::vector<Observation>& stream,
                                 ParameterContext context,
                                 InstancesByRule* instances = nullptr) {
  SpansByRule out;
  for (size_t i = 0; i < set.rules.size(); ++i) {
    reference::ReferenceOptions options;
    options.context = context;
    reference::ReferenceInterpreter interp(
        PropagateIntervalConstraints(set.rules[i].event), &FuzzEnvironment(),
        options);
    Result<std::vector<EventInstancePtr>> matches = interp.Run(stream);
    if (!matches.ok()) return matches.status();
    std::vector<Span>& spans = out[set.rules[i].id];
    for (const EventInstancePtr& e : *matches) {
      spans.push_back(Span{e->t_begin(), e->t_end()});
      if (instances != nullptr) (*instances)[set.rules[i].id].push_back(e);
    }
  }
  return out;
}

// Re-checks every temporal constraint and variable join of `expr` on a
// detected instance tree: whatever a context selects must satisfy the
// rule as declared.
bool ValidateInstance(const events::EventExpr& expr,
                      const events::EventInstance& instance) {
  using events::ExprOp;
  if (expr.has_within() && instance.interval() > expr.within()) return false;
  switch (expr.op()) {
    case ExprOp::kPrimitive:
      return instance.is_primitive();
    case ExprOp::kOr:
      for (const events::EventExprPtr& child : expr.children()) {
        if (ValidateInstance(*child, instance)) return true;
      }
      return false;
    case ExprOp::kAnd: {
      if (instance.children().size() != 2) return false;
      const events::EventInstance& a = *instance.children()[0];
      const events::EventInstance& b = *instance.children()[1];
      if (!a.bindings().UnifiesWith(b.bindings())) return false;
      return (ValidateInstance(*expr.children()[0], a) &&
              ValidateInstance(*expr.children()[1], b)) ||
             (ValidateInstance(*expr.children()[0], b) &&
              ValidateInstance(*expr.children()[1], a));
    }
    case ExprOp::kSeq: {
      if (instance.children().size() != 2) return false;
      const events::EventInstance& first = *instance.children()[0];
      const events::EventInstance& second = *instance.children()[1];
      // A synthetic non-occurrence child (NOT side) has no children and
      // no observation; skip structural checks for it.
      bool first_synth = !first.is_primitive() && first.children().empty();
      bool second_synth = !second.is_primitive() && second.children().empty();
      if (!first_synth && !second_synth) {
        if (first.t_end() >= second.t_begin()) return false;
        Duration d = events::Dist(first, second);
        if (d < expr.dist_lo() || d > expr.dist_hi()) return false;
      }
      bool first_ok = first_synth ||
                      ValidateInstance(*expr.children()[0], first);
      bool second_ok = second_synth ||
                       ValidateInstance(*expr.children()[1], second);
      return first_ok && second_ok;
    }
    case ExprOp::kSeqPlus: {
      if (instance.children().empty()) return false;
      for (size_t i = 0; i < instance.children().size(); ++i) {
        if (!ValidateInstance(*expr.children()[0], *instance.children()[i])) {
          return false;
        }
        if (i > 0) {
          Duration d = events::Dist(*instance.children()[i - 1],
                                    *instance.children()[i]);
          if (d < expr.dist_lo() || d > expr.dist_hi()) return false;
        }
      }
      return true;
    }
    case ExprOp::kNot:
      return true;  // Absence is the reference's to check.
  }
  return false;
}

// Runs all execution protocols and the per-case invariants; returns a
// description of the first divergence, or nullopt when they all agree.
std::optional<std::string> CheckCase(const FuzzCase& c) {
  std::string program = c.Program();
  Result<rules::RuleSet> set = rules::ParseRuleProgram(program);
  if (!set.ok()) return "parse failed: " + set.status().ToString();
  Result<EventGraph> graph = EventGraph::Build(set->rules);
  if (!graph.ok()) return "graph build failed: " + graph.status().ToString();

  InstancesByRule chronicle, unrestricted;
  SpansByRule serial = RunEngine(program, c.stream, RunSpec{}, &chronicle);
  SpansByRule exhaustive = RunEngine(
      program, c.stream,
      RunSpec{.context = ParameterContext::kUnrestricted}, &unrestricted);
  for (auto [context, engine] :
       {std::pair{ParameterContext::kChronicle, &serial},
        std::pair{ParameterContext::kUnrestricted, &exhaustive}}) {
    Result<SpansByRule> reference = RunReference(*set, c.stream, context);
    if (!reference.ok()) {
      return "reference interpreter failed: " +
             reference.status().ToString();
    }
    for (const auto& [rule_id, expected] : *reference) {
      std::vector<Span> actual = Sorted((*engine)[rule_id]);
      if (Sorted(expected) != actual) {
        return "reference vs serial divergence (" +
               std::string(ParameterContextName(context)) + ") on rule " +
               rule_id + "\n  reference: " + FormatSpans(Sorted(expected)) +
               "\n  serial:    " + FormatSpans(actual);
      }
    }
  }

  const struct {
    const char* name;
    RunSpec spec;
  } kProtocols[] = {
      {"batch-split ProcessAll", RunSpec{.split_batch = true}},
      {"incremental AdvanceTo", RunSpec{.incremental = true}},
      {"serial forced-collisions", RunSpec{.force_join_collisions = true}},
  };
  for (const auto& protocol : kProtocols) {
    SpansByRule other = RunEngine(program, c.stream, protocol.spec);
    for (const auto& [rule_id, expected] : serial) {
      // Exact emission order per rule: the pseudo firing path
      // guarantees it.
      if (other[rule_id] != expected) {
        return std::string("serial vs ") + protocol.name +
               " divergence on rule " + rule_id +
               "\n  serial: " + FormatSpans(expected) + "\n  " +
               protocol.name + ": " + FormatSpans(other[rule_id]);
      }
    }
  }

  // Chronicle selects among the unrestricted matches and consumes what
  // it pairs: per rule, its spans are a sub-multiset of unrestricted's,
  // and no constituent serves two of its matches.
  for (const auto& [rule_id, spans] : serial) {
    const std::vector<Span> chosen = Sorted(spans);
    const std::vector<Span> all = Sorted(exhaustive[rule_id]);
    if (!std::includes(all.begin(), all.end(), chosen.begin(), chosen.end())) {
      return "chronicle is not a subset of unrestricted on rule " + rule_id +
             "\n  chronicle:    " + FormatSpans(chosen) +
             "\n  unrestricted: " + FormatSpans(all);
    }
    std::set<uint64_t> used;
    for (const EventInstancePtr& match : chronicle[rule_id]) {
      for (const EventInstancePtr& part : match->children()) {
        // A NOT side's synthetic instance constitutes nothing.
        if (part->children().empty() && !part->is_primitive()) continue;
        if (!used.insert(part->sequence_number()).second) {
          return "constituent reused by two chronicle matches of rule " +
                 rule_id + ": " + match->ToString();
        }
      }
    }
  }

  // Every match of every context with a declarative reading satisfies
  // its rule's constraints.
  InstancesByRule recent, continuous;
  RunEngine(program, c.stream, RunSpec{.context = ParameterContext::kRecent},
            &recent);
  RunEngine(program, c.stream,
            RunSpec{.context = ParameterContext::kContinuous}, &continuous);
  for (auto [context, matches] :
       {std::pair{ParameterContext::kChronicle, &chronicle},
        std::pair{ParameterContext::kRecent, &recent},
        std::pair{ParameterContext::kContinuous, &continuous},
        std::pair{ParameterContext::kUnrestricted, &unrestricted}}) {
    for (const rules::Rule& rule : set->rules) {
      for (const EventInstancePtr& match : (*matches)[rule.id]) {
        if (!ValidateInstance(*rule.event, *match)) {
          return std::string(ParameterContextName(context)) +
                 " match of rule " + rule.id +
                 " violates its constraints: " + match->ToString();
        }
      }
    }
  }
  return std::nullopt;
}

// --- Crash-recovery protocol (tentpole validation) ---------------------------
//
// Checkpoint at a salt-chosen prefix, restore into a fresh engine,
// continue the stream: (prefix matches on the source) + (suffix matches
// on the restored engine) must equal the uninterrupted run exactly, per
// rule, in emission order. The snapshot is additionally required to be
// byte-idempotent (restore + re-serialize reproduces the same bytes), and
// a forged copy of it must be refused without changing the restored
// engine.

struct RecoveryEngine {
  std::unique_ptr<RcedaEngine> engine;
  SpansByRule matches;

  static std::unique_ptr<RecoveryEngine> Make(
      const std::string& program,
      ParameterContext context = ParameterContext::kChronicle) {
    auto r = std::make_unique<RecoveryEngine>();
    EngineOptions options;
    options.detector.context = context;
    r->engine = std::make_unique<RcedaEngine>(/*db=*/nullptr,
                                              FuzzEnvironment(), options);
    SpansByRule* out = &r->matches;
    r->engine->SetMatchCallback(
        [out](const rules::Rule& rule, const EventInstancePtr& e) {
          (*out)[rule.id].push_back(Span{e->t_begin(), e->t_end()});
        });
    if (!r->engine->AddRulesFromText(program).ok()) return nullptr;
    if (!r->engine->Compile().ok()) return nullptr;
    for (size_t i = 0; i < r->engine->num_rules(); ++i) {
      r->matches[r->engine->rule(i).id];
    }
    return r;
  }
};

// Restores into `engine`, which captures `bytes`, a copy of `bytes` with
// one edit of testing::ForgedRestores that fits the capture, chosen by the
// salt and the capture. The restore must be refused with the row's code,
// and the engine must capture `bytes` again. The row drawn is counted in
// `drawn` when given.
std::optional<std::string> CheckForgedRestore(
    RcedaEngine& engine, const std::string& bytes, uint64_t salt,
    std::map<std::string, int>* drawn) {
  snapshot::EngineSnapshot decoded;
  if (!snapshot::DecodeEngineSnapshot(bytes, &decoded).ok()) {
    return "the capture does not decode";
  }
  std::vector<const testing::ForgedRestore*> fits;
  for (const testing::ForgedRestore& row : testing::ForgedRestores()) {
    snapshot::EngineSnapshot probe = decoded;
    if (row.apply(engine, &probe)) fits.push_back(&row);
  }
  if (fits.empty()) return "no forged restore fits the capture";
  // The capture varies the draw for cases that land on one cut.
  Prng prng(salt ^ std::hash<std::string>()(bytes));
  const testing::ForgedRestore* row = fits[static_cast<size_t>(
      prng.UniformInt(0, static_cast<int64_t>(fits.size()) - 1))];
  if (drawn != nullptr) ++(*drawn)[row->name];
  row->apply(engine, &decoded);
  const Status status =
      engine.RestoreState(snapshot::EncodeEngineSnapshot(decoded));
  if (status.code() != row->code) {
    return std::string("forged restore (") + row->name +
           ") not refused as expected: " + status.ToString();
  }
  std::string again;
  if (!engine.SerializeState(&again).ok() || again != bytes) {
    return std::string("refused forged restore (") + row->name +
           ") changed the engine";
  }
  return std::nullopt;
}

std::optional<std::string> CheckRecoveryCase(
    const FuzzCase& c, uint64_t salt,
    std::map<std::string, int>* forged_drawn = nullptr) {
  std::string program = c.Program();
  Result<rules::RuleSet> set = rules::ParseRuleProgram(program);
  if (!set.ok()) return "parse failed: " + set.status().ToString();
  if (!EventGraph::Build(set->rules).ok()) return std::nullopt;

  SpansByRule reference = RunEngine(program, c.stream, RunSpec{});
  const size_t cut = c.stream.empty() ? 0 : salt % (c.stream.size() + 1);
  const std::vector<Observation> head(c.stream.begin(),
                                      c.stream.begin() +
                                          static_cast<long>(cut));
  const std::vector<Observation> tail(c.stream.begin() +
                                          static_cast<long>(cut),
                                      c.stream.end());

  auto source = RecoveryEngine::Make(program);
  if (source == nullptr) return "source engine failed to compile";
  if (!source->engine->ProcessAll(head).ok()) {
    return "source prefix processing failed";
  }
  std::string bytes;
  if (Status s = source->engine->SerializeState(&bytes); !s.ok()) {
    return "checkpoint failed at cut " + std::to_string(cut) + ": " +
           s.ToString();
  }
  auto target = RecoveryEngine::Make(program);
  if (target == nullptr) return "target engine failed to compile";
  if (Status s = target->engine->RestoreState(bytes); !s.ok()) {
    return "restore failed: " + s.ToString();
  }
  std::string again;
  if (!target->engine->SerializeState(&again).ok() || again != bytes) {
    return "snapshot is not byte-idempotent at cut " + std::to_string(cut);
  }
  if (std::optional<std::string> why =
          CheckForgedRestore(*target->engine, bytes, salt, forged_drawn)) {
    return *why + " (cut " + std::to_string(cut) + ")";
  }
  if (!target->engine->ProcessAll(tail).ok() ||
      !target->engine->Flush().ok()) {
    return "restored suffix processing failed";
  }
  for (const auto& [rule_id, expected] : reference) {
    std::vector<Span> combined = source->matches[rule_id];
    const std::vector<Span>& post = target->matches[rule_id];
    combined.insert(combined.end(), post.begin(), post.end());
    if (combined != expected) {
      return "crash-recovery divergence on rule " + rule_id + " (cut " +
             std::to_string(cut) + "/" + std::to_string(c.stream.size()) +
             ")" + "\n  uninterrupted: " + FormatSpans(expected) +
             "\n  recovered:     " + FormatSpans(combined);
    }
  }
  return std::nullopt;
}

// --- Window families: sharing is invisible ---------------------------------
//
// Rules that differ only by their windows share one window family
// (engine/detector.h): one join buffer per slot, one NOT log, one join
// key per instance. Each rule's span list in an engine holding its window
// siblings must equal that rule run alone — in every parameter context,
// uninterrupted and across a mid-stream checkpoint and restore.

constexpr ParameterContext kAllContexts[] = {
    ParameterContext::kChronicle, ParameterContext::kRecent,
    ParameterContext::kContinuous, ParameterContext::kCumulative,
    ParameterContext::kUnrestricted};

// Family shapes: each @W is a WITHIN bound and each @D a TSEQ distance
// bound, drawn per sibling. SEQ, TSEQ and AND; NOT on either side; a
// nested SEQ whose inner node is the family (the outer ones differ by
// child); a SEQ whose terminator, a TSEQ+ run (one node: its own WITHIN
// is below every sibling's), closes at its expiry pseudo event, after
// the clock has passed some initiators' deadlines; and a SEQ and an AND
// whose one leaf fills both slots (the SEQ never pairs: its join on t
// asks for equal times; the AND pairs each instance with itself).
constexpr const char* kFamilyShapes[] = {
    "WITHIN(SEQ(observation(r, o, t1); observation(r, o, t2)), @W)",
    "WITHIN(TSEQ(observation(\"A\", o, t1); observation(\"B\", o, t2), "
    "0sec, @D), @W)",
    "WITHIN(observation(\"A\", o, t1) AND observation(r, o, t2), @W)",
    "WITHIN(observation(\"A\", o, t1) AND NOT observation(\"C\", o, t2), "
    "@W)",
    "WITHIN(NOT observation(\"C\", o, t1) AND observation(\"A\", o, t2), "
    "@W)",
    "WITHIN(TSEQ(NOT observation(\"C\", o, t1); observation(\"B\", o, t2), "
    "0sec, @D), @W)",
    "WITHIN(TSEQ(observation(\"A\", o, t1); NOT observation(\"C\", o, t2), "
    "0sec, @D), @W)",
    "WITHIN(SEQ(WITHIN(SEQ(observation(\"A\", o, t1); "
    "observation(\"B\", o, t2)), @W); observation(r, o, t3)), @W)",
    "WITHIN(SEQ(observation(\"A\", o, t1); "
    "WITHIN(TSEQ+(observation(\"B\", o2, t2), 0sec, 1sec), 2sec)), @W)",
    "WITHIN(SEQ(observation(\"A\", o, t); observation(\"A\", o, t)), @W)",
    "WITHIN(observation(\"A\", o, t) AND observation(\"A\", o, t), @W)",
};

// The leaf patterns of `shape`: its `observation(...)` terms.
std::set<std::string> LeafPatterns(const std::string& shape) {
  std::set<std::string> out;
  for (size_t at = shape.find("observation("); at != std::string::npos;
       at = shape.find("observation(", at + 1)) {
    out.insert(shape.substr(at, shape.find(')', at) - at));
  }
  return out;
}

// Two to four window siblings of one shape over a random stream. In
// about half of the cases one rule of another shape sharing a leaf sits
// between two siblings, so that leaf's parent list splits the family's
// members into two runs (Detector::BuildRuns).
FuzzCase GenFamilyCase(uint64_t seed) {
  Prng prng(seed);
  const int64_t last = static_cast<int64_t>(std::size(kFamilyShapes)) - 1;
  const std::string shape = kFamilyShapes[prng.UniformInt(0, last)];
  auto instantiate = [&prng](const std::string& pattern) {
    std::string event;
    for (size_t at = 0; at < pattern.size(); ++at) {
      if (pattern[at] == '@') {
        event += pattern[at + 1] == 'W' ? Sec(prng.UniformInt(2, 10))
                                        : Sec(prng.UniformInt(1, 4));
        ++at;
      } else {
        event += pattern[at];
      }
    }
    return event;
  };
  FuzzCase c;
  const int siblings = static_cast<int>(prng.UniformInt(2, 4));
  for (int i = 0; i < siblings; ++i) {
    c.rules.push_back("CREATE RULE s" + std::to_string(i) +
                      ", window sibling ON " + instantiate(shape) +
                      " IF true DO act");
  }
  if (prng.UniformInt(0, 1) == 1) {
    std::vector<std::string> sharing;
    const std::set<std::string> leaves = LeafPatterns(shape);
    for (const char* other : kFamilyShapes) {
      if (other == shape) continue;
      for (const std::string& leaf : LeafPatterns(other)) {
        if (leaves.count(leaf) > 0) {
          sharing.push_back(other);
          break;
        }
      }
    }
    if (!sharing.empty()) {
      const std::string& other = sharing[prng.UniformInt(
          0, static_cast<int64_t>(sharing.size()) - 1)];
      c.rules.insert(c.rules.begin() + prng.UniformInt(1, siblings - 1),
                     "CREATE RULE x, interloper ON " + instantiate(other) +
                         " IF true DO act");
    }
  }
  c.stream = GenStream(&prng, 20, 60);
  return c;
}

// How a case's window families meet their shared children: whether some
// child routes to a run of at least two members, and whether some child's
// parent list splits one family's members with another parent between
// them (two runs). Read from the compiled graph and the family of each
// node (DebugReport's `family=#<rep>`).
struct FamilyRunShape {
  bool run_of_two = false;
  bool broken_run = false;
};

FamilyRunShape ClassifyFamilyRuns(const std::string& program) {
  FamilyRunShape out;
  RcedaEngine engine(/*db=*/nullptr, FuzzEnvironment(), EngineOptions{});
  if (!engine.AddRulesFromText(program).ok() || !engine.Compile().ok()) {
    return out;
  }
  const EventGraph& graph = engine.graph();
  std::vector<int> rep(graph.num_nodes(), -1);
  std::istringstream report(engine.DebugReport());
  for (std::string line; std::getline(report, line);) {
    const size_t at = line.find(" family=#");
    if (line.empty() || line[0] != '#' || at == std::string::npos) continue;
    rep[std::stoul(line.substr(1))] = std::stoi(line.substr(at + 9));
  }
  for (const GraphNode& node : graph.nodes()) {
    const std::vector<int>& parents = node.parents;
    for (size_t i = 0; i < parents.size(); ++i) {
      const int family = rep[parents[i]];
      if (family < 0) continue;
      const GraphNode& parent = graph.node(parents[i]);
      const bool both_slots = parent.op == events::ExprOp::kAnd &&
                              parent.children[0] == parent.children[1];
      if (i + 1 < parents.size() && rep[parents[i + 1]] == family &&
          !both_slots) {
        out.run_of_two = true;
      }
      for (size_t j = i + 2; j < parents.size(); ++j) {
        if (rep[parents[j]] == family && rep[parents[j - 1]] != family) {
          out.broken_run = true;
        }
      }
    }
  }
  return out;
}

std::optional<std::string> DiffSpans(const std::string& what,
                                     const SpansByRule& expected,
                                     const SpansByRule& got) {
  for (const auto& [rule_id, spans] : expected) {
    auto it = got.find(rule_id);
    if (it == got.end() || it->second != spans) {
      return what + " divergence on rule " + rule_id +
             "\n  expected: " + FormatSpans(spans) + "\n  got:      " +
             (it == got.end() ? std::string("(missing)")
                              : FormatSpans(it->second));
    }
  }
  return std::nullopt;
}

std::optional<std::string> CheckFamilyCase(const FuzzCase& c, uint64_t salt) {
  const std::string program = c.Program();
  Result<rules::RuleSet> set = rules::ParseRuleProgram(program);
  if (!set.ok()) return "parse failed: " + set.status().ToString();
  if (!EventGraph::Build(set->rules).ok()) return "graph build failed";
  const size_t cut = salt % (c.stream.size() + 1);
  const std::vector<Observation> head(
      c.stream.begin(), c.stream.begin() + static_cast<long>(cut));
  const std::vector<Observation> tail(
      c.stream.begin() + static_cast<long>(cut), c.stream.end());
  for (ParameterContext context : kAllContexts) {
    const std::string name(ParameterContextName(context));
    RunSpec spec;
    spec.context = context;
    const SpansByRule family = RunEngine(program, c.stream, spec);
    for (const std::string& rule : c.rules) {
      std::optional<std::string> why =
          DiffSpans(name + " alone vs with window siblings",
                    RunEngine(rule, c.stream, spec), family);
      if (why.has_value()) return why;
    }

    auto source = RecoveryEngine::Make(program, context);
    auto target = RecoveryEngine::Make(program, context);
    if (source == nullptr || target == nullptr) return "compile failed";
    std::string bytes;
    if (!source->engine->ProcessAll(head).ok() ||
        !source->engine->SerializeState(&bytes).ok()) {
      return name + ": checkpoint failed at cut " + std::to_string(cut);
    }
    if (Status s = target->engine->RestoreState(bytes); !s.ok()) {
      return name + ": restore failed: " + s.ToString();
    }
    if (!target->engine->ProcessAll(tail).ok() ||
        !target->engine->Flush().ok()) {
      return name + ": restored suffix processing failed";
    }
    SpansByRule stitched = source->matches;
    for (auto& [rule_id, spans] : stitched) {
      const std::vector<Span>& post = target->matches[rule_id];
      spans.insert(spans.end(), post.begin(), post.end());
    }
    std::optional<std::string> why =
        DiffSpans(name + " uninterrupted vs restored at cut " +
                      std::to_string(cut),
                  family, stitched);
    if (why.has_value()) return why;
  }
  return std::nullopt;
}

// --- Reader groups -----------------------------------------------------------
//
// Group rules (GenGroupCase): the engine must equal the reference as
// multisets of (span, r_location values). A non-null `located` counts
// the reference's matches that bind a location.
std::optional<std::string> CheckGroupCase(const FuzzCase& c,
                                          size_t* located = nullptr) {
  const std::string program = c.Program();
  Result<rules::RuleSet> set = rules::ParseRuleProgram(program);
  if (!set.ok()) return "parse failed: " + set.status().ToString();
  if (!EventGraph::Build(set->rules).ok()) return "graph build failed";
  auto located_spans = [](const std::vector<EventInstancePtr>& matches) {
    std::vector<LocatedSpan> v;
    for (const EventInstancePtr& e : matches) v.push_back(Locate(*e));
    std::sort(v.begin(), v.end());
    return v;
  };
  auto format = [](const std::vector<LocatedSpan>& v) {
    std::string out = "{";
    for (const auto& [span, where] : v) {
      out += " [" + std::to_string(span.t_begin) + "," +
             std::to_string(span.t_end) + "]@" + where;
    }
    return out + " }";
  };
  InstancesByRule reference;
  if (Result<SpansByRule> run = RunReference(
          *set, c.stream, ParameterContext::kChronicle, &reference);
      !run.ok()) {
    return "reference interpreter failed: " + run.status().ToString();
  }
  InstancesByRule engine;
  RunEngine(program, c.stream, RunSpec{}, &engine);
  for (const auto& [rule_id, matches] : reference) {
    const std::vector<LocatedSpan> expected = located_spans(matches);
    for (const LocatedSpan& match : expected) {
      if (located != nullptr && !match.second.empty()) ++*located;
    }
    const std::vector<LocatedSpan> got = located_spans(engine[rule_id]);
    if (expected != got) {
      return "reference vs serial divergence on group rule " + rule_id +
             "\n  reference: " + format(expected) +
             "\n  serial:    " + format(got);
    }
  }
  return std::nullopt;
}

// --- Durable crash-recovery protocol (WAL axis) ------------------------------
//
// The exactly-once invariant end to end: a run with SQL actions and a
// store write-ahead log checkpoints twice through engine::StateDir —
// snapshot, store image, WAL trim — and crashes at a salt-chosen step of
// the second checkpoint, then at a salt-chosen BYTE offset into what it
// logs after it: cuts land mid-record (torn tails) and across segment
// rotations (tiny segments below). Recovering the state directory
// (image, the log past it, snapshot) and reprocessing the suffix must
// reproduce the uninterrupted run's match stream per rule in emission
// order AND its final tables byte for byte.

// Identity of one procedure/alarm invocation, comparable between a
// rig's handler log and the WAL's surviving kProcedure/kAlarm frames:
// rule id, firing seq, procedure name.
using ProcKey = std::tuple<std::string, uint64_t, std::string>;

std::string FormatProcKey(const ProcKey& key) {
  return std::get<0>(key) + "#" + std::to_string(std::get<1>(key)) + " " +
         std::get<2>(key);
}

// Where the crash lands inside the second checkpoint; the snapshot is
// always written.
enum class CrashPoint {
  kBeforeImage,  // Recovery loads the first checkpoint's image.
  kBeforeTrim,
  kOldestSegmentDropped,
  kTrimmed,
};

const char* CrashPointName(CrashPoint point) {
  switch (point) {
    case CrashPoint::kBeforeImage:
      return "before the image";
    case CrashPoint::kBeforeTrim:
      return "between image and trim";
    case CrashPoint::kOldestSegmentDropped:
      return "after the oldest segment's deletion";
    case CrashPoint::kTrimmed:
      return "after the trim";
  }
  return "?";
}

// The LSN a WAL trim through which deletes only the oldest segment of
// `wal_dir` (segments are named wal-<20-digit LSN>.seg), once the current
// one is sealed; `lsn` when there is one segment or none.
uint64_t OldestSegmentEnd(const std::filesystem::path& wal_dir, uint64_t lsn) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(wal_dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names.size() < 2 ? lsn : std::stoull(names[1].substr(4, 20)) - 1;
}

struct DurableRig {
  std::unique_ptr<store::Database> db = std::make_unique<store::Database>();
  std::map<ProcKey, int> invocations;
  std::unique_ptr<RcedaEngine> engine;
  SpansByRule matches;

  // Compile is left to the caller (StateDir::Recover): a WAL can only
  // attach before it.
  static std::unique_ptr<DurableRig> Make(const std::string& program) {
    auto r = std::make_unique<DurableRig>();
    if (!r->db->InstallRfidSchema().ok()) return nullptr;
    EngineOptions options;
    options.detector.context = ParameterContext::kChronicle;
    r->engine = std::make_unique<RcedaEngine>(r->db.get(),
                                              FuzzEnvironment(), options);
    SpansByRule* out = &r->matches;
    r->engine->SetMatchCallback(
        [out](const rules::Rule& rule, const EventInstancePtr& e) {
          (*out)[rule.id].push_back(Span{e->t_begin(), e->t_end()});
        });
    // The procedures the generator emits, counting every invocation so
    // the durable axis can hold callbacks to exactly-once.
    std::map<ProcKey, int>* inv = &r->invocations;
    for (const char* name : {"act", "raise alarm"}) {
      r->engine->RegisterProcedure(
          name, [inv, name](const RuleFiring& firing, const std::string&) {
            ++(*inv)[ProcKey(firing.rule->id, firing.seq, name)];
          });
    }
    if (!r->engine->AddRulesFromText(program).ok()) return nullptr;
    return r;
  }
};

std::string DumpStore(store::Database* db) {
  std::string out;
  for (const char* table :
       {"OBSERVATION", "OBJECTLOCATION", "OBJECTCONTAINMENT"}) {
    out += table;
    out += "\n";
    out += store::TableToCsv(*db->GetTable(table));
  }
  return out;
}

// Discards every WAL byte past `keep`: segments starting beyond it are
// deleted and the segment containing it is cut mid-file — exactly what a
// crash during a buffered write leaves behind. A segment starting at
// `keep` is cut to empty, not deleted: it may be the one a trim synced
// into the directory to keep the LSN cursor.
void TruncateWalAt(const std::filesystem::path& dir, uint64_t keep) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  uint64_t seen = 0;
  for (const fs::path& file : files) {
    uint64_t size = fs::file_size(file);
    if (seen > keep) {
      fs::remove(file);
    } else if (seen + size > keep) {
      fs::resize_file(file, keep - seen);
    }
    seen += size;
  }
}

std::optional<std::string> CheckDurableRecoveryCase(const FuzzCase& c,
                                                    uint64_t salt) {
  namespace fs = std::filesystem;
  std::string program = c.Program();
  Result<rules::RuleSet> set = rules::ParseRuleProgram(program);
  if (!set.ok()) return "parse failed: " + set.status().ToString();
  if (!EventGraph::Build(set->rules).ok()) return std::nullopt;

  // Bits 2-3 choose the crash point; the checkpoints land at two
  // salt-chosen prefixes, the doomed tail ends at a third.
  const auto crash = static_cast<CrashPoint>((salt >> 2) & 3);
  const size_t n = c.stream.size();
  const size_t cut1 = (salt >> 4) % (n + 1);
  const size_t cut2 = cut1 + (salt >> 6) % (n - cut1 + 1);
  const size_t doomed = cut2 + (salt >> 9) % (n - cut2 + 1);

  // Uninterrupted run: the oracle for the match stream and the final
  // table contents.
  auto reference = DurableRig::Make(program);
  if (reference == nullptr) return "reference rig failed to build";
  if (!reference->engine->Compile().ok()) return "reference compile failed";
  for (const Observation& obs : c.stream) {
    if (!reference->engine->Process(obs).ok()) {
      return "reference processing failed";
    }
  }
  if (!reference->engine->Flush().ok()) return "reference flush failed";

  // Per process, so concurrent fuzz runs never share a state directory.
  const fs::path state_dir = fs::path(::testing::TempDir()) /
                             ("diff_fuzz_state_" + std::to_string(getpid()));
  fs::remove_all(state_dir);
  const StateDir state(state_dir.string());
  store::WalOptions wal_options;
  wal_options.segment_bytes = 512;  // Tiny segments: cuts cross rotations.

  uint64_t checkpoint_bytes = 0;
  uint64_t final_bytes = 0;
  SpansByRule head_matches;
  std::map<std::string, uint64_t> checkpoint_fired;  // At the second one.
  std::map<ProcKey, int> crashed_inv;
  {
    auto crashed = DurableRig::Make(program);
    if (crashed == nullptr) return "crash rig failed to build";
    Result<StateDir::Recovered> opened =
        state.Recover(*crashed->engine, wal_options);
    if (!opened.ok()) {
      return "crash rig open failed: " + opened.status().ToString();
    }
    store::Wal* wal = opened->wal.get();
    auto process = [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        if (!crashed->engine->Process(c.stream[i]).ok()) return false;
      }
      return true;
    };
    if (!process(0, cut1)) return "crash-run prefix processing failed";
    if (Status s = state.Checkpoint(*crashed->engine); !s.ok()) {
      return "first checkpoint failed: " + s.ToString();
    }
    if (!process(cut1, cut2)) return "crash-run middle processing failed";
    // The second checkpoint, step by step as StateDir::Checkpoint takes
    // them, stopped where the crash lands.
    if (Status s = crashed->engine->Checkpoint(state.snapshot_path());
        !s.ok()) {
      return "second checkpoint failed: " + s.ToString();
    }
    const uint64_t lsn = wal->last_lsn();  // The snapshot's durable LSN.
    if (crash != CrashPoint::kBeforeImage) {
      if (Status s = store::WriteStoreImage(state.image_path(),
                                            *crashed->db, lsn);
          !s.ok()) {
        return "second image failed: " + s.ToString();
      }
    }
    Status trimmed;
    if (crash == CrashPoint::kOldestSegmentDropped) {
      trimmed = wal->Trim(OldestSegmentEnd(state.wal_dir(), lsn));
    } else if (crash == CrashPoint::kTrimmed) {
      trimmed = wal->Trim(lsn);
    }
    if (!trimmed.ok()) return "second trim failed: " + trimmed.ToString();
    head_matches = crashed->matches;
    for (const rules::Rule& rule : set->rules) {
      checkpoint_fired[rule.id] = crashed->engine->FiredCount(rule.id);
    }
    checkpoint_bytes = wal->total_bytes();  // Synced by the checkpoint.
    // The doomed tail: processed and logged, then thrown away past the
    // salt-chosen crash point below.
    if (!process(cut2, doomed)) return "crash-run tail processing failed";
    crashed->engine.reset();
    crashed_inv = std::move(crashed->invocations);
    crashed.reset();
    final_bytes = wal->total_bytes();
  }  // The WAL destructor flushes: the files hold every logged record.
  TruncateWalAt(state.wal_dir(),
                checkpoint_bytes +
                    (final_bytes > checkpoint_bytes
                         ? salt % (final_bytes - checkpoint_bytes + 1)
                         : 0));

  // Recovery, as Tenant::Open runs it: the image, one walk over the log
  // past it (replaying it into the store while collecting the dedup
  // set), compile, restore.
  auto recovered = DurableRig::Make(program);
  if (recovered == nullptr) return "recovery rig failed to build";
  auto describe = [&] {
    return " (checkpoints at " + std::to_string(cut1) + " and " +
           std::to_string(cut2) + "/" + std::to_string(n) + ", crash " +
           CrashPointName(crash) + ")";
  };
  Result<StateDir::Recovered> reopened =
      state.Recover(*recovered->engine, wal_options);
  if (!reopened.ok()) {
    return "recovery failed: " + reopened.status().ToString() + describe();
  }
  if (!reopened->restored) return "recovery found no checkpoint" + describe();
  // Procedure/alarm frames that survived the trim and the cut: the
  // durable record of which callbacks ran after the checkpoint. Captured
  // now, before the recovered run appends its own frames to the same log.
  std::set<ProcKey> kept_procs;
  if (Status s = reopened->wal->Replay(0, [&](const store::WalRecord& r) {
        if (r.kind != store::WalRecordKind::kSql) {
          kept_procs.insert(ProcKey(r.rule_id, r.action_seq, r.sql));
        }
        return Status::Ok();
      });
      !s.ok()) {
    return "wal procedure scan failed: " + s.ToString();
  }
  for (size_t i = cut2; i < n; ++i) {
    if (!recovered->engine->Process(c.stream[i]).ok()) {
      return "recovered suffix processing failed";
    }
  }
  if (!recovered->engine->Flush().ok()) return "recovered flush failed";

  for (const auto& [rule_id, expected] : reference->matches) {
    std::vector<Span> combined = head_matches[rule_id];
    const std::vector<Span>& post = recovered->matches[rule_id];
    combined.insert(combined.end(), post.begin(), post.end());
    if (combined != expected) {
      return "durable-recovery match divergence on rule " + rule_id +
             describe() + "\n  uninterrupted: " + FormatSpans(expected) +
             "\n  recovered:     " + FormatSpans(combined);
    }
  }
  const std::string expected_store = DumpStore(reference->db.get());
  const std::string got = DumpStore(recovered->db.get());
  if (got != expected_store) {
    return "durable-recovery store divergence" + describe() +
           "\n  uninterrupted tables:\n" + expected_store +
           "  recovered tables:\n" + got;
  }

  // Procedure/alarm exactly-once. The logical counter must land exactly
  // on the uninterrupted run's; the physical invocation log may exceed
  // it only inside the unavoidable at-least-once window — a callback
  // that ran after the second checkpoint but whose WAL frame was lost to
  // the cut re-invokes on recovery. A key at or below the checkpoint's
  // fired counts (its frame possibly trimmed away) runs exactly once;
  // any duplicate whose frame *survived*, any lost invocation, and any
  // invocation the reference never made are all bugs.
  if (recovered->engine->stats().procedures_invoked !=
      reference->engine->stats().procedures_invoked) {
    return "durable-recovery procedure counter divergence" + describe() +
           ": uninterrupted " +
           std::to_string(reference->engine->stats().procedures_invoked) +
           ", recovered " +
           std::to_string(recovered->engine->stats().procedures_invoked);
  }
  std::map<ProcKey, int> combined_inv = crashed_inv;
  for (const auto& [key, count] : recovered->invocations) {
    combined_inv[key] += count;
  }
  for (const auto& [key, count] : reference->invocations) {
    if (count != 1) {
      return "reference rig invoked a procedure twice: " + FormatProcKey(key) +
             describe();
    }
    auto it = combined_inv.find(key);
    const int total = it == combined_inv.end() ? 0 : it->second;
    if (total < 1) {
      return "lost procedure invocation " + FormatProcKey(key) + describe();
    }
    if (total > 2) {
      return "procedure invoked " + std::to_string(total) +
             " times: " + FormatProcKey(key) + describe();
    }
    const bool checkpointed =
        std::get<1>(key) <= checkpoint_fired[std::get<0>(key)];
    if (total == 2 && (checkpointed || kept_procs.count(key) != 0 ||
                       crashed_inv.count(key) == 0)) {
      return "duplicate procedure invocation outside the lost-frame window: " +
             FormatProcKey(key) + describe();
    }
  }
  for (const auto& [key, count] : combined_inv) {
    if (reference->invocations.count(key) == 0) {
      return "phantom procedure invocation " + FormatProcKey(key) + describe();
    }
  }
  fs::remove_all(state_dir);
  return std::nullopt;
}

// --- Shrinking ---------------------------------------------------------------

using CaseChecker =
    std::function<std::optional<std::string>(const FuzzCase&)>;

// Greedy 1-minimal reduction: drop observations, then whole rules, as
// long as `check` still reports a divergence.
FuzzCase Shrink(FuzzCase c, const CaseChecker& check) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t i = 0; i < c.stream.size();) {
      FuzzCase trial = c;
      trial.stream.erase(trial.stream.begin() + static_cast<long>(i));
      if (check(trial).has_value()) {
        c = std::move(trial);
        progress = true;
      } else {
        ++i;
      }
    }
    for (size_t i = 0; c.rules.size() > 1 && i < c.rules.size();) {
      FuzzCase trial = c;
      trial.rules.erase(trial.rules.begin() + static_cast<long>(i));
      if (check(trial).has_value()) {
        c = std::move(trial);
        progress = true;
      } else {
        ++i;
      }
    }
  }
  return c;
}

// --- Metamorphic rewrite axis (ISSUE 9 tentpole) -----------------------------
//
// A case is a seeded rule set plus a chain of provably-equivalent
// rewrites (engine/rewrite.h) applied to the compiled-form rule
// expressions. The original and rewritten programs must produce the
// same per-rule match spans — in emission order when every chain step
// preserves order, as multisets otherwise (AND operand permutation
// makes tie order observable by design). Divergences triage in layers:
// the two reference runs disagreeing is a rewriter soundness bug; the
// rewritten reference vs the rewritten serial engine is an engine bug
// on a shape the generator never emits.

struct RewriteStep {
  int rule = 0;        // Index into FuzzCase::rules.
  std::string name;    // Identity name from RewriteCatalog().
  int site = 0;        // Preorder site at application time.
  uint64_t salt = 0;   // Resolves parameterized choices.
};

std::string FormatChain(const std::vector<RewriteStep>& chain) {
  std::ostringstream out;
  for (const RewriteStep& s : chain) {
    out << "  rule " << s.rule << ": " << s.name << " @ site " << s.site
        << " salt " << s.salt << "\n";
  }
  return out.str();
}

// Splices a rewritten event expression into a CREATE RULE statement,
// replacing the text between the first " ON " and the trailing " IF "
// (or " DO ") clause. Generated and corpus rules never embed those
// keywords inside the event text itself.
std::optional<std::string> SpliceRuleEvent(const std::string& rule_text,
                                           const std::string& event_text) {
  size_t on = rule_text.find(" ON ");
  if (on == std::string::npos) return std::nullopt;
  size_t tail = rule_text.find(" IF ", on + 4);
  if (tail == std::string::npos) tail = rule_text.find(" DO ", on + 4);
  if (tail == std::string::npos) return std::nullopt;
  return rule_text.substr(0, on + 4) + event_text + rule_text.substr(tail);
}

// Applies `chain` to the compiled-form rule expressions of `c` and
// splices the results back into the rule texts. Returns nullopt when
// the base program does not compile or any step's precondition fails at
// its site (shrinker trials routinely invalidate later steps; such
// trials are simply not divergences).
std::optional<FuzzCase> ApplyChain(const FuzzCase& c,
                                   const std::vector<RewriteStep>& chain) {
  Result<rules::RuleSet> set = rules::ParseRuleProgram(c.Program());
  if (!set.ok()) return std::nullopt;
  Result<EventGraph> graph = EventGraph::Build(set->rules);
  if (!graph.ok()) return std::nullopt;
  std::vector<events::EventExprPtr> exprs;
  std::vector<bool> touched(c.rules.size(), false);
  for (size_t i = 0; i < set->rules.size(); ++i) {
    exprs.push_back(graph->RuleExpr(i));
  }
  for (const RewriteStep& step : chain) {
    if (step.rule < 0 || static_cast<size_t>(step.rule) >= exprs.size()) {
      return std::nullopt;
    }
    events::EventExprPtr next = ApplyRewrite(exprs[step.rule], step.name,
                                             step.site, step.salt);
    if (next == nullptr) return std::nullopt;
    exprs[step.rule] = std::move(next);
    touched[step.rule] = true;
  }
  FuzzCase rewritten = c;
  for (size_t i = 0; i < c.rules.size(); ++i) {
    if (!touched[i]) continue;
    std::optional<std::string> spliced =
        SpliceRuleEvent(c.rules[i], exprs[i]->ToString());
    if (!spliced.has_value()) return std::nullopt;
    rewritten.rules[i] = *spliced;
  }
  return rewritten;
}

// A seed-derived random rewrite chain over the case's compiled rule
// expressions: 1-4 steps, each an active identity at a uniformly chosen
// applicable site, applied cumulatively (later steps see earlier
// rewrites). Empty when the case offers no applicable site at all.
std::vector<RewriteStep> GenChain(Prng* prng, const FuzzCase& c) {
  std::vector<RewriteStep> chain;
  Result<rules::RuleSet> set = rules::ParseRuleProgram(c.Program());
  if (!set.ok()) return chain;
  Result<EventGraph> graph = EventGraph::Build(set->rules);
  if (!graph.ok()) return chain;
  std::vector<events::EventExprPtr> exprs;
  for (size_t i = 0; i < set->rules.size(); ++i) {
    exprs.push_back(graph->RuleExpr(i));
  }
  std::vector<std::string_view> active;
  for (const RewriteIdentity& id : RewriteCatalog()) {
    if (id.active) active.push_back(id.name);
  }
  const int steps = static_cast<int>(prng->UniformInt(1, 4));
  for (int s = 0; s < steps; ++s) {
    for (int attempt = 0; attempt < 12; ++attempt) {
      RewriteStep step;
      step.rule = static_cast<int>(
          prng->UniformInt(0, static_cast<int64_t>(exprs.size()) - 1));
      step.name = std::string(active[static_cast<size_t>(
          prng->UniformInt(0, static_cast<int64_t>(active.size()) - 1))]);
      std::vector<int> sites = ApplicableSites(exprs[step.rule], step.name);
      if (sites.empty()) continue;
      step.site = sites[static_cast<size_t>(
          prng->UniformInt(0, static_cast<int64_t>(sites.size()) - 1))];
      step.salt = static_cast<uint64_t>(prng->UniformInt(0, 1 << 20));
      events::EventExprPtr next =
          ApplyRewrite(exprs[step.rule], step.name, step.site, step.salt);
      if (next == nullptr) continue;  // Sites and apply must agree; belt.
      exprs[step.rule] = std::move(next);
      chain.push_back(std::move(step));
      break;
    }
  }
  return chain;
}

// The metamorphic oracle. Returns the first divergence, nullopt when
// original and rewritten agree everywhere (or the chain is inapplicable
// to this case — see ApplyChain).
std::optional<std::string> CheckMetamorphicCase(
    const FuzzCase& c, const std::vector<RewriteStep>& chain) {
  std::string program = c.Program();
  Result<rules::RuleSet> set = rules::ParseRuleProgram(program);
  if (!set.ok()) return std::nullopt;
  if (!EventGraph::Build(set->rules).ok()) return std::nullopt;

  std::optional<FuzzCase> rewritten = ApplyChain(c, chain);
  if (!rewritten.has_value()) return std::nullopt;
  std::string rew_program = rewritten->Program();
  // The rewriter's contract: every variant reparses and recompiles. A
  // failure here is a rewriter bug, not a skip.
  Result<rules::RuleSet> rew_set = rules::ParseRuleProgram(rew_program);
  if (!rew_set.ok()) {
    return "rewritten program does not reparse: " +
           rew_set.status().ToString() + "\n" + rew_program;
  }
  Result<EventGraph> rew_graph = EventGraph::Build(rew_set->rules);
  if (!rew_graph.ok()) {
    return "rewritten program does not compile: " +
           rew_graph.status().ToString() + "\n" + rew_program;
  }

  bool ordered = true;
  for (const RewriteStep& step : chain) {
    const RewriteIdentity* id = FindRewrite(step.name);
    if (id == nullptr || !id->order_preserving) ordered = false;
  }

  // Layer 1: the rewrite must not change the declared semantics. The
  // naive reference interpreter runs both forms; a difference means the
  // identity (or its precondition) is wrong — fix the rewriter, never
  // ship the variant.
  Result<SpansByRule> ref_orig =
      RunReference(*set, c.stream, ParameterContext::kChronicle);
  Result<SpansByRule> ref_rew_run =
      RunReference(*rew_set, c.stream, ParameterContext::kChronicle);
  for (const Result<SpansByRule>* run : {&ref_orig, &ref_rew_run}) {
    if (!run->ok()) {
      return "reference interpreter failed: " + run->status().ToString();
    }
  }
  SpansByRule& ref_rew = *ref_rew_run;
  for (const auto& [rule_id, expected] : *ref_orig) {
    if (Sorted(expected) != Sorted(ref_rew[rule_id])) {
      return "rewriter soundness bug: reference disagrees with itself on "
             "rule " +
             rule_id + "\n  original:  " + FormatSpans(Sorted(expected)) +
             "\n  rewritten: " + FormatSpans(Sorted(ref_rew[rule_id]));
    }
  }

  // Layer 2: the engine must implement the declared semantics on the
  // rewritten shape (shapes the generator alone never produces).
  SpansByRule serial_rew = RunEngine(rew_program, c.stream, RunSpec{});
  for (const auto& [rule_id, expected] : ref_rew) {
    if (Sorted(expected) != Sorted(serial_rew[rule_id])) {
      return "reference vs serial divergence on REWRITTEN form, rule " +
             rule_id + "\n  reference: " + FormatSpans(Sorted(expected)) +
             "\n  serial:    " + FormatSpans(Sorted(serial_rew[rule_id]));
    }
  }

  // Layer 3: the metamorphic identity itself, engine vs engine —
  // emission-ordered when every step preserves order.
  SpansByRule serial_orig = RunEngine(program, c.stream, RunSpec{});
  for (const auto& [rule_id, expected] : serial_orig) {
    const std::vector<Span>& got = serial_rew[rule_id];
    bool agree = ordered ? (got == expected)
                         : (Sorted(got) == Sorted(expected));
    if (!agree) {
      return std::string("metamorphic divergence (") +
             (ordered ? "ordered" : "multiset") + ") on rule " + rule_id +
             "\n  original:  " + FormatSpans(expected) +
             "\n  rewritten: " + FormatSpans(got);
    }
  }

  return std::nullopt;
}

using MetaChecker = std::function<std::optional<std::string>(
    const FuzzCase&, const std::vector<RewriteStep>&)>;

// Chain-aware greedy reduction: shorten the rewrite chain (suffix
// truncation, then single-step drops), shrink the stream, then drop
// rules the chain does not touch (remapping step rule indexes). A trial
// that invalidates a remaining step's site simply stops reproducing and
// is rejected, so minimization never forces an inapplicable rewrite.
std::pair<FuzzCase, std::vector<RewriteStep>> MetaShrink(
    FuzzCase c, std::vector<RewriteStep> chain, const MetaChecker& check) {
  bool progress = true;
  while (progress) {
    progress = false;
    while (chain.size() > 1) {
      std::vector<RewriteStep> trial(chain.begin(), chain.end() - 1);
      if (!check(c, trial).has_value()) break;
      chain = std::move(trial);
      progress = true;
    }
    for (size_t i = 0; chain.size() > 1 && i < chain.size();) {
      std::vector<RewriteStep> trial = chain;
      trial.erase(trial.begin() + static_cast<long>(i));
      if (check(c, trial).has_value()) {
        chain = std::move(trial);
        progress = true;
      } else {
        ++i;
      }
    }
    for (size_t i = 0; i < c.stream.size();) {
      FuzzCase trial = c;
      trial.stream.erase(trial.stream.begin() + static_cast<long>(i));
      if (check(trial, chain).has_value()) {
        c = std::move(trial);
        progress = true;
      } else {
        ++i;
      }
    }
    for (size_t i = 0; c.rules.size() > 1 && i < c.rules.size();) {
      bool referenced = false;
      for (const RewriteStep& step : chain) {
        if (step.rule == static_cast<int>(i)) referenced = true;
      }
      if (referenced) {
        ++i;
        continue;
      }
      FuzzCase trial = c;
      trial.rules.erase(trial.rules.begin() + static_cast<long>(i));
      std::vector<RewriteStep> remapped = chain;
      for (RewriteStep& step : remapped) {
        if (step.rule > static_cast<int>(i)) --step.rule;
      }
      if (check(trial, remapped).has_value()) {
        c = std::move(trial);
        chain = std::move(remapped);
        progress = true;
      } else {
        ++i;
      }
    }
  }
  return {std::move(c), std::move(chain)};
}

// Dumps a failing case as scripts/fuzz_repro.sh input and returns the
// human-readable report. A non-null `chain` additionally writes the
// .rewrites file so the metamorphic axis replays offline.
std::string ReportDivergence(const FuzzCase& c, const std::string& why,
                             uint64_t seed,
                             const std::vector<RewriteStep>* chain = nullptr) {
  namespace fs = std::filesystem;
  fs::path dir = fs::path(::testing::TempDir());
  fs::path rules_path = dir / ("diff_fuzz_" + std::to_string(seed) + ".rules");
  fs::path trace_path = dir / ("diff_fuzz_" + std::to_string(seed) + ".trace");
  fs::path rewrites_path =
      dir / ("diff_fuzz_" + std::to_string(seed) + ".rewrites");
  {
    std::ofstream out(rules_path);
    out << c.Program();
  }
  EXPECT_TRUE(sim::WriteTraceFile(trace_path.string(), c.stream).ok());
  if (chain != nullptr) {
    std::ofstream out(rewrites_path);
    out << "# rule identity site salt\n";
    for (const RewriteStep& s : *chain) {
      out << s.rule << " " << s.name << " " << s.site << " " << s.salt
          << "\n";
    }
  }
  std::ostringstream report;
  report << why << "\nminimized case (seed " << seed << "):\n" << c.Program();
  if (chain != nullptr) {
    report << "rewrite chain:\n" << FormatChain(*chain);
  }
  report << "stream (" << c.stream.size() << " obs):\n"
         << sim::TraceToCsv(c.stream) << "dumped: " << rules_path.string()
         << " + " << trace_path.string()
         << (chain != nullptr ? " + " + rewrites_path.string() : "")
         << "\nreplay: scripts/fuzz_repro.sh " << rules_path.string() << " "
         << trace_path.string();
  if (chain != nullptr) report << " " << rewrites_path.string();
  return report.str();
}

// --- The sweep ---------------------------------------------------------------

int FuzzCases() {
  if (const char* env = std::getenv("RFIDCEP_FUZZ_CASES")) {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 600;  // ISSUE 4 floor is 500.
}

TEST(DifferentialFuzz, FourExecutionsAgree) {
  const int cases = FuzzCases();
  for (int i = 0; i < cases; ++i) {
    uint64_t seed = 0x5eedULL * 1000003ULL + static_cast<uint64_t>(i);
    FuzzCase c = GenCase(seed);
    std::optional<std::string> why = CheckCase(c);
    if (why.has_value()) {
      FuzzCase minimized = Shrink(c, CheckCase);
      std::optional<std::string> min_why = CheckCase(minimized);
      FAIL() << ReportDivergence(
          minimized, min_why.value_or(*why), seed);
    }
  }
}

TEST(DifferentialFuzz, MetamorphicEquivalence) {
  // Every seeded case gets a random chain of provably equivalent
  // rewrites; the original and rewritten programs must agree through the
  // reference interpreter and the engine.
  const int cases = FuzzCases();
  int rewritten_cases = 0;
  for (int i = 0; i < cases; ++i) {
    uint64_t seed = 0x3e7aULL * 1000003ULL + static_cast<uint64_t>(i);
    FuzzCase c = GenCase(seed);
    // Every fourth case swaps the synthetic stream for the airport
    // baggage workload: bursty batch-upload ties and colliding bag EPCs
    // stress the rewrites differently than uniform traffic.
    if (i % 4 == 3) c.stream = BaggageFuzzStream(seed);
    Prng chain_prng(seed ^ 0x9e3779b97f4a7c15ULL);
    std::vector<RewriteStep> chain = GenChain(&chain_prng, c);
    if (chain.empty()) continue;
    ++rewritten_cases;
    std::optional<std::string> why = CheckMetamorphicCase(c, chain);
    if (why.has_value()) {
      auto [min_case, min_chain] = MetaShrink(c, chain, CheckMetamorphicCase);
      std::optional<std::string> min_why =
          CheckMetamorphicCase(min_case, min_chain);
      FAIL() << ReportDivergence(min_case, min_why.value_or(*why), seed,
                                 &min_chain);
    }
  }
  // The axis must actually exercise rewrites, not silently skip.
  EXPECT_GT(rewritten_cases, cases / 2);
}

TEST(DifferentialFuzz, CrashRecoveryAgrees) {
  // Every seeded case is checkpointed at a seed-chosen prefix and
  // restored, a forged copy of the checkpoint is refused, and the
  // stitched run must reproduce the uninterrupted execution exactly.
  const int cases = FuzzCases();
  std::map<std::string, int> forged_drawn;
  for (int i = 0; i < cases; ++i) {
    uint64_t seed = 0xc8a5ULL * 1000003ULL + static_cast<uint64_t>(i);
    FuzzCase c = GenCase(seed);
    const uint64_t salt = seed * 0x9e3779b97f4a7c15ULL;
    std::optional<std::string> why = CheckRecoveryCase(c, salt, &forged_drawn);
    if (why.has_value()) {
      auto check = [salt](const FuzzCase& trial) {
        return CheckRecoveryCase(trial, salt);
      };
      FuzzCase minimized = Shrink(c, check);
      std::optional<std::string> min_why = check(minimized);
      FAIL() << ReportDivergence(
          minimized, min_why.value_or(*why), seed);
    }
  }
  // The forged step must reach the shapes capture never writes, not only
  // the edits every capture fits (the counts and the fingerprint).
  int shaped = 0;
  for (const auto& [name, n] : forged_drawn) {
    ::testing::Test::RecordProperty("forged " + name, n);
    if (name != "unknown rule id in the counts" &&
        name != "fingerprint mismatch") {
      shaped += n;
    }
  }
  EXPECT_GE(shaped, cases / 4);
}

TEST(DifferentialFuzz, DurableCrashRecoveryAgrees) {
  // WAL axis of the tentpole: every seeded case carries SQL actions, the
  // run is killed at a salt-chosen byte offset into the write-ahead log
  // (mid-record torn tails included), and WAL replay + snapshot restore
  // must reproduce the uninterrupted run exactly — match stream and
  // byte-identical final store tables.
  const int cases = FuzzCases();
  for (int i = 0; i < cases; ++i) {
    uint64_t seed = 0xda7aULL * 1000003ULL + static_cast<uint64_t>(i);
    FuzzCase c = GenDurableCase(seed);
    const uint64_t salt = seed * 0x9e3779b97f4a7c15ULL;
    auto check = [salt](const FuzzCase& trial) {
      return CheckDurableRecoveryCase(trial, salt);
    };
    std::optional<std::string> why = check(c);
    if (why.has_value()) {
      FuzzCase minimized = Shrink(c, check);
      std::optional<std::string> min_why = check(minimized);
      FAIL() << ReportDivergence(minimized, min_why.value_or(*why), seed);
    }
  }
}

TEST(DifferentialFuzz, WindowSiblingsAreInvisible) {
  const int cases = std::max(1, FuzzCases() / 8);
  int runs_of_two = 0;
  int broken_runs = 0;
  for (int i = 0; i < cases; ++i) {
    uint64_t seed = 0xfa31ULL * 1000003ULL + static_cast<uint64_t>(i);
    FuzzCase c = GenFamilyCase(seed);
    const FamilyRunShape shape = ClassifyFamilyRuns(c.Program());
    runs_of_two += shape.run_of_two ? 1 : 0;
    broken_runs += shape.broken_run ? 1 : 0;
    const uint64_t salt = seed * 0x9e3779b97f4a7c15ULL;
    auto check = [salt](const FuzzCase& trial) {
      return CheckFamilyCase(trial, salt);
    };
    std::optional<std::string> why = check(c);
    if (why.has_value()) {
      FuzzCase minimized = Shrink(c, check);
      std::optional<std::string> min_why = check(minimized);
      FAIL() << ReportDivergence(minimized, min_why.value_or(*why), seed);
    }
  }
  // The axis must reach both runs of two or more siblings and runs split
  // by an interloper. Of the 2,500 cases RFIDCEP_FUZZ_CASES=20000 runs,
  // 88% had the first and 41% the second.
  ::testing::Test::RecordProperty("cases with a run of two or more",
                                  runs_of_two);
  ::testing::Test::RecordProperty("cases with a broken run", broken_runs);
  EXPECT_GE(runs_of_two, cases / 2);
  EXPECT_GE(broken_runs, cases / 5);
}

TEST(DifferentialFuzz, GroupRulesMatchReference) {
  // Leaves naming reader groups over the harness registry: registered
  // readers dispatch through their kept records, C through a per-
  // observation one.
  const int cases = FuzzCases();
  int located_cases = 0;
  auto check = [](const FuzzCase& trial) { return CheckGroupCase(trial); };
  for (int i = 0; i < cases; ++i) {
    uint64_t seed = 0x6a0bULL * 1000003ULL + static_cast<uint64_t>(i);
    FuzzCase c = GenGroupCase(seed);
    size_t located = 0;
    std::optional<std::string> why = CheckGroupCase(c, &located);
    if (why.has_value()) {
      FuzzCase minimized = Shrink(c, check);
      std::optional<std::string> min_why = check(minimized);
      FAIL() << ReportDivergence(minimized, min_why.value_or(*why), seed);
    }
    if (located > 0) ++located_cases;
  }
  // The axis must reach r_location bindings, not only spans.
  EXPECT_GT(located_cases, cases / 4);
}

// --- Fixed templates ---------------------------------------------------------
//
// A deterministic sweep through CheckCase: NOT-free templates covering
// every constructor, chosen so the engine's documented detection regime
// is complete (TSEQ over TSEQ+ uses dist_lo >= inner dist_hi; see
// DESIGN.md §3), then two over the harness registry's groups and the
// catalog's types.
constexpr const char* kTemplates[] = {
    "observation(\"A\", o, t)",
    "observation(\"A\", o, t) OR observation(\"B\", o, t)",
    "WITHIN(observation(\"A\", o1, t1) AND observation(\"B\", o2, t2), 4sec)",
    "WITHIN(SEQ(observation(\"A\", o1, t1); observation(\"B\", o2, t2)), "
    "6sec)",
    "TSEQ(observation(\"A\", o1, t1); observation(\"B\", o2, t2), 1sec, "
    "5sec)",
    // The duplicate-filter shape: an equality join on (r, o).
    "WITHIN(observation(r, o, t1); observation(r, o, t2), 5sec)",
    "TSEQ(TSEQ+(observation(\"A\", o1, t1), 0sec, 1sec); "
    "observation(\"B\", o2, t2), 2sec, 20sec)",
    "WITHIN(TSEQ+(observation(\"A\", o1, t1), 0sec, 2sec), 30sec)",
    "WITHIN((observation(\"A\", o1, t1) OR observation(\"B\", o2, t2)) AND "
    "observation(\"C\", o3, t3), 5sec)",
    "WITHIN(SEQ(SEQ(observation(\"A\", o1, t1); observation(\"B\", o2, "
    "t2)); observation(\"C\", o3, t3)), 12sec)",
    "observation(r, o, t), group(r) = \"G\", type(o) = \"case\"",
    "WITHIN(observation(r, o, t1), group(r) = \"G\"; "
    "observation(r2, o, t2), group(r2) = \"C\", 8sec)",
};

// Sixty observations of objects o0-o3 at readers A-C, each step uniform
// in [0, 3] seconds at microsecond resolution.
std::vector<Observation> TemplateHistory(uint64_t seed) {
  Prng prng(seed);
  const char* readers[] = {"A", "B", "C"};
  std::vector<Observation> out;
  TimePoint t = 0;
  for (int i = 0; i < 60; ++i) {
    t += prng.UniformInt(0, 3 * kSecond);
    out.push_back(Observation{readers[prng.UniformInt(0, 2)],
                              "o" + std::to_string(prng.UniformInt(0, 3)), t});
  }
  return out;
}

TEST(DifferentialFuzz, FixedTemplatesAgree) {
  for (size_t i = 0; i < std::size(kTemplates); ++i) {
    for (uint64_t seed : {1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u}) {
      FuzzCase c;
      c.rules.push_back(std::string("CREATE RULE p, fixed template ON ") +
                        kTemplates[i] + " IF true DO act");
      c.stream = TemplateHistory(seed);
      std::optional<std::string> why = CheckCase(c);
      EXPECT_FALSE(why.has_value())
          << "template " << i << " seed " << seed << ": " << why.value_or("");
    }
  }
}

// --- Corpus replay -----------------------------------------------------------
// Minimized regressions from past divergences: <name>.rules + <name>.trace
// pairs, each re-verified through the full four-execution protocol.

TEST(DifferentialFuzz, CorpusReplays) {
  namespace fs = std::filesystem;
  // scripts/fuzz_repro.sh points this at a directory holding one dumped
  // .rules/.trace pair to recheck a divergence outside the checked-in set.
  const char* override_dir = std::getenv("RFIDCEP_CORPUS_DIR");
  fs::path dir(override_dir != nullptr ? override_dir : RFIDCEP_CORPUS_DIR);
  ASSERT_TRUE(fs::is_directory(dir)) << dir.string();
  int replayed = 0;
  std::vector<fs::path> entries;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".rules") entries.push_back(entry.path());
  }
  std::sort(entries.begin(), entries.end());
  for (const fs::path& rules_path : entries) {
    fs::path trace_path = rules_path;
    trace_path.replace_extension(".trace");
    ASSERT_TRUE(fs::exists(trace_path)) << trace_path.string();

    FuzzCase c;
    {
      std::ifstream in(rules_path);
      std::string line;
      while (std::getline(in, line)) {
        if (!line.empty() && line[0] != '#') c.rules.push_back(line);
      }
    }
    Result<std::vector<Observation>> stream =
        sim::ReadTraceFile(trace_path.string());
    ASSERT_TRUE(stream.ok()) << trace_path.string();
    c.stream = *stream;

    std::optional<std::string> why = CheckCase(c);
    EXPECT_FALSE(why.has_value())
        << "corpus regression " << rules_path.filename().string() << ": "
        << why.value_or("");
    // Every corpus case also runs the crash-recovery protocol, cutting
    // at a few different prefixes.
    for (uint64_t salt : {1u, 7u, 13u}) {
      std::optional<std::string> recovery = CheckRecoveryCase(c, salt);
      EXPECT_FALSE(recovery.has_value())
          << "corpus recovery regression "
          << rules_path.filename().string() << ": " << recovery.value_or("");
    }
    // And the durable (WAL) protocol, at a few crash salts.
    for (uint64_t salt : {0x21u, 0x9eu, 0x137u}) {
      std::optional<std::string> durable = CheckDurableRecoveryCase(c, salt);
      EXPECT_FALSE(durable.has_value())
          << "corpus durable-recovery regression "
          << rules_path.filename().string() << ": " << durable.value_or("");
    }
    // Metamorphic regressions carry a .rewrites file next to the pair;
    // replay the recorded chain through the full metamorphic oracle.
    fs::path rewrites_path = rules_path;
    rewrites_path.replace_extension(".rewrites");
    if (fs::exists(rewrites_path)) {
      std::vector<RewriteStep> chain;
      std::ifstream in(rewrites_path);
      std::string line;
      while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream fields(line);
        RewriteStep step;
        ASSERT_TRUE(static_cast<bool>(fields >> step.rule >> step.name >>
                                      step.site >> step.salt))
            << rewrites_path.string() << ": bad line: " << line;
        chain.push_back(std::move(step));
      }
      ASSERT_FALSE(chain.empty()) << rewrites_path.string();
      // The recorded chain must still apply — a silently skipped chain
      // would hollow out the regression.
      ASSERT_TRUE(ApplyChain(c, chain).has_value())
          << "corpus rewrite chain no longer applies: "
          << rewrites_path.filename().string() << "\n"
          << FormatChain(chain);
      std::optional<std::string> meta = CheckMetamorphicCase(c, chain);
      EXPECT_FALSE(meta.has_value())
          << "corpus metamorphic regression "
          << rules_path.filename().string() << ": " << meta.value_or("");
    }
    ++replayed;
  }
  EXPECT_GT(replayed, 0) << "empty corpus directory: " << dir.string();
}

// --- Out-of-order tolerance properties (satellite 4) -------------------------

const char* kSeqRules = R"(
CREATE RULE seq, permutation ON WITHIN(SEQ(observation("A", o1, t1); observation("B", o2, t2)), 6sec) IF true DO act
CREATE RULE seqjoin, permutation ON WITHIN(SEQ(observation("A", o, t1); observation("B", o, t2)), 6sec) IF true DO act
CREATE RULE seqplus, permutation ON WITHIN(TSEQ+(observation("A", o, t), 0sec, 2sec), 20sec) IF true DO act
)";

TEST(DifferentialFuzz, EqualTimestampPermutationPreservesMatchSet) {
  // Permuting observations WITHIN equal-timestamp groups (the stream
  // stays non-decreasing, so nothing is dropped) must not change any
  // rule's span multiset: spans are functions of timestamps, and
  // chronicle consumption at a tie only reorders which equal-span pair
  // fires.
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Prng prng(seed * 7919);
    std::vector<Observation> sorted = GenStream(&prng, 30, 50);
    std::vector<Observation> permuted = sorted;
    for (size_t lo = 0; lo < permuted.size();) {
      size_t hi = lo + 1;
      while (hi < permuted.size() &&
             permuted[hi].timestamp == permuted[lo].timestamp) {
        ++hi;
      }
      for (size_t i = hi - 1; i > lo; --i) {
        size_t j = static_cast<size_t>(prng.UniformInt(
            static_cast<int64_t>(lo), static_cast<int64_t>(i)));
        std::swap(permuted[i], permuted[j]);
      }
      lo = hi;
    }

    SpansByRule a = RunEngine(kSeqRules, sorted, RunSpec{});
    SpansByRule b = RunEngine(kSeqRules, permuted, RunSpec{});
    for (const auto& [rule_id, spans] : a) {
      EXPECT_EQ(Sorted(spans), Sorted(b[rule_id]))
          << "rule " << rule_id << " seed " << seed;
    }
  }
}

TEST(DifferentialFuzz, ToleratedShuffleEqualsKeptSubsequence) {
  // With tolerate_out_of_order, a shuffled stream is the kept
  // subsequence (observations at or after the running clock max) — the
  // engine must behave exactly as if only those were fed, in order.
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Prng prng(seed * 104729);
    std::vector<Observation> sorted = GenStream(&prng, 30, 50);
    std::vector<Observation> shuffled = sorted;
    for (size_t i = shuffled.size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(
          prng.UniformInt(0, static_cast<int64_t>(i)));
      std::swap(shuffled[i], shuffled[j]);
    }
    std::vector<Observation> kept;
    TimePoint clock = 0;
    for (const Observation& obs : shuffled) {
      if (obs.timestamp < clock) continue;
      clock = obs.timestamp;
      kept.push_back(obs);
    }

    RunSpec tolerant;
    tolerant.tolerate_out_of_order = true;
    SpansByRule a = RunEngine(kSeqRules, shuffled, tolerant);
    SpansByRule b = RunEngine(kSeqRules, kept, RunSpec{});
    for (const auto& [rule_id, spans] : a) {
      EXPECT_EQ(spans, b[rule_id]) << "rule " << rule_id << " seed " << seed;
    }
  }
}

TEST(DifferentialFuzz, BaggageArrivalToleratedEqualsKeptSubsequence) {
  // The baggage workload's upload-order arrivals regress in time
  // whenever one portal's batch lands after another portal's later
  // batch. Fed with tolerate_out_of_order, the engine must behave
  // exactly as if only the kept subsequence (reads at or after the
  // running clock max) had arrived, in order — same invariant the
  // synthetic shuffle test pins, now on the realistic arrival process.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    std::vector<Observation> arrivals;
    {
      sim::BaggageConfig config;
      config.stage_readers = {"A", "B", "C", "A"};
      Prng prng(seed * 15485863);
      arrivals = sim::GenerateBaggage(config, {"x", "y", "z", "x", "y", "z"},
                                      &prng)
                     .arrivals;
    }
    std::vector<Observation> kept;
    TimePoint clock = 0;
    for (const Observation& obs : arrivals) {
      if (obs.timestamp < clock) continue;
      clock = obs.timestamp;
      kept.push_back(obs);
    }
    // The batching must actually produce regressions, or this test
    // degenerates into the in-order case.
    ASSERT_LT(kept.size(), arrivals.size()) << "seed " << seed;

    RunSpec tolerant;
    tolerant.tolerate_out_of_order = true;
    SpansByRule a = RunEngine(kSeqRules, arrivals, tolerant);
    SpansByRule b = RunEngine(kSeqRules, kept, RunSpec{});
    for (const auto& [rule_id, spans] : a) {
      EXPECT_EQ(spans, b[rule_id]) << "rule " << rule_id << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace rfidcep::engine
