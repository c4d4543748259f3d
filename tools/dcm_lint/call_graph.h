// Approximate call-graph construction and hot-path reachability.
//
// dcm_lint's hot-path rules (no-raw-new-in-hot-path, no-wall-clock,
// no-ambient-randomness) used to be scoped by directory; that both missed
// helpers outside src/sim called from the dispatch loop and forced allow()
// suppressions onto cold configuration code. This pass extracts every
// function definition from the lexed token streams, records which
// identifiers each body references, and computes the forward closure from
// the event-dispatch and request-path seed functions (Engine::run*,
// EventQueue::pop, Server::*, CpuScheduler::*, Tier::*, SlotPool::*, Vm::*,
// LoadBalancer::*, ClosedLoopGenerator::*). A rule then asks
// `facts.hot.is_hot(path, line)` instead of matching directories.
//
// The analysis is deliberately approximate and over-inclusive:
//   - edges are matched by unqualified name (a reference to `acquire`
//     reaches every function whose last component is `acquire`);
//   - lambdas defined inside a body count as part of that body, so
//     callbacks handed to the engine are traversed without resolving the
//     type erasure;
//   - mentioning a class name reaches its constructor.
// Over-approximation errs toward checking more code, which is the safe
// direction for determinism rules; allow() handles the rest.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "dcm_lint/token.h"

namespace dcm::lint {

struct LineRange {
  int begin = 0;
  int end = 0;
};

/// One function definition (a body was seen). `qualified` is the
/// class-qualified name without namespaces, e.g. "Server::submit",
/// "EventFn::EventFn", or "derive_seed" for free functions.
struct FunctionDef {
  std::string qualified;
  size_t body_begin = 0;  // token index of the opening '{'
  size_t body_end = 0;    // token index of the matching '}'
  int line_begin = 0;
  int line_end = 0;
  std::vector<std::string_view> refs;        // identifiers referenced in the body
  std::set<std::string_view> local_floats;   // float/double vars declared in the body
  std::vector<std::pair<size_t, size_t>> loop_ranges;  // token spans of loop bodies
};

/// Facts one file contributes to the whole-tree analysis.
struct FileFacts {
  std::vector<FunctionDef> functions;
  // float/double vars declared at class or namespace scope — long-lived
  // accumulators, the no-unanchored-float-accumulate candidates.
  std::set<std::string_view> long_lived_floats;
  // token indices of the *names* in those declarations, so a declaration
  // initializer (`double sum_ = 0.0;`) is not mistaken for a re-anchor.
  std::set<size_t> float_decl_name_tokens;
};

/// Single-pass scanner: function bodies, references, class/namespace-scope
/// float declarations.
FileFacts scan_file(std::string_view path, const LexResult& lexed);

/// Hot-line lookup built from the reachable set.
class HotPathIndex {
 public:
  void add(const std::string& path, LineRange range);
  void finalize();  // sort + merge ranges
  bool is_hot(std::string_view path, int line) const;

 private:
  std::map<std::string, std::vector<LineRange>, std::less<>> ranges_;
};

/// Whole-tree facts shared with the rules via FileContext.
struct TreeFacts {
  HotPathIndex hot;
  // Union of every file's long-lived float names; a .cpp mutating `sum_`
  // learns its type from the header that declared it.
  std::set<std::string, std::less<>> long_lived_floats;
  std::map<std::string, FileFacts, std::less<>> by_file;
  // Qualified names of reachable functions, for tests/debugging.
  std::set<std::string> hot_functions;
};

/// The seed list (class, method-prefix); method "*" matches any. Exposed so
/// tests and docs stay in sync with the implementation.
const std::vector<std::pair<std::string_view, std::string_view>>& hot_path_seeds();

/// Scans every file and computes hot-path reachability from the seeds.
TreeFacts build_tree_facts(
    const std::vector<std::pair<std::string, const LexResult*>>& files);

}  // namespace dcm::lint
