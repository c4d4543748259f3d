#include "dcm_lint/rules.h"

#include <algorithm>
#include <array>
#include <set>

namespace dcm::lint {
namespace {

bool under(std::string_view path, std::string_view prefix) {
  return path.substr(0, prefix.size()) == prefix;
}

bool in_src(std::string_view path) { return under(path, "src/"); }
bool in_src_or_tests(std::string_view path) {
  return under(path, "src/") || under(path, "tests/") || under(path, "examples/");
}
// The sweep CLI shares the determinism contract with the library: a stray
// random draw or unordered walk there breaks sweep digests all the same.
bool in_dcm_run(std::string_view path) { return under(path, "tools/dcm_run/"); }
// Examples are documentation that compiles; they must model the same
// determinism discipline the library enforces.
bool in_examples(std::string_view path) { return under(path, "examples/"); }

bool is_ident(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

/// Token before index i, or nullptr at the start of the file.
const Token* prev_tok(const std::vector<Token>& ts, size_t i) {
  return i > 0 ? &ts[i - 1] : nullptr;
}

const Token* next_tok(const std::vector<Token>& ts, size_t i) {
  return i + 1 < ts.size() ? &ts[i + 1] : nullptr;
}

bool is_member_access(const Token* prev) {
  return prev != nullptr && (is_punct(*prev, ".") || is_punct(*prev, "->"));
}

/// A call of exactly `name`: std::rand(), ::rand() and bare rand() all
/// match, while clock.time() (member call) and `double time() const`
/// (declaration: a non-keyword identifier directly precedes the name) do
/// not.
bool is_free_call(const std::vector<Token>& ts, size_t i, std::string_view name) {
  if (!is_ident(ts[i], name)) return false;
  const Token* next = next_tok(ts, i);
  if (next == nullptr || !is_punct(*next, "(")) return false;
  const Token* prev = prev_tok(ts, i);
  if (prev == nullptr) return true;
  if (is_member_access(prev)) return false;
  if (prev->kind == TokenKind::kIdentifier && prev->text != "return" &&
      prev->text != "co_return" && prev->text != "co_yield" && prev->text != "else" &&
      prev->text != "do" && prev->text != "case") {
    return false;
  }
  return true;
}

void report(std::vector<Diagnostic>& out, std::string_view rule, const FileContext& ctx,
            int line, std::string message) {
  out.push_back({std::string(rule), std::string(ctx.path), line, std::move(message)});
}

// ---------------------------------------------------------------------------
// no-wall-clock: simulation results must be a function of the seed alone;
// sim time comes from sim::Engine::now(), never the host clock. Scoped to
// hot-path-reachable functions: a clock read in a helper the dispatch loop
// calls is an error wherever the helper lives, while cold timing code (e.g.
// a benchmark's wall-time measurement around run_experiment) is legal.

class NoWallClock final : public Rule {
 public:
  std::string_view id() const override { return "no-wall-clock"; }
  bool applies_to(std::string_view path) const override { return in_src(path); }

  void run(const FileContext& ctx, std::vector<Diagnostic>& out) const override {
    static constexpr std::array<std::string_view, 9> kClockIdents = {
        "system_clock", "steady_clock",  "high_resolution_clock",
        "gettimeofday", "clock_gettime", "timespec_get",
        "localtime",    "gmtime",        "mktime"};
    const auto& ts = ctx.tokens;
    for (size_t i = 0; i < ts.size(); ++i) {
      if (ts[i].kind != TokenKind::kIdentifier) continue;
      if (!ctx.hot(ts[i].line)) continue;
      const bool named_clock =
          std::find(kClockIdents.begin(), kClockIdents.end(), ts[i].text) !=
          kClockIdents.end();
      if (named_clock || is_free_call(ts, i, "time") || is_free_call(ts, i, "clock")) {
        report(out, id(), ctx, ts[i].line,
               "wall-clock access '" + std::string(ts[i].text) +
                   "' on the hot path; sim code must take time from sim::Engine::now()");
      }
    }
  }
};

// ---------------------------------------------------------------------------
// no-ambient-randomness: every stochastic draw flows through common/rng so
// experiments replay bit-identically from the master seed. Inside src/ the
// rule follows hot-path reachability; the sweep CLI and examples are
// covered whole-file — they pick seeds and build configs, so a stray draw
// anywhere in them breaks replay even though no line is dispatch-reachable.

class NoAmbientRandomness final : public Rule {
 public:
  std::string_view id() const override { return "no-ambient-randomness"; }
  bool applies_to(std::string_view path) const override {
    return in_src(path) || in_dcm_run(path) || in_examples(path);
  }

  void run(const FileContext& ctx, std::vector<Diagnostic>& out) const override {
    static constexpr std::array<std::string_view, 7> kIdents = {
        "random_device", "srand", "srandom", "drand48", "lrand48", "mrand48", "rand_r"};
    const bool whole_file = in_dcm_run(ctx.path) || in_examples(ctx.path);
    const auto& ts = ctx.tokens;
    for (size_t i = 0; i < ts.size(); ++i) {
      if (ts[i].kind != TokenKind::kIdentifier) continue;
      if (!whole_file && !ctx.hot(ts[i].line)) continue;
      const bool named = std::find(kIdents.begin(), kIdents.end(), ts[i].text) != kIdents.end();
      if (named || is_free_call(ts, i, "rand") || is_free_call(ts, i, "random")) {
        report(out, id(), ctx, ts[i].line,
               "ambient randomness '" + std::string(ts[i].text) +
                   "'; draw from a seeded dcm::Rng stream (common/rng.h)");
      }
    }
  }
};

// ---------------------------------------------------------------------------
// no-unordered-iteration: iterating an unordered container feeds
// implementation-defined order into event scheduling or control decisions.
// Detected: range-for whose range expression (a) mentions an unordered_*
// type directly, or (b) names a variable this file declared with an
// unordered_* type.

class NoUnorderedIteration final : public Rule {
 public:
  std::string_view id() const override { return "no-unordered-iteration"; }
  // Tree-wide: hash-order iteration anywhere in the library (or the CLI and
  // examples that feed it) can leak implementation-defined order into event
  // scheduling, control decisions, or result emission.
  bool applies_to(std::string_view path) const override {
    return in_src(path) || in_dcm_run(path) || in_examples(path);
  }

  void run(const FileContext& ctx, std::vector<Diagnostic>& out) const override {
    const auto& ts = ctx.tokens;
    const std::set<std::string_view> unordered_vars = collect_unordered_vars(ts);

    for (size_t i = 0; i < ts.size(); ++i) {
      if (!is_ident(ts[i], "for")) continue;
      const Token* open = next_tok(ts, i);
      if (open == nullptr || !is_punct(*open, "(")) continue;
      // Find the top-level `:` and the matching `)`.
      int depth = 0;
      size_t colon = 0, close = 0;
      for (size_t j = i + 1; j < ts.size(); ++j) {
        if (ts[j].kind != TokenKind::kPunct) continue;
        if (ts[j].text == "(" || ts[j].text == "[" || ts[j].text == "{") {
          ++depth;
        } else if (ts[j].text == ")" || ts[j].text == "]" || ts[j].text == "}") {
          --depth;
          if (depth == 0) {
            close = j;
            break;
          }
        } else if (ts[j].text == ":" && depth == 1 && colon == 0) {
          colon = j;
        }
      }
      if (colon == 0 || close == 0) continue;  // not a range-for
      for (size_t j = colon + 1; j < close; ++j) {
        if (ts[j].kind != TokenKind::kIdentifier) continue;
        const bool unordered_type = ts[j].text.substr(0, 10) == "unordered_";
        const bool unordered_var = unordered_vars.count(ts[j].text) > 0;
        if (unordered_type || unordered_var) {
          report(out, id(), ctx, ts[i].line,
                 "range-for over unordered container '" + std::string(ts[j].text) +
                     "'; iteration order is implementation-defined and leaks into "
                     "event order — use an ordered container or sort first");
          break;
        }
      }
    }
  }

 private:
  // Names declared as `std::unordered_map<...> name` (also &/*/const forms).
  static std::set<std::string_view> collect_unordered_vars(const std::vector<Token>& ts) {
    static constexpr std::array<std::string_view, 4> kTypes = {
        "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};
    std::set<std::string_view> vars;
    for (size_t i = 0; i < ts.size(); ++i) {
      if (ts[i].kind != TokenKind::kIdentifier) continue;
      if (std::find(kTypes.begin(), kTypes.end(), ts[i].text) == kTypes.end()) continue;
      size_t j = i + 1;
      if (j < ts.size() && is_punct(ts[j], "<")) {
        int depth = 0;
        for (; j < ts.size(); ++j) {
          if (ts[j].kind != TokenKind::kPunct) continue;
          if (ts[j].text == "<") ++depth;
          else if (ts[j].text == ">" && --depth == 0) { ++j; break; }
        }
      }
      while (j < ts.size() &&
             (is_punct(ts[j], "&") || is_punct(ts[j], "*") || is_ident(ts[j], "const"))) {
        ++j;
      }
      if (j < ts.size() && ts[j].kind == TokenKind::kIdentifier) vars.insert(ts[j].text);
    }
    return vars;
  }
};

// ---------------------------------------------------------------------------
// no-raw-assert: assert() vanishes under NDEBUG, so release builds skip the
// invariant; DCM_CHECK stays on and DCM_DCHECK is the sanctioned debug-only
// form.

class NoRawAssert final : public Rule {
 public:
  std::string_view id() const override { return "no-raw-assert"; }
  bool applies_to(std::string_view path) const override { return in_src_or_tests(path); }

  void run(const FileContext& ctx, std::vector<Diagnostic>& out) const override {
    const auto& ts = ctx.tokens;
    for (size_t i = 0; i < ts.size(); ++i) {
      if (is_free_call(ts, i, "assert")) {
        report(out, id(), ctx, ts[i].line,
               "raw assert(); use DCM_CHECK (always on) or DCM_DCHECK (debug-only) "
               "from common/check.h");
      }
      // #include <cassert> / <assert.h> / "assert.h"
      if (is_punct(ts[i], "#") && i + 1 < ts.size() && is_ident(ts[i + 1], "include") &&
          ts[i + 1].line == ts[i].line) {
        if (include_names_assert(ts, i + 2, ts[i].line)) {
          report(out, id(), ctx, ts[i].line,
                 "includes the assert header; use common/check.h instead");
        }
      }
    }
  }

 private:
  static bool include_names_assert(const std::vector<Token>& ts, size_t i, int line) {
    if (i >= ts.size() || ts[i].line != line) return false;
    if (ts[i].kind == TokenKind::kString) {
      return ts[i].text.find("assert.h") != std::string_view::npos;
    }
    if (is_punct(ts[i], "<")) {
      for (size_t j = i + 1; j < ts.size() && ts[j].line == line; ++j) {
        if (is_punct(ts[j], ">")) break;
        if (is_ident(ts[j], "cassert") || is_ident(ts[j], "assert")) return true;
      }
    }
    return false;
  }
};

// ---------------------------------------------------------------------------
// no-float-eq: exact equality on floats is almost never what simulation or
// fitting code means. Token-level heuristic: flag ==/!= when either operand
// next to the operator is a floating-point literal.

class NoFloatEq final : public Rule {
 public:
  std::string_view id() const override { return "no-float-eq"; }
  bool applies_to(std::string_view path) const override { return in_src_or_tests(path); }

  void run(const FileContext& ctx, std::vector<Diagnostic>& out) const override {
    const auto& ts = ctx.tokens;
    for (size_t i = 0; i < ts.size(); ++i) {
      if (ts[i].kind != TokenKind::kPunct || (ts[i].text != "==" && ts[i].text != "!="))
        continue;
      const Token* lhs = prev_tok(ts, i);
      const Token* rhs = next_tok(ts, i);
      // Allow a unary sign on the right: x == -1.0
      if (rhs != nullptr && (is_punct(*rhs, "-") || is_punct(*rhs, "+"))) {
        rhs = next_tok(ts, i + 1);
      }
      if ((lhs != nullptr && is_float_literal(*lhs)) ||
          (rhs != nullptr && is_float_literal(*rhs))) {
        report(out, id(), ctx, ts[i].line,
               "floating-point equality comparison; compare with an explicit "
               "tolerance (or EXPECT_NEAR in tests)");
      }
    }
  }

 private:
  static bool is_float_literal(const Token& t) {
    if (t.kind != TokenKind::kNumber) return false;
    const std::string_view s = t.text;
    const bool hex = s.size() > 1 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X');
    if (hex) {
      return s.find('p') != std::string_view::npos || s.find('P') != std::string_view::npos;
    }
    return s.find('.') != std::string_view::npos ||
           s.find('e') != std::string_view::npos || s.find('E') != std::string_view::npos;
  }
};

// ---------------------------------------------------------------------------
// no-raw-new-in-hot-path: PR 1 made the event core allocation-free at steady
// state, and the request-slab/arena refactor extended that guarantee through
// the tier/server request path; raw new/delete in a function the dispatch
// loop reaches would quietly reintroduce per-event or per-request
// allocations. Scope is hot-path reachability (anywhere under src/), not a
// directory list: a helper in src/common called per event is covered, cold
// setup code is not. Placement new for SBO/slab internals is expected to
// carry an explicit allow() suppression.

class NoRawNewInHotPath final : public Rule {
 public:
  std::string_view id() const override { return "no-raw-new-in-hot-path"; }
  bool applies_to(std::string_view path) const override { return in_src(path); }

  void run(const FileContext& ctx, std::vector<Diagnostic>& out) const override {
    const auto& ts = ctx.tokens;
    for (size_t i = 0; i < ts.size(); ++i) {
      if (!ctx.hot(ts[i].line)) continue;
      if (is_ident(ts[i], "new")) {
        // `#include <new>` names the header, not the operator.
        const Token* prev = prev_tok(ts, i);
        if (prev != nullptr && is_punct(*prev, "<") && i >= 2 &&
            is_ident(ts[i - 2], "include")) {
          continue;
        }
        report(out, id(), ctx, ts[i].line,
               "raw 'new' in the sim hot path; use the engine's slab/SBO storage "
               "(suppress explicitly for placement-new internals)");
      } else if (is_ident(ts[i], "delete")) {
        const Token* prev = prev_tok(ts, i);
        if (prev != nullptr && is_punct(*prev, "=")) continue;  // = delete
        report(out, id(), ctx, ts[i].line,
               "raw 'delete' in the sim hot path; use the engine's slab/SBO storage "
               "(suppress explicitly for SBO destroy internals)");
      }
    }
  }
};

// ---------------------------------------------------------------------------
// no-pointer-keyed-order: an ordered map/set keyed on a pointer orders its
// elements by address, and addresses differ run to run — iterating one feeds
// ASLR into event order and result digests. (Pointer-keyed *unordered*
// containers are legal as lookups; iterating them is no-unordered-iteration's
// business.)

class NoPointerKeyedOrder final : public Rule {
 public:
  std::string_view id() const override { return "no-pointer-keyed-order"; }
  bool applies_to(std::string_view path) const override {
    return in_src(path) || in_dcm_run(path) || in_examples(path);
  }

  void run(const FileContext& ctx, std::vector<Diagnostic>& out) const override {
    static constexpr std::array<std::string_view, 4> kContainers = {"map", "set",
                                                                   "multimap", "multiset"};
    const auto& ts = ctx.tokens;
    for (size_t i = 0; i + 1 < ts.size(); ++i) {
      if (ts[i].kind != TokenKind::kIdentifier) continue;
      if (std::find(kContainers.begin(), kContainers.end(), ts[i].text) ==
          kContainers.end()) {
        continue;
      }
      if (!is_punct(ts[i + 1], "<")) continue;
      // Walk the key type: tokens until the ',' or '>' that closes it.
      int angle = 1;
      int round = 0;
      bool pointer_key = false;
      for (size_t j = i + 2; j < ts.size() && angle > 0; ++j) {
        const Token& t = ts[j];
        if (t.kind != TokenKind::kPunct) continue;
        if (t.text == "<") ++angle;
        else if (t.text == ">") --angle;
        else if (t.text == "(") ++round;
        else if (t.text == ")") --round;
        else if (t.text == "," && angle == 1 && round == 0) break;
        else if (t.text == "*" && round == 0) pointer_key = true;
      }
      if (pointer_key) {
        report(out, id(), ctx, ts[i].line,
               "ordered '" + std::string(ts[i].text) +
                   "' keyed on a pointer; iteration order is the address order, which "
                   "differs run to run — key on a stable id (name, index) instead");
      }
    }
  }
};

// ---------------------------------------------------------------------------
// no-unanchored-float-accumulate: incrementally updating a long-lived
// float/double (`sum_ += x` on add, `sum_ -= x` on evict) drifts away from
// the value a fresh recompute would give, and the drift is
// evaluation-order-dependent — the exact bug class CpuScheduler fixes by
// hand (maybe_reanchor: once idle, the virtual clock and the work integral
// are reset to exact values). The rule fires on += / -= applied inside a loop
// to a float variable that outlives the enclosing function (class member or
// namespace-scope), unless the file re-anchors the variable with a plain
// assignment somewhere. Per-call local accumulators are deterministic and
// exempt.

class NoUnanchoredFloatAccumulate final : public Rule {
 public:
  std::string_view id() const override { return "no-unanchored-float-accumulate"; }
  bool applies_to(std::string_view path) const override { return in_src(path); }

  void run(const FileContext& ctx, std::vector<Diagnostic>& out) const override {
    if (ctx.tree == nullptr) return;
    const auto file_it = ctx.tree->by_file.find(std::string(ctx.path));
    if (file_it == ctx.tree->by_file.end()) return;
    const FileFacts& facts = file_it->second;
    const auto& ts = ctx.tokens;

    for (const FunctionDef& fn : facts.functions) {
      for (const auto& [lo, hi] : fn.loop_ranges) {
        for (size_t i = lo; i < hi && i + 1 < ts.size(); ++i) {
          if (ts[i].kind != TokenKind::kIdentifier) continue;
          // `v += e` or `v[k] += e`.
          size_t op = i + 1;
          if (is_punct(ts[op], "[")) {
            int depth = 0;
            for (; op < hi; ++op) {
              if (ts[op].kind != TokenKind::kPunct) continue;
              if (ts[op].text == "[") ++depth;
              else if (ts[op].text == "]" && --depth == 0) { ++op; break; }
            }
          }
          if (op >= ts.size() || ts[op].kind != TokenKind::kPunct ||
              (ts[op].text != "+=" && ts[op].text != "-=")) {
            continue;
          }
          const std::string_view name = ts[i].text;
          if (fn.local_floats.count(name) > 0) continue;  // fresh per call
          const bool long_lived =
              facts.long_lived_floats.count(name) > 0 ||
              ctx.tree->long_lived_floats.count(name) > 0;
          if (!long_lived) continue;
          if (has_reanchor(facts, ts, name)) continue;
          report(out, id(), ctx, ts[i].line,
                 "'" + std::string(name) +
                     "' accumulates " + std::string(ts[op].text) +
                     " in a loop with no re-anchoring assignment; incremental float "
                     "state drifts from the recomputed value (re-anchor like "
                     "CpuScheduler's virtual clock, or recompute)");
        }
      }
    }
  }

 private:
  /// A plain `name = …` assignment anywhere in this file, other than the
  /// declaration's own initializer, re-anchors the accumulator.
  static bool has_reanchor(const FileFacts& facts, const std::vector<Token>& ts,
                           std::string_view name) {
    for (size_t i = 0; i + 1 < ts.size(); ++i) {
      if (ts[i].kind != TokenKind::kIdentifier || ts[i].text != name) continue;
      if (facts.float_decl_name_tokens.count(i) > 0) continue;
      size_t op = i + 1;
      if (is_punct(ts[op], "[")) {
        int depth = 0;
        for (; op < ts.size(); ++op) {
          if (ts[op].kind != TokenKind::kPunct) continue;
          if (ts[op].text == "[") ++depth;
          else if (ts[op].text == "]" && --depth == 0) { ++op; break; }
        }
      }
      if (op < ts.size() && is_punct(ts[op], "=")) return true;
    }
    return false;
  }
};

}  // namespace

const std::vector<std::unique_ptr<Rule>>& default_rules() {
  static const std::vector<std::unique_ptr<Rule>>* rules = [] {
    auto* v = new std::vector<std::unique_ptr<Rule>>();
    v->push_back(std::make_unique<NoWallClock>());
    v->push_back(std::make_unique<NoAmbientRandomness>());
    v->push_back(std::make_unique<NoUnorderedIteration>());
    v->push_back(std::make_unique<NoRawAssert>());
    v->push_back(std::make_unique<NoFloatEq>());
    v->push_back(std::make_unique<NoRawNewInHotPath>());
    v->push_back(std::make_unique<NoPointerKeyedOrder>());
    v->push_back(std::make_unique<NoUnanchoredFloatAccumulate>());
    return v;
  }();
  return *rules;
}

bool is_known_rule(std::string_view id) {
  if (id == "header-self-sufficiency") return true;
  if (id == "layering-violation" || id == "include-cycle") return true;
  for (const auto& rule : default_rules()) {
    if (rule->id() == id) return true;
  }
  return false;
}

}  // namespace dcm::lint
