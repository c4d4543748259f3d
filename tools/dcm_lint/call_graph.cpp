#include "dcm_lint/call_graph.h"

#include <algorithm>
#include <array>
#include <deque>

namespace dcm::lint {
namespace {

bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

bool is_ident(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

// Keywords that read like `name (...)` but never open a function definition.
bool is_nonfunction_keyword(std::string_view t) {
  static constexpr std::array<std::string_view, 18> kKw = {
      "if",      "for",      "while",     "switch",   "catch",  "return",
      "sizeof",  "alignof",  "decltype",  "new",      "delete", "throw",
      "co_return", "co_await", "co_yield", "static_assert", "alignas", "defined"};
  return std::find(kKw.begin(), kKw.end(), t) != kKw.end();
}

// C++ keywords excluded from reference collection (they can never name a
// function this analysis defined).
bool is_cpp_keyword(std::string_view t) {
  static constexpr std::array<std::string_view, 52> kKw = {
      "if",       "else",     "for",      "while",    "do",      "switch",
      "case",     "default",  "break",    "continue", "return",  "goto",
      "new",      "delete",   "this",     "nullptr",  "true",    "false",
      "const",    "constexpr", "consteval", "constinit", "static", "inline",
      "virtual",  "override", "final",    "mutable",  "volatile", "noexcept",
      "template", "typename", "class",    "struct",   "enum",    "union",
      "namespace", "using",    "typedef",  "auto",     "void",    "bool",
      "char",     "int",      "long",     "short",    "float",   "double",
      "unsigned", "signed",   "sizeof",   "try"};
  return std::find(kKw.begin(), kKw.end(), t) != kKw.end();
}

/// Index of the closer matching the opener at `open` (one of ( [ {), or
/// npos when unbalanced. Angle brackets are ignored on purpose: template
/// argument lists do not nest reliably at token level.
size_t match_forward(const std::vector<Token>& ts, size_t open) {
  int depth = 0;
  for (size_t j = open; j < ts.size(); ++j) {
    if (ts[j].kind != TokenKind::kPunct) continue;
    const std::string_view t = ts[j].text;
    if (t == "(" || t == "[" || t == "{") {
      ++depth;
    } else if (t == ")" || t == "]" || t == "}") {
      if (--depth == 0) return j;
    }
  }
  return std::string_view::npos;
}

/// Recognizes a float/double variable declaration whose *name* starts at or
/// after `i` (`i` is the type keyword). Returns the token index of the name,
/// or npos. Pointer/reference declarations are skipped — `double* p` is not
/// an accumulator.
size_t float_decl_name(const std::vector<Token>& ts, size_t i) {
  size_t j = i + 1;
  while (j < ts.size() && is_ident(ts[j], "const")) ++j;
  if (j >= ts.size() || ts[j].kind != TokenKind::kIdentifier) return std::string_view::npos;
  if (is_cpp_keyword(ts[j].text)) return std::string_view::npos;
  const size_t name = j;
  if (name + 1 >= ts.size()) return std::string_view::npos;
  const Token& after = ts[name + 1];
  // `double rate(` is a function; `double x;`, `double x = …`, `double x{…}`,
  // `double x[…]`, `double x,` are declarations.
  if (is_punct(after, ";") || is_punct(after, "=") || is_punct(after, "{") ||
      is_punct(after, "[") || is_punct(after, ",")) {
    return name;
  }
  return std::string_view::npos;
}

struct Scope {
  enum Kind { kNamespace, kClass, kOther };
  Kind kind;
  std::string_view name;  // class name, empty otherwise
};

class Scanner {
 public:
  explicit Scanner(const LexResult& lexed) : ts_(lexed.tokens) {}

  FileFacts run() {
    size_t i = 0;
    const size_t n = ts_.size();
    while (i < n) {
      const Token& t = ts_[i];
      if (t.kind == TokenKind::kPunct) {
        if (t.text == "{") {
          stack_.push_back({Scope::kOther, {}});
        } else if (t.text == "}") {
          if (!stack_.empty()) stack_.pop_back();
        }
        ++i;
        continue;
      }
      if (t.kind != TokenKind::kIdentifier) {
        ++i;
        continue;
      }
      if (t.text == "namespace") {
        i = handle_namespace(i);
        continue;
      }
      if (t.text == "enum") {
        i = handle_enum(i);
        continue;
      }
      if ((t.text == "class" || t.text == "struct") && !is_template_param(i)) {
        i = handle_class(i);
        continue;
      }
      // Long-lived float declarations live at class / namespace / file scope
      // (function bodies are consumed wholesale below, so anything the main
      // walk sees here is outside a body).
      if (t.text == "double" || t.text == "float") {
        const size_t name = float_decl_name(ts_, i);
        if (name != std::string_view::npos) {
          facts_.long_lived_floats.insert(ts_[name].text);
          facts_.float_decl_name_tokens.insert(name);
        }
        ++i;
        continue;
      }
      // Candidate function definition: `name (` ... `) [qualifiers] {`.
      const bool op = t.text == "operator";
      if (!is_nonfunction_keyword(t.text) &&
          ((i + 1 < n && is_punct(ts_[i + 1], "(")) || op)) {
        const size_t next = try_function(i);
        if (next != i) {
          i = next;
          continue;
        }
      }
      ++i;
    }
    return std::move(facts_);
  }

 private:
  bool is_template_param(size_t i) const {
    // `template <class T, class U>`: the keyword follows '<' or ','.
    if (i == 0) return false;
    const Token& prev = ts_[i - 1];
    return is_punct(prev, "<") || is_punct(prev, ",");
  }

  size_t handle_namespace(size_t i) {
    size_t j = i + 1;
    while (j < ts_.size() &&
           (ts_[j].kind == TokenKind::kIdentifier || is_punct(ts_[j], "::"))) {
      ++j;
    }
    if (j < ts_.size() && is_punct(ts_[j], "{")) {
      stack_.push_back({Scope::kNamespace, {}});
      return j + 1;
    }
    return j;  // namespace alias / using-directive fragment
  }

  size_t handle_enum(size_t i) {
    // Consume to the '{' (push an opaque scope) or ';' (opaque declaration);
    // this also swallows the `class` in `enum class`.
    for (size_t j = i + 1; j < ts_.size(); ++j) {
      if (is_punct(ts_[j], "{")) {
        stack_.push_back({Scope::kOther, {}});
        return j + 1;
      }
      if (is_punct(ts_[j], ";") || is_punct(ts_[j], "=")) return j;  // `enum X e;` / default arg
    }
    return ts_.size();
  }

  size_t handle_class(size_t i) {
    std::string_view name;
    for (size_t j = i + 1; j < ts_.size(); ++j) {
      const Token& t = ts_[j];
      if (t.kind == TokenKind::kIdentifier && name.empty() && t.text != "final" &&
          t.text != "alignas") {
        name = t.text;
      } else if (is_punct(t, "(")) {
        const size_t close = match_forward(ts_, j);
        if (close == std::string_view::npos) return ts_.size();
        j = close;
      } else if (is_punct(t, "{")) {
        stack_.push_back({Scope::kClass, name});
        return j + 1;
      } else if (is_punct(t, ";") || is_punct(t, ">")) {
        // Forward declaration, or `class T` inside a template argument list.
        return j;
      }
    }
    return ts_.size();
  }

  /// At token `i` (identifier, possibly `operator`): if a function
  /// definition starts here, record it and return the index just past its
  /// body; otherwise return `i` unchanged.
  size_t try_function(size_t i) {
    const size_t n = ts_.size();
    std::string name(ts_[i].text);
    size_t params_open;
    if (ts_[i].text == "operator") {
      // `operator==(`, `operator()(`, `operator[](`, `operator bool(`.
      size_t j = i + 1;
      while (j < n && ts_[j].kind == TokenKind::kPunct && !is_punct(ts_[j], "(")) {
        name += ts_[j].text;
        ++j;
      }
      if (j < n && is_punct(ts_[j], "(") && name == "operator") {
        // operator(): the first '(' is part of the name.
        if (j + 1 < n && is_punct(ts_[j + 1], ")") && j + 2 < n &&
            is_punct(ts_[j + 2], "(")) {
          name += "()";
          j += 2;
        }
      } else if (j < n && ts_[j].kind == TokenKind::kIdentifier) {
        // conversion operator: `operator bool (`
        name += " ";
        name += ts_[j].text;
        ++j;
      }
      if (j >= n || !is_punct(ts_[j], "(")) return i;
      params_open = j;
    } else {
      params_open = i + 1;
    }
    const size_t params_close = match_forward(ts_, params_open);
    if (params_close == std::string_view::npos) return i;

    // Skim post-parameter qualifiers to find '{' (definition), or bail.
    size_t k = params_close + 1;
    while (k < n) {
      const Token& t = ts_[k];
      if (t.kind == TokenKind::kIdentifier &&
          (t.text == "const" || t.text == "noexcept" || t.text == "override" ||
           t.text == "final" || t.text == "mutable" || t.text == "volatile" ||
           t.text == "try")) {
        if (t.text == "noexcept" && k + 1 < n && is_punct(ts_[k + 1], "(")) {
          const size_t close = match_forward(ts_, k + 1);
          if (close == std::string_view::npos) return i;
          k = close + 1;
        } else {
          ++k;
        }
        continue;
      }
      if (is_punct(t, "&") || is_punct(t, "&&")) {
        ++k;
        continue;
      }
      if (is_punct(t, "->")) {
        // Trailing return type: skip tokens until the body '{' or a ';'.
        ++k;
        while (k < n && !is_punct(ts_[k], "{") && !is_punct(ts_[k], ";")) {
          if (is_punct(ts_[k], "(")) {
            const size_t close = match_forward(ts_, k);
            if (close == std::string_view::npos) return i;
            k = close;
          }
          ++k;
        }
        continue;
      }
      if (is_punct(t, ":")) {
        // Constructor initializer list: `): a_(x), b_{y} {`.
        ++k;
        while (k < n) {
          while (k < n && (ts_[k].kind == TokenKind::kIdentifier ||
                           is_punct(ts_[k], "::") || is_punct(ts_[k], "<") ||
                           is_punct(ts_[k], ">") || is_punct(ts_[k], ","))) {
            ++k;
          }
          if (k >= n || (!is_punct(ts_[k], "(") && !is_punct(ts_[k], "{"))) return i;
          const bool brace = is_punct(ts_[k], "{");
          const size_t close = match_forward(ts_, k);
          if (close == std::string_view::npos) return i;
          k = close + 1;
          if (k < n && is_punct(ts_[k], ",")) {
            ++k;
            continue;
          }
          if (brace && k < n && !is_punct(ts_[k], "{")) {
            // `b_{y}` was actually the body of a ctor with empty qualifiers
            // — can't distinguish; treat the brace we just matched as the
            // body only when nothing else follows the list.
          }
          break;
        }
        continue;
      }
      break;
    }
    if (k >= n || !is_punct(ts_[k], "{")) return i;

    const size_t body_end = match_forward(ts_, k);
    if (body_end == std::string_view::npos) return i;

    FunctionDef def;
    def.qualified = qualify(i, name);
    def.body_begin = k;
    def.body_end = body_end;
    def.line_begin = ts_[i].line;
    def.line_end = ts_[body_end].line;
    scan_body(def);
    facts_.functions.push_back(std::move(def));
    return body_end + 1;
  }

  /// Prefixes explicit `A::B::` qualifiers and enclosing class names.
  std::string qualify(size_t name_tok, const std::string& name) const {
    std::string qual = name;
    size_t b = name_tok;
    while (b >= 2 && is_punct(ts_[b - 1], "::") &&
           ts_[b - 2].kind == TokenKind::kIdentifier) {
      qual = std::string(ts_[b - 2].text) + "::" + qual;
      b -= 2;
    }
    // Inline definition inside `class X { … }`: prepend the class stack.
    std::string prefix;
    for (const Scope& s : stack_) {
      if (s.kind == Scope::kClass && !s.name.empty()) {
        prefix += std::string(s.name) + "::";
      }
    }
    return prefix + qual;
  }

  /// Collects references, local float declarations, and loop body spans.
  void scan_body(FunctionDef& def) {
    std::set<std::string_view> refs;
    for (size_t j = def.body_begin + 1; j < def.body_end; ++j) {
      const Token& t = ts_[j];
      if (t.kind != TokenKind::kIdentifier) continue;
      if (t.text == "double" || t.text == "float") {
        const size_t name = float_decl_name(ts_, j);
        if (name != std::string_view::npos && name < def.body_end) {
          def.local_floats.insert(ts_[name].text);
        }
        continue;
      }
      if (t.text == "for" || t.text == "while") {
        if (j + 1 < def.body_end && is_punct(ts_[j + 1], "(")) {
          const size_t close = match_forward(ts_, j + 1);
          if (close != std::string_view::npos && close < def.body_end) {
            add_loop_range(def, close + 1);
          }
        }
        continue;
      }
      if (t.text == "do") {
        add_loop_range(def, j + 1);
        continue;
      }
      if (!is_cpp_keyword(t.text)) refs.insert(t.text);
    }
    def.refs.assign(refs.begin(), refs.end());
  }

  /// Loop body starting at `start`: `{ … }` or a single statement to `;`.
  void add_loop_range(FunctionDef& def, size_t start) {
    if (start >= def.body_end) return;
    if (is_punct(ts_[start], "{")) {
      const size_t close = match_forward(ts_, start);
      if (close != std::string_view::npos) def.loop_ranges.emplace_back(start, close);
      return;
    }
    for (size_t j = start; j < def.body_end; ++j) {
      if (is_punct(ts_[j], ";")) {
        def.loop_ranges.emplace_back(start, j);
        return;
      }
      if (is_punct(ts_[j], "{")) {
        const size_t close = match_forward(ts_, j);
        if (close == std::string_view::npos) return;
        j = close;
      }
    }
  }

  const std::vector<Token>& ts_;
  std::vector<Scope> stack_;
  FileFacts facts_;
};

std::string_view last_component(std::string_view qualified) {
  const size_t pos = qualified.rfind("::");
  return pos == std::string_view::npos ? qualified : qualified.substr(pos + 2);
}

std::string_view enclosing_class(std::string_view qualified) {
  const size_t last = qualified.rfind("::");
  if (last == std::string_view::npos) return {};
  const std::string_view head = qualified.substr(0, last);
  const size_t prev = head.rfind("::");
  return prev == std::string_view::npos ? head : head.substr(prev + 2);
}

}  // namespace

FileFacts scan_file(std::string_view /*path*/, const LexResult& lexed) {
  return Scanner(lexed).run();
}

void HotPathIndex::add(const std::string& path, LineRange range) {
  ranges_[path].push_back(range);
}

void HotPathIndex::finalize() {
  for (auto& [path, ranges] : ranges_) {
    std::sort(ranges.begin(), ranges.end(),
              [](const LineRange& a, const LineRange& b) { return a.begin < b.begin; });
    std::vector<LineRange> merged;
    for (const LineRange& r : ranges) {
      if (!merged.empty() && r.begin <= merged.back().end + 1) {
        merged.back().end = std::max(merged.back().end, r.end);
      } else {
        merged.push_back(r);
      }
    }
    ranges = std::move(merged);
  }
}

bool HotPathIndex::is_hot(std::string_view path, int line) const {
  const auto it = ranges_.find(path);
  if (it == ranges_.end()) return false;
  const auto& ranges = it->second;
  auto pos = std::upper_bound(ranges.begin(), ranges.end(), line,
                              [](int l, const LineRange& r) { return l < r.begin; });
  if (pos == ranges.begin()) return false;
  --pos;
  return line >= pos->begin && line <= pos->end;
}

const std::vector<std::pair<std::string_view, std::string_view>>& hot_path_seeds() {
  // The event-dispatch loop, the tier/server request path, the client
  // request path that drives it, the tracer that samples and stores every
  // traced request, and the telemetry path every VM-second crosses (the
  // monitor agent, the producer, the partition log and the consumer). A
  // "*" method matches every member; a non-*
  // entry is a prefix (Engine::run covers run_until / run_for /
  // run_to_completion). Keep DESIGN.md §10 in sync.
  static const std::vector<std::pair<std::string_view, std::string_view>> kSeeds = {
      {"Engine", "run"},     {"Engine", "retime"}, {"EventQueue", "*"},
      {"Server", "*"},       {"CpuScheduler", "*"}, {"Tier", "*"},
      {"SlotPool", "*"},     {"Vm", "*"},           {"LoadBalancer", "*"},
      {"ClosedLoopGenerator", "*"}, {"Tracer", "*"}, {"TraceStore", "*"},
      {"MonitorAgent", "*"}, {"Producer", "*"},     {"Partition", "*"},
      {"Consumer", "*"},
  };
  return kSeeds;
}

TreeFacts build_tree_facts(
    const std::vector<std::pair<std::string, const LexResult*>>& files) {
  TreeFacts facts;

  // Scan every file; build the name index for edge resolution.
  struct DefRef {
    const std::string* path;
    const FunctionDef* def;
  };
  std::vector<DefRef> defs;
  for (const auto& [path, lexed] : files) {
    FileFacts file_facts = scan_file(path, *lexed);
    for (const std::string_view name : file_facts.long_lived_floats) {
      facts.long_lived_floats.insert(std::string(name));
    }
    facts.by_file.emplace(path, std::move(file_facts));
  }
  for (const auto& [path, file_facts] : facts.by_file) {
    for (const FunctionDef& def : file_facts.functions) {
      defs.push_back({&path, &def});
    }
  }

  std::map<std::string_view, std::vector<size_t>> by_name;
  for (size_t d = 0; d < defs.size(); ++d) {
    by_name[last_component(defs[d].def->qualified)].push_back(d);
  }

  // Seed set.
  std::vector<bool> hot(defs.size(), false);
  std::deque<size_t> queue;
  for (size_t d = 0; d < defs.size(); ++d) {
    const std::string_view cls = enclosing_class(defs[d].def->qualified);
    const std::string_view method = last_component(defs[d].def->qualified);
    for (const auto& [seed_class, seed_method] : hot_path_seeds()) {
      if (cls != seed_class) continue;
      if (seed_method == "*" || method.substr(0, seed_method.size()) == seed_method) {
        hot[d] = true;
        queue.push_back(d);
        break;
      }
    }
  }

  // Forward closure over name-matched references.
  while (!queue.empty()) {
    const size_t d = queue.front();
    queue.pop_front();
    for (const std::string_view ref : defs[d].def->refs) {
      const auto it = by_name.find(ref);
      if (it == by_name.end()) continue;
      for (const size_t target : it->second) {
        if (!hot[target]) {
          hot[target] = true;
          queue.push_back(target);
        }
      }
    }
  }

  for (size_t d = 0; d < defs.size(); ++d) {
    if (!hot[d]) continue;
    facts.hot.add(*defs[d].path, {defs[d].def->line_begin, defs[d].def->line_end});
    facts.hot_functions.insert(defs[d].def->qualified);
  }
  facts.hot.finalize();
  return facts;
}

}  // namespace dcm::lint
