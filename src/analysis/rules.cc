#include "analysis/rules.h"

#include <algorithm>
#include <functional>
#include <sstream>

namespace wikimatch {
namespace analysis {

namespace {

using Tokens = std::vector<Token>;

bool IsId(const Token& t, const std::string& s) {
  return t.kind == TokenKind::kIdentifier && t.text == s;
}
bool IsPunct(const Token& t, const std::string& s) {
  return t.kind == TokenKind::kPunct && t.text == s;
}

// ------------------------------------------------------------- naked-new

bool HasSmartWrap(const std::string& clean_line) {
  return clean_line.find("unique_ptr<") != std::string::npos ||
         clean_line.find("shared_ptr<") != std::string::npos ||
         clean_line.find("make_unique") != std::string::npos ||
         clean_line.find("make_shared") != std::string::npos;
}

void RunNakedNew(const SourceTree& tree, std::vector<Diagnostic>* out) {
  for (const auto& [path, file] : tree.files()) {
    const Tokens& toks = file.lex.tokens;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      if (!IsId(toks[i], "new")) continue;
      const Token& next = toks[i + 1];
      bool allocates =
          next.kind == TokenKind::kIdentifier || IsPunct(next, "::");
      if (!allocates) continue;
      if (i > 0 && IsId(toks[i - 1], "operator")) continue;
      int line = toks[i].line;
      if (file.lex.Silenced(line, "naked-new")) continue;
      size_t idx = static_cast<size_t>(line - 1);
      bool wrapped =
          (idx < file.lex.clean_lines.size() &&
           HasSmartWrap(file.lex.clean_lines[idx])) ||
          (idx >= 1 && HasSmartWrap(file.lex.clean_lines[idx - 1]));
      if (wrapped) continue;
      out->push_back({path, line, "naked-new",
                      "raw `new` — wrap in make_unique/make_shared or an "
                      "owning smart pointer on the same or previous line"});
    }
  }
}

// ------------------------------------------- raw-mutex / raw-thread

const std::set<std::string>& RawSyncTypes() {
  static const std::set<std::string> kTypes = {
      "mutex",       "recursive_mutex",          "timed_mutex",
      "shared_mutex", "recursive_timed_mutex",   "lock_guard",
      "unique_lock", "scoped_lock",              "shared_lock",
      "condition_variable", "condition_variable_any"};
  return kTypes;
}

void RunStdBan(const SourceTree& tree, const std::string& rule,
               const std::set<std::string>& banned,
               const std::set<std::string>& exempt_modules,
               const std::string& message, std::vector<Diagnostic>* out) {
  for (const auto& [path, file] : tree.files()) {
    if (exempt_modules.count(file.module) > 0) continue;
    const Tokens& toks = file.lex.tokens;
    for (size_t i = 0; i + 2 < toks.size(); ++i) {
      if (!IsId(toks[i], "std") || !IsPunct(toks[i + 1], "::")) continue;
      if (banned.count(toks[i + 2].text) == 0 ||
          toks[i + 2].kind != TokenKind::kIdentifier) {
        continue;
      }
      int line = toks[i].line;
      if (file.lex.Silenced(line, rule) ||
          file.lex.Silenced(toks[i + 2].line, rule)) {
        continue;
      }
      out->push_back({path, line, rule,
                      "std::" + toks[i + 2].text + " — " + message});
    }
  }
}

// ------------------------------------------------------ assign-or-return

constexpr char kAssignMacro[] = "WIKIMATCH_ASSIGN_OR_RETURN";

// Index of the token matching the `(` at `open`, or toks.size().
size_t MatchParen(const Tokens& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (IsPunct(toks[i], "(")) ++depth;
    if (IsPunct(toks[i], ")") && --depth == 0) return i;
  }
  return toks.size();
}

void RunAssignOrReturn(const SourceTree& tree, std::vector<Diagnostic>* out) {
  for (const auto& [path, file] : tree.files()) {
    const Tokens& toks = file.lex.tokens;

    // Two expansions on one line: the second shadows the first's internal
    // status variable.
    std::map<int, int> per_line;
    for (const Token& t : toks) {
      if (IsId(t, kAssignMacro)) ++per_line[t.line];
    }
    for (const auto& [line, count] : per_line) {
      if (count < 2 || file.lex.Silenced(line, "assign-or-return")) continue;
      out->push_back({path, line, "assign-or-return",
                      "two WIKIMATCH_ASSIGN_OR_RETURN on one line — the "
                      "second shadows the first's status variable"});
    }

    // The macro as the unbraced body of a control statement: it expands to
    // multiple statements, so only the first is governed by the condition.
    // Token-level, so the same-line form `if (x) WIKIMATCH_ASSIGN...` the
    // old regex missed is caught too.
    for (size_t i = 0; i < toks.size(); ++i) {
      size_t body = toks.size();
      if ((IsId(toks[i], "if") || IsId(toks[i], "while") ||
           IsId(toks[i], "for")) &&
          i + 1 < toks.size() && IsPunct(toks[i + 1], "(")) {
        size_t close = MatchParen(toks, i + 1);
        if (close + 1 < toks.size()) body = close + 1;
      } else if (IsId(toks[i], "else") || IsId(toks[i], "do")) {
        if (i + 1 < toks.size()) body = i + 1;
      }
      if (body >= toks.size() || !IsId(toks[body], kAssignMacro)) continue;
      int line = toks[body].line;
      if (file.lex.Silenced(line, "assign-or-return")) continue;
      out->push_back({path, line, "assign-or-return",
                      "WIKIMATCH_ASSIGN_OR_RETURN as an unbraced "
                      "if/else/for/while body — the macro expands to "
                      "multiple statements; add braces"});
    }
  }
}

// ----------------------------------------------------------- guarded-by

void RunGuardedBy(const SourceTree& tree, std::vector<Diagnostic>* out) {
  for (const auto& [path, file] : tree.files()) {
    if (path.size() < 2 || path.substr(path.size() - 2) != ".h") continue;
    const Tokens& toks = file.lex.tokens;
    bool has_guarded_by = false;
    for (const Token& t : toks) {
      if (IsId(t, "WIKIMATCH_GUARDED_BY")) has_guarded_by = true;
    }
    for (size_t i = 0; i + 2 < toks.size(); ++i) {
      if (!IsId(toks[i], "Mutex")) continue;
      // Accept bare `Mutex` and `util::Mutex`; any other qualification is
      // a different type.
      if (i >= 2 && IsPunct(toks[i - 1], "::") && !IsId(toks[i - 2], "util")) {
        continue;
      }
      if (toks[i + 1].kind != TokenKind::kIdentifier ||
          !IsPunct(toks[i + 2], ";")) {
        continue;
      }
      const std::string& name = toks[i + 1].text;
      int line = toks[i + 1].line;
      if (file.lex.Silenced(line, "guarded-by")) continue;
      if (name.find("mu") == std::string::npos) {
        out->push_back({path, line, "guarded-by",
                        "mutex member '" + name + "' not named *mu* — the "
                        "naming convention keeps GUARDED_BY fields "
                        "greppable"});
      }
      if (!has_guarded_by) {
        out->push_back({path, line, "guarded-by",
                        "file declares mutex member '" + name + "' but no "
                        "field is annotated WIKIMATCH_GUARDED_BY — annotate "
                        "what the mutex protects "
                        "(util/thread_annotations.h)"});
      }
    }
  }
}

// ------------------------------------------------------------- layering

void RunLayering(const SourceTree& tree, std::vector<Diagnostic>* out) {
  const auto& dag = LayeringDag();

  // The declared graph must itself be a DAG — otherwise a "fix" could
  // legalize a cycle. Kahn's algorithm over the declared edges.
  {
    for (const auto& [m, deps] : dag) {
      for (const auto& d : deps) {
        if (dag.count(d) == 0) {
          out->push_back({"<layering-dag>", 0, "layering",
                          "declared DAG edge '" + m + "' -> '" + d +
                              "' names an undeclared module"});
        }
      }
    }
    std::vector<std::string> ready;
    std::map<std::string, int> pending;
    for (const auto& [m, deps] : dag) {
      pending[m] = static_cast<int>(deps.size());
      if (deps.empty()) ready.push_back(m);
    }
    size_t resolved = 0;
    while (!ready.empty()) {
      std::string m = ready.back();
      ready.pop_back();
      ++resolved;
      for (const auto& [n, deps] : dag) {
        if (deps.count(m) > 0 && --pending[n] == 0) ready.push_back(n);
      }
    }
    if (resolved != dag.size()) {
      out->push_back({"<layering-dag>", 0, "layering",
                      "declared module DAG contains a cycle — fix "
                      "LayeringDag() in src/analysis/rules.cc"});
      return;
    }
  }

  for (const auto& [path, file] : tree.files()) {
    if (file.module.empty()) continue;
    auto allowed_it = dag.find(file.module);
    for (const Include& inc : file.lex.includes) {
      if (inc.angled) continue;
      const SourceFile* target = tree.Resolve(inc.path);
      if (target == nullptr || target->module.empty()) continue;
      if (target->module == file.module) continue;
      if (file.lex.Silenced(inc.line, "layering")) continue;
      if (allowed_it == dag.end()) {
        out->push_back({path, inc.line, "layering",
                        "module '" + file.module + "' is not in the "
                        "declared layering DAG — add it to LayeringDag() "
                        "(src/analysis/rules.cc) with its allowed "
                        "dependencies"});
        break;  // one report per undeclared module's file is enough
      }
      if (allowed_it->second.count(target->module) == 0) {
        out->push_back({path, inc.line, "layering",
                        "include of \"" + inc.path + "\" crosses the "
                        "layering DAG: module '" + file.module + "' may "
                        "not depend on '" + target->module + "' (declared "
                        "DAG: docs/ANALYSIS.md)"});
      }
    }
  }
}

// -------------------------------------------------------- include-cycle

void RunIncludeCycle(const SourceTree& tree, std::vector<Diagnostic>* out) {
  // DFS with three colors over the project include graph; every back edge
  // is one cycle report, anchored at the include that closes it.
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  std::vector<std::string> stack;

  std::function<void(const SourceFile&)> visit = [&](const SourceFile& f) {
    color[f.path] = 1;
    stack.push_back(f.path);
    for (const Include& inc : f.lex.includes) {
      if (inc.angled) continue;
      const SourceFile* target = tree.Resolve(inc.path);
      if (target == nullptr) continue;
      int c = color[target->path];
      if (c == 1) {
        auto it = std::find(stack.begin(), stack.end(), target->path);
        std::ostringstream cycle;
        for (; it != stack.end(); ++it) cycle << *it << " -> ";
        cycle << target->path;
        if (!f.lex.Silenced(inc.line, "include-cycle")) {
          out->push_back({f.path, inc.line, "include-cycle",
                          "include cycle: " + cycle.str()});
        }
      } else if (c == 0) {
        visit(*target);
      }
    }
    stack.pop_back();
    color[f.path] = 2;
  };

  for (const auto& [path, file] : tree.files()) {
    if (color[path] == 0) visit(file);
  }
}

// ------------------------------------------------------- unordered-iter

const std::set<std::string>& UnorderedTypes() {
  static const std::set<std::string> kTypes = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return kTypes;
}

struct UnorderedDecls {
  std::set<std::string> names;    ///< variables/members of unordered type
  std::set<std::string> aliases;  ///< `using X = std::unordered_...`
};

// Index just past the `>` closing the template argument list opened at
// `open` (which must point at `<`), or toks.size().
size_t SkipTemplateArgs(const Tokens& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (IsPunct(toks[i], "<")) ++depth;
    if (IsPunct(toks[i], ">") && --depth == 0) return i + 1;
  }
  return toks.size();
}

bool IsDeclTerminator(const Token& t) {
  return IsPunct(t, ";") || IsPunct(t, "=") || IsPunct(t, "{") ||
         IsPunct(t, ",") || IsPunct(t, ")");
}

// Records `name` declared at toks[i..] after a type ending at `i`
// (exclusive): skips cv/ref/pointer tokens, requires an identifier NOT
// followed by `(` (that would be a function returning the type).
void RecordDeclaredName(const Tokens& toks, size_t i, UnorderedDecls* decls) {
  while (i < toks.size() &&
         (IsPunct(toks[i], "&") || IsPunct(toks[i], "*") ||
          IsId(toks[i], "const"))) {
    ++i;
  }
  if (i + 1 >= toks.size()) return;
  if (toks[i].kind != TokenKind::kIdentifier) return;
  if (!IsDeclTerminator(toks[i + 1])) return;
  decls->names.insert(toks[i].text);
}

UnorderedDecls CollectUnorderedDecls(const SourceFile& file) {
  UnorderedDecls decls;
  const Tokens& toks = file.lex.tokens;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!IsId(toks[i], "std") || !IsPunct(toks[i + 1], "::")) continue;
    if (toks[i + 2].kind != TokenKind::kIdentifier ||
        UnorderedTypes().count(toks[i + 2].text) == 0) {
      continue;
    }
    // `using X = std::unordered_map<...>` declares alias X.
    if (i >= 3 && IsPunct(toks[i - 1], "=") &&
        toks[i - 2].kind == TokenKind::kIdentifier && i >= 4 &&
        IsId(toks[i - 3], "using")) {
      decls.aliases.insert(toks[i - 2].text);
      continue;
    }
    if (i + 3 >= toks.size() || !IsPunct(toks[i + 3], "<")) continue;
    RecordDeclaredName(toks, SkipTemplateArgs(toks, i + 3), &decls);
  }
  return decls;
}

// Transitive project includes of `file`, memoized across the rule run.
void ReachableFiles(const SourceTree& tree, const SourceFile& file,
                    std::map<std::string, std::set<std::string>>* memo,
                    std::set<std::string>* visiting,
                    std::set<std::string>* out_paths) {
  auto it = memo->find(file.path);
  if (it != memo->end()) {
    out_paths->insert(it->second.begin(), it->second.end());
    return;
  }
  if (visiting->count(file.path) > 0) return;  // include cycle: bail
  visiting->insert(file.path);
  std::set<std::string> reach;
  for (const Include& inc : file.lex.includes) {
    if (inc.angled) continue;
    const SourceFile* target = tree.Resolve(inc.path);
    if (target == nullptr) continue;
    reach.insert(target->path);
    ReachableFiles(tree, *target, memo, visiting, &reach);
  }
  visiting->erase(file.path);
  (*memo)[file.path] = reach;
  out_paths->insert(reach.begin(), reach.end());
}

void RunUnorderedIter(const SourceTree& tree, std::vector<Diagnostic>* out) {
  // Phase 1: per-file declarations of unordered-typed names and aliases.
  std::map<std::string, UnorderedDecls> per_file;
  for (const auto& [path, file] : tree.files()) {
    per_file[path] = CollectUnorderedDecls(file);
  }

  std::map<std::string, std::set<std::string>> reach_memo;
  for (const auto& [path, file] : tree.files()) {
    // Effective name set: own declarations plus every transitively
    // included header's (members declared in a .h are iterated from .cc).
    UnorderedDecls eff = per_file[path];
    std::set<std::string> reachable;
    std::set<std::string> visiting;
    ReachableFiles(tree, file, &reach_memo, &visiting, &reachable);
    for (const std::string& dep : reachable) {
      const UnorderedDecls& d = per_file[dep];
      eff.names.insert(d.names.begin(), d.names.end());
      eff.aliases.insert(d.aliases.begin(), d.aliases.end());
    }

    const Tokens& toks = file.lex.tokens;

    // Alias-typed declarations add their names: `FdMap conns;`.
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != TokenKind::kIdentifier ||
          eff.aliases.count(toks[i].text) == 0) {
        continue;
      }
      RecordDeclaredName(toks, i + 1, &eff);
    }

    auto flag = [&](int line, const std::string& what) {
      if (file.lex.Silenced(line, "unordered-iter")) return;
      out->push_back({path, line, "unordered-iter",
                      what + " — hash-table iteration order is "
                      "nondeterministic and must not feed output "
                      "(byte-identical contract, docs/ANALYSIS.md); use an "
                      "ordered container, sort first, or justify with "
                      "NOLINT(unordered-iter)"});
    };

    // Range-for over an unordered container.
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      if (!IsId(toks[i], "for") || !IsPunct(toks[i + 1], "(")) continue;
      size_t close = MatchParen(toks, i + 1);
      if (close >= toks.size()) continue;
      // A classic for statement has a top-level `;` in its header (which
      // can also precede a ternary `:`); only a header with a top-level
      // `:` and no top-level `;` is a range-for.
      size_t colon = 0;
      bool has_semi = false;
      int depth = 0;
      for (size_t j = i + 1; j < close; ++j) {
        if (IsPunct(toks[j], "(")) ++depth;
        if (IsPunct(toks[j], ")")) --depth;
        if (depth == 1 && IsPunct(toks[j], ";")) has_semi = true;
        if (depth == 1 && IsPunct(toks[j], ":") && colon == 0) colon = j;
      }
      if (colon == 0 || has_semi) continue;
      size_t first = colon + 1;
      size_t last = close - 1;
      if (first > last) continue;
      // Iterating a freshly named unordered temporary.
      bool direct_type = false;
      for (size_t j = first; j <= last; ++j) {
        if (toks[j].kind == TokenKind::kIdentifier &&
            UnorderedTypes().count(toks[j].text) > 0) {
          direct_type = true;
        }
      }
      if (direct_type) {
        flag(toks[first].line, "range-for over an unordered container");
        continue;
      }
      // Strip a fully parenthesized range expression.
      while (first < last && IsPunct(toks[first], "(") &&
             MatchParen(toks, first) == last) {
        ++first;
        --last;
      }
      const Token& base = toks[last];
      if (base.kind != TokenKind::kIdentifier ||
          eff.names.count(base.text) == 0) {
        continue;
      }
      // The container must be the expression's base: alone, or reached
      // via member access / dereference — not an argument of a call
      // (which may well return an ordered view).
      bool is_base =
          first == last ||
          (last >= 1 &&
           (IsPunct(toks[last - 1], ".") || IsPunct(toks[last - 1], "->") ||
            IsPunct(toks[last - 1], "*") || IsPunct(toks[last - 1], "&") ||
            IsPunct(toks[last - 1], "::")));
      if (is_base) {
        flag(base.line, "range-for over unordered container '" + base.text +
                            "'");
      }
    }

    // begin()-family calls on an unordered container: ordered traversal
    // (or "first element") of a hash table.
    static const std::set<std::string> kBeginNames = {"begin", "cbegin",
                                                      "rbegin", "crbegin"};
    for (size_t i = 0; i + 3 < toks.size(); ++i) {
      if (toks[i].kind != TokenKind::kIdentifier ||
          eff.names.count(toks[i].text) == 0) {
        continue;
      }
      if (!IsPunct(toks[i + 1], ".") && !IsPunct(toks[i + 1], "->")) continue;
      if (toks[i + 2].kind != TokenKind::kIdentifier ||
          kBeginNames.count(toks[i + 2].text) == 0) {
        continue;
      }
      if (!IsPunct(toks[i + 3], "(")) continue;
      flag(toks[i].line, "iterator traversal of unordered container '" +
                             toks[i].text + "' via " + toks[i + 2].text +
                             "()");
    }
  }
}

}  // namespace

const std::vector<std::string>& RuleNames() {
  static const std::vector<std::string> kNames = {
      "naked-new",      "raw-mutex", "raw-thread",
      "assign-or-return", "guarded-by", "layering",
      "include-cycle",  "unordered-iter"};
  return kNames;
}

const std::map<std::string, std::set<std::string>>& LayeringDag() {
  // The declared architecture, lowest layer first; docs/ANALYSIS.md
  // renders the same graph as a chain. An edge here is PERMISSION to
  // include, not a requirement. Keep this the single source of truth —
  // the rule checks the graph is acyclic before using it.
  static const std::map<std::string, std::set<std::string>> kDag = {
      {"util", {}},
      {"text", {"util"}},
      {"eval", {"util"}},
      {"la", {"util", "text"}},
      {"wiki", {"util", "text"}},
      {"analysis", {"util"}},
      {"match", {"util", "text", "eval", "la", "wiki"}},
      {"baselines", {"util", "text", "eval", "la", "wiki", "match"}},
      {"sync", {"util", "text", "eval", "wiki", "match"}},
      {"store", {"util", "text", "wiki", "match", "sync"}},
      {"ingest", {"util", "text", "wiki", "match", "store"}},
      {"synth", {"util", "text", "eval", "wiki", "match", "ingest", "sync"}},
      {"query", {"util", "text", "eval", "wiki", "match", "synth"}},
      {"serve", {"util", "text", "wiki", "match", "store", "query"}},
      {"net", {"util", "serve"}},
      {"cli", {"util", "text", "eval", "la", "wiki", "match", "baselines",
               "sync", "store", "ingest", "synth", "query", "serve", "net",
               "analysis"}},
  };
  return kDag;
}

std::vector<Diagnostic> RunRule(const SourceTree& tree,
                                const std::string& rule) {
  std::vector<Diagnostic> out;
  if (rule == "naked-new") {
    RunNakedNew(tree, &out);
  } else if (rule == "raw-mutex") {
    RunStdBan(tree, rule, RawSyncTypes(), {"util"},
              "use the annotated util::Mutex / util::MutexLock / "
              "util::CondVar (src/util/mutex.h) so thread-safety analysis "
              "can see the lock",
              &out);
  } else if (rule == "raw-thread") {
    RunStdBan(tree, rule, {"thread", "jthread"}, {"util", "net"},
              "run the work on the shared pool (util/thread_pool.h: "
              "thread_pool_for) so the process thread count stays bounded "
              "by the pool size",
              &out);
  } else if (rule == "assign-or-return") {
    RunAssignOrReturn(tree, &out);
  } else if (rule == "guarded-by") {
    RunGuardedBy(tree, &out);
  } else if (rule == "layering") {
    RunLayering(tree, &out);
  } else if (rule == "include-cycle") {
    RunIncludeCycle(tree, &out);
  } else if (rule == "unordered-iter") {
    RunUnorderedIter(tree, &out);
  } else {
    out.push_back({"<analyzer>", 0, "internal",
                   "unknown rule '" + rule + "' — known rules: " +
                       [] {
                         std::string all;
                         for (const auto& r : RuleNames()) {
                           if (!all.empty()) all += ", ";
                           all += r;
                         }
                         return all;
                       }()});
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Diagnostic> RunAllRules(const SourceTree& tree) {
  std::vector<Diagnostic> all;
  for (const std::string& rule : RuleNames()) {
    std::vector<Diagnostic> one = RunRule(tree, rule);
    all.insert(all.end(), one.begin(), one.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

std::string FormatDiagnostics(const std::vector<Diagnostic>& diags) {
  std::ostringstream out;
  for (const Diagnostic& d : diags) {
    out << d.file << ":" << d.line << ": [" << d.rule << "] " << d.message
        << "\n";
  }
  return out.str();
}

}  // namespace analysis
}  // namespace wikimatch
