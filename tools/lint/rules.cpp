#include "rules.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstring>
#include <map>
#include <set>
#include <string_view>

namespace hirep::lint {

namespace {

using Tokens = std::vector<Token>;

bool is_punct(const Token& t, std::string_view p) {
  return t.kind == TokKind::Punct && t.text == p;
}

bool is_ident(const Token& t, std::string_view name) {
  return t.kind == TokKind::Identifier && t.text == name;
}

/// Index of the token matching `open` at position i (tokens[i].text == open),
/// honouring nesting; returns tokens.size() when unbalanced.
std::size_t match_forward(const Tokens& toks, std::size_t i,
                          std::string_view open, std::string_view close) {
  int depth = 0;
  for (std::size_t k = i; k < toks.size(); ++k) {
    if (is_punct(toks[k], open)) ++depth;
    else if (is_punct(toks[k], close) && --depth == 0) return k;
  }
  return toks.size();
}

/// Matches a template-argument list starting at the '<' at index i.
/// `>>` closes two levels (the lexer emits it as one token).
std::size_t match_angles(const Tokens& toks, std::size_t i) {
  int depth = 0;
  for (std::size_t k = i; k < toks.size(); ++k) {
    const Token& t = toks[k];
    if (is_punct(t, "<")) ++depth;
    else if (is_punct(t, "<<")) depth += 2;
    else if (is_punct(t, ">") && --depth <= 0) return k;
    else if (is_punct(t, ">>") && (depth -= 2) <= 0) return k;
    else if (is_punct(t, ";")) break;  // runaway: not a template after all
  }
  return toks.size();
}

// ---------------------------------------------------------------------------
// Class-scope tracking shared by the annotation harvest and the
// guarded-field-write pass.  Tracks the innermost class/struct name at each
// token, enough to attribute fields and inline method bodies to a class.
// ---------------------------------------------------------------------------

struct ScopeTracker {
  struct Scope {
    std::string name;
    int depth;  // brace depth inside this class body
  };
  std::vector<Scope> stack;
  int depth = 0;

  std::string pending;  // class name awaiting its '{'
  bool pending_colon = false;

  void feed(const Tokens& toks, std::size_t i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::Identifier &&
        (t.text == "class" || t.text == "struct")) {
      const bool is_enum = i > 0 && is_ident(toks[i - 1], "enum");
      if (!is_enum && i + 1 < toks.size() &&
          toks[i + 1].kind == TokKind::Identifier) {
        pending = std::string(toks[i + 1].text);
        pending_colon = false;
      }
      return;
    }
    if (t.kind == TokKind::Punct) {
      if (t.text == ":") pending_colon = true;
      // A ';', '(', ')' — or a closing '>' before any base-class ':' (i.e.
      // `template <class T>`) — means the candidate was not a definition.
      if (t.text == ";" || t.text == "(" || t.text == ")" ||
          ((t.text == ">" || t.text == ">>") && !pending_colon)) {
        pending.clear();
      }
      if (t.text == "{") {
        ++depth;
        if (!pending.empty()) {
          stack.push_back({pending, depth});
          pending.clear();
        }
      } else if (t.text == "}") {
        --depth;
        while (!stack.empty() && stack.back().depth > depth) stack.pop_back();
      }
    }
  }

  const std::string* innermost() const {
    return stack.empty() ? nullptr : &stack.back().name;
  }
  /// True when the cursor sits directly in the innermost class body (not in
  /// a nested block) — where member declarations and inline methods live.
  bool at_class_body() const {
    return !stack.empty() && stack.back().depth == depth;
  }
};

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

struct Suppressions {
  std::map<int, std::set<std::string>> by_line;  // effective target lines
  std::set<std::string> file_wide;
  std::vector<Finding> format_findings;  // malformed hirep-lint: comments
};

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
    s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
    s.remove_suffix(1);
  return s;
}

Suppressions parse_suppressions(const FileUnit& f) {
  Suppressions out;
  for (const Comment& c : f.lexed.comments) {
    const std::size_t at = c.text.find("hirep-lint:");
    if (at == std::string::npos) continue;
    const auto bad = [&](const std::string& why) {
      out.format_findings.push_back(
          {"suppression-format", f.path, c.line,
           why + " — expected `hirep-lint: allow(<rule>) -- <reason>` or "
                 "`allow-file(<rule>) -- <reason>`"});
    };
    std::string_view rest =
        trim(std::string_view(c.text).substr(at + std::strlen("hirep-lint:")));
    bool file_wide = false;
    if (rest.rfind("allow-file(", 0) == 0) {
      file_wide = true;
      rest.remove_prefix(std::strlen("allow-file("));
    } else if (rest.rfind("allow(", 0) == 0) {
      rest.remove_prefix(std::strlen("allow("));
    } else {
      bad("unrecognised hirep-lint directive");
      continue;
    }
    const std::size_t close = rest.find(')');
    if (close == std::string_view::npos) {
      bad("missing ')' after rule name");
      continue;
    }
    const std::string rule(trim(rest.substr(0, close)));
    if (!known_rule(rule)) {
      bad("unknown rule '" + rule + "'");
      continue;
    }
    std::string_view after = trim(rest.substr(close + 1));
    if (after.rfind("--", 0) != 0 || trim(after.substr(2)).empty()) {
      bad("missing `-- <reason>` justification");
      continue;
    }
    if (file_wide) {
      out.file_wide.insert(rule);
    } else {
      // A same-line comment covers its line; a standalone comment covers
      // the line below it.
      out.by_line[c.line].insert(rule);
      out.by_line[c.line + 1].insert(rule);
    }
  }
  return out;
}

bool suppressed(const Suppressions& s, const Finding& fd) {
  if (s.file_wide.count(fd.rule)) return true;
  auto it = s.by_line.find(fd.line);
  return it != s.by_line.end() && it->second.count(fd.rule) != 0;
}

// ---------------------------------------------------------------------------
// Determinism rules
// ---------------------------------------------------------------------------

void rule_no_random_device(const FileUnit& f, std::vector<Finding>& out) {
  for (const Token& t : f.lexed.tokens) {
    if (is_ident(t, "random_device")) {
      out.push_back({"no-random-device", f.path, t.line,
                     "std::random_device is nondeterministic entropy; seed a "
                     "util::Rng stream instead (DESIGN.md §11.2)"});
    }
  }
}

void rule_no_libc_rand(const FileUnit& f, std::vector<Finding>& out) {
  const Tokens& toks = f.lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!(is_ident(toks[i], "rand") || is_ident(toks[i], "srand"))) continue;
    if (i + 1 >= toks.size() || !is_punct(toks[i + 1], "(")) continue;
    if (i > 0) {
      const Token& prev = toks[i - 1];
      if (is_punct(prev, ".") || is_punct(prev, "->")) continue;  // member
      if (is_punct(prev, "::") &&
          !(i >= 2 && is_ident(toks[i - 2], "std"))) {
        continue;  // some_other_ns::rand
      }
    }
    out.push_back({"no-libc-rand", f.path, toks[i].line,
                   "libc " + std::string(toks[i].text) +
                       "() uses hidden global state; draw from the "
                       "transaction's util::Rng stream instead"});
  }
}

void rule_no_wall_clock(const FileUnit& f, std::vector<Finding>& out) {
  if (f.in_obs) return;  // src/obs owns wall-clock timing by design
  for (const Token& t : f.lexed.tokens) {
    if (is_ident(t, "system_clock") || is_ident(t, "steady_clock")) {
      out.push_back({"no-wall-clock", f.path, t.line,
                     "std::chrono::" + std::string(t.text) +
                         " outside src/obs; simulation time comes from "
                         "EventSim, never the host clock"});
    }
  }
}

// Names of Rng draw methods; a `.draw()`/`->draw()` on anything inside an
// unordered-container loop is treated as an RNG draw.
constexpr std::string_view kRngMethods[] = {
    "uniform", "chance",  "normal",        "exponential",
    "below",   "shuffle", "sample_indices", "fork"};
constexpr std::string_view kSendMethods[] = {"send", "send_batch", "request",
                                             "request_batch", "push"};
constexpr std::string_view kMutatingMethods[] = {
    "clear",   "insert", "emplace", "emplace_back", "push", "push_back",
    "pop",     "pop_back", "pop_front", "erase",    "assign", "resize",
    "reserve", "swap"};

template <std::size_t N>
bool in_list(std::string_view name, const std::string_view (&list)[N]) {
  return std::find(std::begin(list), std::end(list), name) != std::end(list);
}

/// Variable/field names declared with an unordered container type, and
/// names declared double/float (for the accumulation heuristic).
struct DeclNames {
  std::set<std::string, std::less<>> unordered;
  std::set<std::string, std::less<>> floating;
};

void collect_decl_names(const Tokens& toks, DeclNames& out) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (is_ident(toks[i], "unordered_map") ||
        is_ident(toks[i], "unordered_set")) {
      std::size_t k = i + 1;
      if (k < toks.size() && is_punct(toks[k], "<")) {
        k = match_angles(toks, k);
        if (k >= toks.size()) continue;
        ++k;
      }
      // `unordered_map<...> name` or `unordered_map<...>& name` / `* name`.
      while (k < toks.size() &&
             (is_punct(toks[k], "&") || is_punct(toks[k], "*") ||
              is_ident(toks[k], "const"))) {
        ++k;
      }
      if (k < toks.size() && toks[k].kind == TokKind::Identifier) {
        out.unordered.insert(std::string(toks[k].text));
      }
    }
    if ((is_ident(toks[i], "double") || is_ident(toks[i], "float")) &&
        i + 1 < toks.size() && toks[i + 1].kind == TokKind::Identifier &&
        !(i + 2 < toks.size() && is_punct(toks[i + 2], "("))) {
      out.floating.insert(std::string(toks[i + 1].text));
    }
  }
}

void rule_unordered_iteration(const FileUnit& f, std::vector<Finding>& out) {
  if (!f.sim_tree) return;
  const Tokens& toks = f.lexed.tokens;
  DeclNames decls;
  collect_decl_names(toks, decls);
  collect_decl_names(f.header.tokens, decls);
  if (decls.unordered.empty()) return;

  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "for") || !is_punct(toks[i + 1], "(")) continue;
    const std::size_t close = match_forward(toks, i + 1, "(", ")");
    if (close >= toks.size()) continue;

    // Does this loop iterate an unordered container?  Range-for: any
    // identifier after the top-level ':' resolves to an unordered name.
    // Iterator loop: `.begin()`/`.cbegin()` on an unordered name in the
    // init clause.
    bool over_unordered = false;
    std::size_t colon = toks.size();
    int pdepth = 0;
    for (std::size_t k = i + 1; k < close; ++k) {
      if (is_punct(toks[k], "(")) ++pdepth;
      else if (is_punct(toks[k], ")")) --pdepth;
      else if (pdepth == 1 && is_punct(toks[k], ":")) { colon = k; break; }
    }
    if (colon < close) {
      for (std::size_t k = colon + 1; k < close && !over_unordered; ++k) {
        if (toks[k].kind == TokKind::Identifier &&
            decls.unordered.count(toks[k].text)) {
          over_unordered = true;
        }
      }
    } else {
      bool names_unordered = false, calls_begin = false;
      for (std::size_t k = i + 2; k < close; ++k) {
        if (toks[k].kind != TokKind::Identifier) continue;
        if (decls.unordered.count(toks[k].text)) names_unordered = true;
        if (toks[k].text == "begin" || toks[k].text == "cbegin")
          calls_begin = true;
      }
      over_unordered = names_unordered && calls_begin;
    }
    if (!over_unordered) continue;

    // Body bounds: braced block or single statement.
    std::size_t body_begin = close + 1;
    std::size_t body_end;
    if (body_begin < toks.size() && is_punct(toks[body_begin], "{")) {
      body_end = match_forward(toks, body_begin, "{", "}");
    } else {
      body_end = body_begin;
      while (body_end < toks.size() && !is_punct(toks[body_end], ";"))
        ++body_end;
    }

    // Scan the body for order-sensitive effects.
    std::string why;
    for (std::size_t k = body_begin; k < body_end && why.empty(); ++k) {
      const Token& t = toks[k];
      if (t.kind == TokKind::Identifier) {
        const bool member_call =
            k > 0 && (is_punct(toks[k - 1], ".") || is_punct(toks[k - 1], "->"));
        const bool called = k + 1 < toks.size() && is_punct(toks[k + 1], "(");
        if (called && in_list(t.text, kSendMethods)) {
          why = "sends ('" + std::string(t.text) + "')";
        } else if (t.text == "rng" || t.text == "rng_" ||
                   t.text == "hop_rng_" ||
                   (member_call && called && in_list(t.text, kRngMethods))) {
          why = "RNG draws ('" + std::string(t.text) + "')";
        }
      } else if (is_punct(t, "+=") || is_punct(t, "-=")) {
        const bool float_lhs = k > 0 &&
                               toks[k - 1].kind == TokKind::Identifier &&
                               decls.floating.count(toks[k - 1].text);
        bool float_rhs = false;
        for (std::size_t r = k + 1; r < body_end && !is_punct(toks[r], ";");
             ++r) {
          if (toks[r].kind == TokKind::Number &&
              toks[r].text.find('.') != std::string_view::npos) {
            float_rhs = true;
            break;
          }
        }
        if (float_lhs || float_rhs) why = "float accumulation";
      }
    }
    if (!why.empty()) {
      out.push_back(
          {"unordered-iteration", f.path, toks[i].line,
           "iteration over an unordered container whose body performs " +
               why +
               "; bucket order is implementation-defined — iterate a sorted "
               "copy or a deterministic index instead (DESIGN.md §12)"});
    }
  }
}

/// Statement bounds around token index i: [begin, end) where begin follows
/// the previous ';'/'{'/'}' and end is the next ';'.
std::pair<std::size_t, std::size_t> statement_bounds(const Tokens& toks,
                                                     std::size_t i) {
  std::size_t begin = i;
  while (begin > 0) {
    const Token& t = toks[begin - 1];
    if (is_punct(t, ";") || is_punct(t, "{") || is_punct(t, "}")) break;
    --begin;
  }
  std::size_t end = i;
  while (end < toks.size() && !is_punct(toks[end], ";")) ++end;
  return {begin, end};
}

/// True when the identifier chain in [begin, end) looks like it designates
/// long-lived storage: a member (trailing-underscore identifier or
/// `this->`), so a batch-scoped span written there outlives its arena.
bool member_ish(const Tokens& toks, std::size_t begin, std::size_t end) {
  for (std::size_t k = begin; k < end; ++k) {
    if (toks[k].kind != TokKind::Identifier) continue;
    if (toks[k].text == "this") return true;
    if (toks[k].text.size() > 1 && toks[k].text.back() == '_') return true;
  }
  return false;
}

void rule_arena_span_escape(const FileUnit& f, std::vector<Finding>& out) {
  if (!f.sim_tree) return;
  const Tokens& toks = f.lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    // Pattern 1: `<member-ish lvalue> = ... .payload ...;`
    if (is_punct(toks[i], "=")) {
      const auto [begin, end] = statement_bounds(toks, i);
      bool rhs_payload = false;
      for (std::size_t k = i + 1; k < end; ++k) {
        if (toks[k].kind == TokKind::Identifier && toks[k].text == "payload" &&
            k > 0 &&
            (is_punct(toks[k - 1], ".") || is_punct(toks[k - 1], "->"))) {
          rhs_payload = true;
          break;
        }
      }
      if (rhs_payload && member_ish(toks, begin, i)) {
        out.push_back(
            {"arena-span-escape", f.path, toks[i].line,
             "Envelope::payload (arena-backed span) assigned to a member; "
             "the bytes die at batch reset — copy into util::Bytes if the "
             "data must outlive the batch"});
      }
      continue;
    }
    // Pattern 2: `<member-ish container>.push_back(... payload ...)` et al.
    if (toks[i].kind == TokKind::Identifier &&
        in_list(toks[i].text, kMutatingMethods) && i + 1 < toks.size() &&
        is_punct(toks[i + 1], "(") && i > 0 &&
        (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"))) {
      // Receiver chain: walk back over ident / '.' / '->' / '::' tokens.
      std::size_t r = i - 1;
      while (r > 0) {
        const Token& t = toks[r - 1];
        if (t.kind == TokKind::Identifier || is_punct(t, ".") ||
            is_punct(t, "->") || is_punct(t, "::")) {
          --r;
        } else {
          break;
        }
      }
      if (!member_ish(toks, r, i)) continue;
      const std::size_t close = match_forward(toks, i + 1, "(", ")");
      for (std::size_t k = i + 2; k < close; ++k) {
        if (toks[k].kind == TokKind::Identifier &&
            toks[k].text == "payload") {
          out.push_back(
              {"arena-span-escape", f.path, toks[i].line,
               "arena-backed payload span stored into a member container; "
               "the bytes die at batch reset — copy into util::Bytes if the "
               "data must outlive the batch"});
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// guarded-field-write
// ---------------------------------------------------------------------------

bool body_takes_lock(const Tokens& toks, std::size_t begin, std::size_t end) {
  for (std::size_t k = begin; k < end; ++k) {
    if (toks[k].kind != TokKind::Identifier) continue;
    if (toks[k].text == "MutexLock" || toks[k].text == "lock_guard" ||
        toks[k].text == "unique_lock" || toks[k].text == "scoped_lock") {
      return true;
    }
  }
  return false;
}

/// Checks one method body of class `cls` for unlocked writes to guarded
/// fields.  Bare accesses only (`field` / `this->field`): accesses through
/// local references (`shard.lru`) are clang TSA's job, not this heuristic's.
void check_body(const FileUnit& f, const AnnotationIndex& idx,
                const std::string& cls, const Tokens& toks, std::size_t begin,
                std::size_t end, std::vector<Finding>& out) {
  const bool locked = body_takes_lock(toks, begin, end);
  if (locked) return;
  for (std::size_t k = begin; k < end; ++k) {
    const Token& t = toks[k];
    if (t.kind != TokKind::Identifier) continue;
    const std::string field(t.text);
    if (!idx.is_guarded(cls, field)) continue;
    if (k > begin) {
      const Token& prev = toks[k - 1];
      const bool this_arrow = is_punct(prev, "->") && k >= 2 &&
                              is_ident(toks[k - 2], "this");
      if ((is_punct(prev, ".") || is_punct(prev, "->") ||
           is_punct(prev, "::")) &&
          !this_arrow) {
        continue;  // member of something else
      }
    }
    bool write = false;
    if (k + 1 < end) {
      const Token& next = toks[k + 1];
      static constexpr std::string_view kAssigns[] = {
          "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="};
      if (next.kind == TokKind::Punct && in_list(next.text, kAssigns))
        write = true;
      if (is_punct(next, "++") || is_punct(next, "--")) write = true;
      if ((is_punct(next, ".") || is_punct(next, "->")) && k + 2 < end &&
          toks[k + 2].kind == TokKind::Identifier &&
          in_list(toks[k + 2].text, kMutatingMethods)) {
        write = true;
      }
    }
    if (k > begin &&
        (is_punct(toks[k - 1], "++") || is_punct(toks[k - 1], "--"))) {
      write = true;
    }
    if (write) {
      out.push_back({"guarded-field-write", f.path, t.line,
                     "write to '" + field + "' (HIREP_GUARDED_BY in " + cls +
                         ") with no lock scope in this body and no "
                         "HIREP_REQUIRES on the method"});
    }
  }
}

void rule_guarded_field_write(const FileUnit& f, const AnnotationIndex& idx,
                              std::vector<Finding>& out) {
  const Tokens& toks = f.lexed.tokens;
  ScopeTracker scopes;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    scopes.feed(toks, i);

    // Out-of-line definition:  [ns ::]* Cls :: method ( ... ) [quals] { ... }
    if (toks[i].kind == TokKind::Identifier && i + 1 < toks.size() &&
        is_punct(toks[i + 1], "(") && i >= 2 && is_punct(toks[i - 1], "::") &&
        toks[i - 2].kind == TokKind::Identifier) {
      const std::string cls(toks[i - 2].text);
      const std::string method(toks[i].text);
      const std::size_t close = match_forward(toks, i + 1, "(", ")");
      if (close >= toks.size()) continue;
      // Skip qualifiers / ctor-init-list up to the body brace (bail at ';').
      std::size_t b = close + 1;
      int pd = 0;
      while (b < toks.size()) {
        if (is_punct(toks[b], "(")) ++pd;
        else if (is_punct(toks[b], ")")) --pd;
        else if (pd == 0 && (is_punct(toks[b], "{") || is_punct(toks[b], ";")))
          break;
        ++b;
      }
      if (b >= toks.size() || !is_punct(toks[b], "{")) continue;
      const std::size_t body_end = match_forward(toks, b, "{", "}");
      const bool ctor_dtor =
          method == cls || (i >= 3 && is_punct(toks[i - 1], "~")) ||
          (i >= 2 && is_punct(toks[i - 1], "::") && i + 1 < toks.size() &&
           i >= 3 && is_punct(toks[i - 3], "~"));
      if (!ctor_dtor && !idx.has_requires(cls, method)) {
        check_body(f, idx, cls, toks, b + 1, body_end, out);
      }
      i = b;  // resume inside the body so scope tracking stays aligned
      continue;
    }

    // Inline method directly in a class body: method ( ... ) [quals] { ... }
    if (scopes.at_class_body() && toks[i].kind == TokKind::Identifier &&
        i + 1 < toks.size() && is_punct(toks[i + 1], "(") &&
        !(i > 0 && (is_punct(toks[i - 1], "::") || is_punct(toks[i - 1], ".") ||
                    is_punct(toks[i - 1], "->")))) {
      const std::string cls = *scopes.innermost();
      const std::string method(toks[i].text);
      if (method.rfind("HIREP_", 0) == 0) continue;  // annotation macro
      const std::size_t close = match_forward(toks, i + 1, "(", ")");
      if (close >= toks.size()) continue;
      std::size_t b = close + 1;
      int pd = 0;
      while (b < toks.size()) {
        if (is_punct(toks[b], "(")) ++pd;
        else if (is_punct(toks[b], ")")) --pd;
        else if (pd == 0 && (is_punct(toks[b], "{") || is_punct(toks[b], ";") ||
                             is_punct(toks[b], ",") || is_punct(toks[b], ")")))
          break;
        ++b;
      }
      if (b >= toks.size() || !is_punct(toks[b], "{")) continue;
      const std::size_t body_end = match_forward(toks, b, "{", "}");
      const bool ctor_dtor =
          method == cls || (i > 0 && is_punct(toks[i - 1], "~"));
      if (!ctor_dtor && !idx.has_requires(cls, method)) {
        check_body(f, idx, cls, toks, b + 1, body_end, out);
      }
      // Do not skip the body: scope tracking must still see its braces.
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public surface
// ---------------------------------------------------------------------------

const std::vector<std::string>& all_rules() {
  static const std::vector<std::string> rules = {
      "no-random-device",    "no-libc-rand",       "no-wall-clock",
      "unordered-iteration", "arena-span-escape",  "guarded-field-write",
      "suppression-format"};
  return rules;
}

bool known_rule(const std::string& rule) {
  const auto& rules = all_rules();
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

bool AnnotationIndex::is_guarded(const std::string& cls,
                                 const std::string& field) const {
  for (const GuardedField& g : guarded) {
    if (g.cls == cls && g.field == field) return true;
  }
  return false;
}

bool AnnotationIndex::has_requires(const std::string& cls,
                                   const std::string& method) const {
  const std::string key = cls + "::" + method;
  return std::find(requires_methods.begin(), requires_methods.end(), key) !=
         requires_methods.end();
}

AnnotationIndex harvest_annotations(const std::vector<FileUnit>& files) {
  AnnotationIndex idx;
  for (const FileUnit& f : files) {
    const Tokens& toks = f.lexed.tokens;
    ScopeTracker scopes;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      scopes.feed(toks, i);
      if (toks[i].kind != TokKind::Identifier) continue;
      if (toks[i].text == "HIREP_GUARDED_BY" && i > 0 &&
          toks[i - 1].kind == TokKind::Identifier) {
        std::string mutex;
        if (i + 1 < toks.size() && is_punct(toks[i + 1], "(")) {
          const std::size_t close = match_forward(toks, i + 1, "(", ")");
          for (std::size_t k = i + 2; k < close; ++k)
            mutex += std::string(toks[k].text);
        }
        const std::string* cls = scopes.innermost();
        idx.guarded.push_back({cls ? *cls : std::string(),
                               std::string(toks[i - 1].text), mutex});
      } else if (toks[i].text == "HIREP_REQUIRES") {
        // Walk back over qualifiers to the parameter list, then to the name.
        std::size_t k = i;
        while (k > 0 && (is_ident(toks[k - 1], "const") ||
                         is_ident(toks[k - 1], "noexcept") ||
                         is_ident(toks[k - 1], "override"))) {
          --k;
        }
        if (k == 0 || !is_punct(toks[k - 1], ")")) continue;
        int depth = 0;
        std::size_t open = k - 1;
        while (open > 0) {
          if (is_punct(toks[open], ")")) ++depth;
          else if (is_punct(toks[open], "(") && --depth == 0) break;
          --open;
        }
        if (open == 0 || toks[open - 1].kind != TokKind::Identifier) continue;
        const std::string* cls = scopes.innermost();
        idx.requires_methods.push_back((cls ? *cls : std::string()) +
                                       "::" + std::string(toks[open - 1].text));
      }
    }
  }
  return idx;
}

std::vector<Finding> run_rules(const FileUnit& f, const AnnotationIndex& idx) {
  std::vector<Finding> raw;
  rule_no_random_device(f, raw);
  rule_no_libc_rand(f, raw);
  rule_no_wall_clock(f, raw);
  rule_unordered_iteration(f, raw);
  rule_arena_span_escape(f, raw);
  rule_guarded_field_write(f, idx, raw);

  const Suppressions sup = parse_suppressions(f);
  std::vector<Finding> out;
  for (Finding& fd : raw) {
    if (!suppressed(sup, fd)) out.push_back(std::move(fd));
  }
  // Malformed suppression comments are findings themselves and cannot be
  // suppressed (a typo'd allow() must not silently allow nothing).
  for (const Finding& fd : sup.format_findings) out.push_back(fd);
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return a.line != b.line ? a.line < b.line : a.rule < b.rule;
  });
  return out;
}

}  // namespace hirep::lint
