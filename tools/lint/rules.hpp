// Rule engine for hirep-lint.
//
// Each rule enforces one determinism or lock-discipline invariant from
// DESIGN.md §12.  Rules are token-pattern heuristics, not a type checker:
// they are tuned to be precise on this codebase's idiom (see README.md for
// the known blind spots), and anything they cannot prove clean must either
// be fixed or carry an inline suppression with a reason:
//
//   // hirep-lint: allow(<rule>) -- <reason>        (this or previous line)
//   // hirep-lint: allow-file(<rule>) -- <reason>   (whole file)
#pragma once

#include <string>
#include <vector>

#include "lexer.hpp"

namespace hirep::lint {

struct Finding {
  std::string rule;
  std::string path;  // as given on the command line / discovered
  int line = 0;
  std::string message;
};

struct FileUnit {
  std::string path;  // filesystem path used for diagnostics
  std::string rel;   // path relative to --root, '/'-separated
  LexedFile lexed;
  // The same-stem .hpp of a .cpp, when one exists (empty otherwise):
  // unordered-iteration also resolves the member containers declared there.
  LexedFile header;
  // Path policy, derived from `rel` (see classify_paths in main.cpp):
  bool in_obs = false;    // src/obs is exempt from no-wall-clock
  bool sim_tree = true;   // unordered-iteration / arena-span-escape scope
};

/// All rule ids, in reporting order.
const std::vector<std::string>& all_rules();

/// True when `rule` is a known rule id.
bool known_rule(const std::string& rule);

/// Cross-file annotation facts needed by guarded-field-write.
struct AnnotationIndex {
  struct GuardedField {
    std::string cls;    // innermost class/struct that declares the field
    std::string field;  // field name
    std::string mutex;  // capability expression, e.g. "mu_"
  };
  std::vector<GuardedField> guarded;
  // "Cls::method" pairs declared HIREP_REQUIRES(...) — writes inside these
  // bodies are lock-checked by the caller, not the body.
  std::vector<std::string> requires_methods;

  bool is_guarded(const std::string& cls, const std::string& field) const;
  bool has_requires(const std::string& cls, const std::string& method) const;
};

/// Pass 1: harvest HIREP_GUARDED_BY / HIREP_REQUIRES facts from every file.
AnnotationIndex harvest_annotations(const std::vector<FileUnit>& files);

/// Pass 2: run every rule over one file.  Suppressions are already applied;
/// malformed suppression comments come back as `suppression-format`
/// findings (which cannot themselves be suppressed).
std::vector<Finding> run_rules(const FileUnit& f, const AnnotationIndex& idx);

}  // namespace hirep::lint
