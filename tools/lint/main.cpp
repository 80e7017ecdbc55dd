// hirep-lint — project-specific determinism & lock-discipline checker.
//
// Usage:
//   hirep-lint [--root DIR] [--compdb FILE] [--tree PATH]... [--file F]...
//              [--expect RULE] [--list-rules]
//
//   --root DIR     repository root (default: cwd); rel paths resolve here
//   --compdb FILE  compile_commands.json; its "file" entries under --root
//                  seed the TU list (headers are still discovered by walk)
//   --tree PATH    directory to walk (repeatable; default: src)
//   --file F       lint exactly this file (repeatable; all rules active,
//                  path policy exemptions off — used by the fixture tests)
//   --expect RULE  invert: exit 0 iff >=1 finding of RULE was produced
//                  (fixture mode), 1 otherwise
//   --list-rules   print rule ids and exit
//
// Exit status: 0 clean (or --expect satisfied), 1 findings (or --expect
// unsatisfied), 2 usage/IO error.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "rules.hpp"

namespace fs = std::filesystem;
using namespace hirep::lint;

namespace {

/// Minimal extractor for the "file" keys of compile_commands.json.  The
/// repo's util::json is a writer (no DOM parser), and the schema here is a
/// flat array of objects, so a targeted scan is all that's needed.
std::vector<std::string> compdb_files(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read compdb: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string s = buf.str();
  std::vector<std::string> files;
  std::size_t i = 0;
  while ((i = s.find("\"file\"", i)) != std::string::npos) {
    i += std::strlen("\"file\"");
    while (i < s.size() && (s[i] == ' ' || s[i] == ':' || s[i] == '\t')) ++i;
    if (i >= s.size() || s[i] != '"') continue;
    ++i;
    std::string f;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\' && i + 1 < s.size()) ++i;  // \" and \\ unescape
      f += s[i++];
    }
    files.push_back(f);
  }
  return files;
}

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

std::string rel_to(const fs::path& root, const fs::path& p) {
  std::error_code ec;
  const fs::path r = fs::relative(p, root, ec);
  return (ec ? p : r).generic_string();
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string compdb;
  std::vector<std::string> trees;
  std::vector<std::string> explicit_files;
  std::string expect;
  const auto need = [&](int i) {
    if (i + 1 >= argc) {
      std::cerr << "hirep-lint: " << argv[i] << " needs a value\n";
      std::exit(2);
    }
    return std::string(argv[i + 1]);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--root") root = need(i), ++i;
    else if (a == "--compdb") compdb = need(i), ++i;
    else if (a == "--tree") trees.push_back(need(i)), ++i;
    else if (a == "--file") explicit_files.push_back(need(i)), ++i;
    else if (a == "--expect") expect = need(i), ++i;
    else if (a == "--list-rules") {
      for (const std::string& r : all_rules()) std::cout << r << '\n';
      return 0;
    } else {
      std::cerr << "hirep-lint: unknown argument " << a << '\n';
      return 2;
    }
  }
  if (!expect.empty() && !known_rule(expect)) {
    std::cerr << "hirep-lint: --expect " << expect << ": unknown rule\n";
    return 2;
  }

  try {
    const fs::path rootp = fs::absolute(root);
    std::set<std::string> paths;  // absolute, deduped, stable order

    if (explicit_files.empty()) {
      if (trees.empty()) trees = {"src"};
      for (const std::string& t : trees) {
        const fs::path dir = rootp / t;
        if (!fs::exists(dir)) {
          std::cerr << "hirep-lint: no such tree: " << dir.string() << '\n';
          return 2;
        }
        for (const auto& e : fs::recursive_directory_iterator(dir)) {
          if (e.is_regular_file() && lintable(e.path())) {
            paths.insert(fs::absolute(e.path()).string());
          }
        }
      }
      if (!compdb.empty()) {
        // TUs the build actually compiles; anything under --root joins the
        // walk set (out-of-tree system files are not ours to lint).
        for (const std::string& f : compdb_files(compdb)) {
          const fs::path p = fs::absolute(f);
          const std::string rel = rel_to(rootp, p);
          if (!rel.empty() && rel[0] != '.' && lintable(p) &&
              rel.rfind("src/", 0) == 0) {
            paths.insert(p.string());
          }
        }
      }
    } else {
      for (const std::string& f : explicit_files) {
        paths.insert(fs::absolute(f).string());
      }
    }

    std::vector<FileUnit> files;
    for (const std::string& p : paths) {
      FileUnit u;
      u.path = p;
      u.rel = rel_to(rootp, p);
      u.lexed = lex_file(p);
      const fs::path header = fs::path(p).replace_extension(".hpp");
      if (fs::path(p).extension() == ".cpp" && fs::exists(header)) {
        u.header = lex_file(header.string());
      }
      if (explicit_files.empty()) {
        u.in_obs = u.rel.rfind("src/obs/", 0) == 0;
        // The deterministic simulation trees; util/crypto/obs/check run
        // beside the sim but do not send or draw on sim streams.
        u.sim_tree = u.rel.rfind("src/sim/", 0) == 0 ||
                     u.rel.rfind("src/net/", 0) == 0 ||
                     u.rel.rfind("src/hirep/", 0) == 0 ||
                     u.rel.rfind("src/baselines/", 0) == 0 ||
                     u.rel.rfind("src/trust/", 0) == 0 ||
                     u.rel.rfind("src/onion/", 0) == 0;
      } else {
        u.in_obs = false;   // fixture mode: every rule active
        u.sim_tree = true;
      }
      files.push_back(std::move(u));
    }

    const AnnotationIndex idx = harvest_annotations(files);
    std::vector<Finding> findings;
    for (const FileUnit& f : files) {
      for (Finding& fd : run_rules(f, idx)) findings.push_back(std::move(fd));
    }

    for (const Finding& fd : findings) {
      std::cout << fd.path << ':' << fd.line << ": [" << fd.rule << "] "
                << fd.message << '\n';
    }
    if (!expect.empty()) {
      const bool hit = std::any_of(
          findings.begin(), findings.end(),
          [&](const Finding& fd) { return fd.rule == expect; });
      if (!hit) {
        std::cerr << "hirep-lint: expected >=1 '" << expect
                  << "' finding, got none\n";
        return 1;
      }
      std::cout << "hirep-lint: --expect " << expect << " satisfied\n";
      return 0;
    }
    if (findings.empty()) {
      std::cout << "hirep-lint: " << files.size() << " files clean\n";
      return 0;
    }
    std::cerr << "hirep-lint: " << findings.size() << " finding(s) in "
              << files.size() << " files\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
}
