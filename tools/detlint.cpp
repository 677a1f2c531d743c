// detlint — determinism lint over C++ sources (rules DET001..DET004).
//
// The repo's determinism contract (DESIGN.md §7) promises bit-identical
// results at any thread count. The contract is easy to break silently: one
// unordered-container iteration feeding an accumulation, one wall-clock or
// rand() call on a result path, one ad-hoc scatter `+=` inside a parallel_for
// body, one solver loop that never polls for cancellation. detlint is a
// heuristic text scanner for exactly those four hazards, run by
// scripts/check.sh over src/ as a CI gate.
//
// Rules (severities from the shared analyze registry; all errors):
//   DET001  unordered_{map,set,multimap,multiset} anywhere — iteration order
//           is hash-seed dependent, so anything folded from it is not
//           reproducible. Use std::map/std::set or index-keyed vectors.
//   DET002  rand()/srand()/time()/clock()/std::random_device — wall-clock and
//           hidden-seed entropy on any path is a determinism leak. SplitMix64
//           with an explicit seed is the house RNG; std::chrono is fine (and
//           is NOT flagged) because it only feeds deadlines/telemetry.
//           Carve-out: files under src/serve/ may read the wall clock through
//           the sanctioned serve::now() wrapper (daemon telemetry: uptime,
//           started_at), so DET002 is waived there when the line (or the one
//           above) names `serve::now`. Everywhere else the rule still fires.
//   DET003  indirect-indexed `+=`/`-=` inside a parallel_for lambda — a
//           scatter to shared slots races; the body must write index-keyed
//           slots that the caller folds in a fixed order afterwards (as
//           run_monte_carlo does).
//   DET004  an unbounded loop (`while (true)` / `for (;;)`) in solver code
//           (paths containing /nlp/ or /core/) with no runtime::poll_cancel()
//           in its body — deadlines and Ctrl-C cannot preempt it.
//
// False-positive escape hatch: a line (or the line above it) containing
// `detlint: allow(DETxxx)` suppresses that rule there — the comment doubles
// as in-source documentation of why the site is safe.
//
// Exit codes match `statsize lint`: 0 clean, 3 findings (all rules are
// error-severity), 1 tool failure.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analyze/diagnostic.h"
#include "analyze/registry.h"
#include "util/args.h"

namespace {

using statsize::analyze::Report;

/// Blanks string/char literals and strips comments so brace counting and
/// pattern matches never fire inside quoted text. `in_block` carries /* */
/// state across lines.
std::string code_view(const std::string& line, bool& in_block) {
  std::string out;
  out.reserve(line.size());
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (in_block) {
      if (line[i] == '*' && i + 1 < line.size() && line[i + 1] == '/') {
        in_block = false;
        ++i;
      }
      out.push_back(' ');
      continue;
    }
    const char c = line[i];
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') break;  // line comment
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
      in_block = true;
      out.append("  ");
      ++i;
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      out.push_back(quote);
      ++i;
      while (i < line.size()) {
        if (line[i] == '\\') {
          out.append("  ");
          i += 2;
          continue;
        }
        if (line[i] == quote) break;
        out.push_back(' ');
        ++i;
      }
      if (i < line.size()) out.push_back(quote);
      continue;
    }
    out.push_back(c);
  }
  return out;
}

bool is_ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_'; }

/// `needle` at a word boundary (previous char is not part of an identifier).
bool contains_word(const std::string& code, const std::string& needle) {
  for (std::size_t pos = code.find(needle); pos != std::string::npos;
       pos = code.find(needle, pos + 1)) {
    if (pos == 0 || !is_ident_char(code[pos - 1])) return true;
  }
  return false;
}

/// An `lhs[...subscript...] += ...` accumulation whose subscript itself
/// indexes or calls something — the shape of a scatter through an indirection
/// table, which races across parallel_for chunks.
bool has_indirect_accumulation(const std::string& code) {
  for (const char* op : {"+=", "-="}) {
    for (std::size_t pos = code.find(op); pos != std::string::npos;
         pos = code.find(op, pos + 1)) {
      std::size_t end = pos;
      while (end > 0 && code[end - 1] == ' ') --end;
      if (end == 0 || code[end - 1] != ']') continue;
      int depth = 0;
      std::size_t open = std::string::npos;
      for (std::size_t i = end; i-- > 0;) {
        if (code[i] == ']') ++depth;
        if (code[i] == '[') {
          if (--depth == 0) {
            open = i;
            break;
          }
        }
      }
      if (open == std::string::npos) continue;
      const std::string subscript = code.substr(open + 1, end - open - 2);
      if (subscript.find('[') != std::string::npos || subscript.find('(') != std::string::npos) {
        return true;
      }
    }
  }
  return false;
}

struct BraceRegion {
  int start_line = 0;
  int depth = 0;
  bool open_seen = false;
  bool found_poll = false;  // DET004 only
};

void scan_file(const std::string& path, Report& report) {
  std::ifstream in(path);
  if (!in) {
    report.add("PAR001", path, "cannot open file");
    return;
  }
  const bool solver_path =
      path.find("/nlp/") != std::string::npos || path.find("/core/") != std::string::npos;
  const bool serve_path = path.find("/serve/") != std::string::npos;

  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);

  auto suppressed = [&](std::size_t idx, const char* rule) {
    const std::string needle = std::string("detlint: allow(") + rule + ")";
    if (lines[idx].find(needle) != std::string::npos) return true;
    return idx > 0 && lines[idx - 1].find(needle) != std::string::npos;
  };
  auto locus = [&](std::size_t idx) { return path + ":" + std::to_string(idx + 1); };

  // The serve daemon's sanctioned wall-clock wrapper: under src/serve/ a
  // clock call on a line that names `serve::now` (or sits right below one)
  // is telemetry by construction, not a result-path leak.
  auto serve_clock_sanctioned = [&](std::size_t idx) {
    if (!serve_path) return false;
    if (lines[idx].find("serve::now") != std::string::npos) return true;
    return idx > 0 && lines[idx - 1].find("serve::now") != std::string::npos;
  };

  bool in_block = false;
  std::vector<BraceRegion> pf_regions;    // parallel_for lambda extents
  std::vector<BraceRegion> loop_regions;  // unbounded solver loops

  for (std::size_t idx = 0; idx < lines.size(); ++idx) {
    const std::string code = code_view(lines[idx], in_block);

    if ((code.find("std::unordered_map") != std::string::npos ||
         code.find("std::unordered_set") != std::string::npos ||
         code.find("std::unordered_multimap") != std::string::npos ||
         code.find("std::unordered_multiset") != std::string::npos) &&
        !suppressed(idx, "DET001")) {
      report.add("DET001", locus(idx),
                 "unordered container: iteration order is hash-seed dependent",
                 "use std::map/std::set or an index-keyed vector so folds stay ordered");
    }

    if ((contains_word(code, "rand(") || contains_word(code, "srand(") ||
         contains_word(code, "time(") || contains_word(code, "clock(") ||
         contains_word(code, "random_device")) &&
        !suppressed(idx, "DET002") && !serve_clock_sanctioned(idx)) {
      report.add("DET002", locus(idx),
                 "wall-clock or hidden-seed entropy source",
                 "seed a SplitMix64 explicitly; clocks may only feed deadlines/telemetry "
                 "(std::chrono), never results");
    }

    // Open new regions at trigger sites, then feed every brace on the line to
    // the active regions so lambda/loop extents are tracked correctly.
    if (code.find("parallel_for") != std::string::npos) {
      pf_regions.push_back({static_cast<int>(idx), 0, false, false});
    }
    if (solver_path && (code.find("while (true)") != std::string::npos ||
                        code.find("while(true)") != std::string::npos ||
                        code.find("for (;;)") != std::string::npos ||
                        code.find("for(;;)") != std::string::npos)) {
      loop_regions.push_back({static_cast<int>(idx), 0, false, false});
    }

    if (!pf_regions.empty() && has_indirect_accumulation(code) && !suppressed(idx, "DET003")) {
      report.add("DET003", locus(idx),
                 "indirect-indexed accumulation inside a parallel_for body",
                 "write index-keyed slots in the body and fold them in a fixed order on "
                 "the caller, as run_monte_carlo does, instead of writing shared slots "
                 "directly");
    }
    if (!loop_regions.empty() && code.find("poll_cancel") != std::string::npos) {
      for (BraceRegion& r : loop_regions) r.found_poll = true;
    }

    for (const char c : code) {
      if (c != '{' && c != '}') continue;
      const int delta = c == '{' ? 1 : -1;
      for (auto regions : {&pf_regions, &loop_regions}) {
        for (std::size_t r = 0; r < regions->size();) {
          BraceRegion& region = (*regions)[r];
          region.depth += delta;
          if (delta > 0) region.open_seen = true;
          if (region.open_seen && region.depth <= 0) {
            if (regions == &loop_regions && !region.found_poll &&
                !suppressed(static_cast<std::size_t>(region.start_line), "DET004")) {
              report.add("DET004", locus(static_cast<std::size_t>(region.start_line)),
                         "unbounded solver loop without a runtime::poll_cancel() checkpoint",
                         "poll once per iteration so deadlines and cancellation can preempt "
                         "the loop (DESIGN.md §9)");
            }
            regions->erase(regions->begin() + static_cast<std::ptrdiff_t>(r));
            continue;
          }
          ++r;
        }
      }
    }
  }
}

bool scannable(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".h" || ext == ".cc" || ext == ".hpp";
}

}  // namespace

int main(int argc, char** argv) {
  statsize::util::ArgParser args(
      "detlint — determinism lint (DET001..DET004) over C++ sources; see the rule "
      "catalog in src/analyze/registry.cpp and DESIGN.md's determinism contract");
  args.allow_positionals("files or directories to scan (directories recurse over .cpp/.h)");
  args.add_string("json", "write the JSON report to this file ('-' for stdout)");
  args.add_flag("list-rules", "print the DET rule catalog and exit");

  try {
    if (!args.parse(argc, argv)) return 0;

    if (args.get_flag("list-rules")) {
      for (const statsize::analyze::RuleInfo& rule : statsize::analyze::rule_catalog()) {
        if (rule.category != "determinism") continue;
        std::printf("%-8.*s %-8.*s %-24.*s %.*s\n", static_cast<int>(rule.id.size()),
                    rule.id.data(),
                    static_cast<int>(severity_name(rule.severity).size()),
                    severity_name(rule.severity).data(), static_cast<int>(rule.title.size()),
                    rule.title.data(), static_cast<int>(rule.detail.size()), rule.detail.data());
      }
      return 0;
    }

    if (args.positionals().empty()) {
      throw std::invalid_argument("no inputs (pass files or directories, e.g. src/)");
    }

    Report report;
    int files_scanned = 0;
    for (const std::string& input : args.positionals()) {
      const std::filesystem::path p(input);
      if (std::filesystem::is_directory(p)) {
        // Sort the walk so reports are byte-identical across filesystems —
        // the determinism linter had better be deterministic itself.
        std::vector<std::filesystem::path> found;
        for (const auto& entry : std::filesystem::recursive_directory_iterator(p)) {
          if (entry.is_regular_file() && scannable(entry.path())) found.push_back(entry.path());
        }
        std::sort(found.begin(), found.end());
        for (const auto& f : found) {
          scan_file(f.string(), report);
          ++files_scanned;
        }
      } else {
        scan_file(p.string(), report);
        ++files_scanned;
      }
    }
    report.sort();

    const bool json_on_stdout = args.has("json") && args.get_string("json") == "-";
    std::ostream& human = json_on_stdout ? std::cerr : std::cout;
    human << "detlint: " << files_scanned << " files\n";
    report.print(human);

    if (args.has("json")) {
      const std::string path = args.get_string("json");
      if (path == "-") {
        report.write_json(std::cout, "detlint");
      } else {
        std::ofstream out(path);
        if (!out) throw std::runtime_error("cannot write " + path);
        report.write_json(out, "detlint");
        std::printf("wrote %s\n", path.c_str());
      }
    }
    return report.exit_code();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n(use detlint --help for usage)\n", e.what());
    return 1;
  }
}
