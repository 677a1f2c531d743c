// Diagnostics engine for the statsize static-analysis subsystem.
//
// The paper's whole pipeline rests on feeding an exactly differentiable
// statistical timing model to an NLP solver: a silently broken netlist, a
// non-physical cell library, or a derivative that disagrees with its
// finite-difference estimate produces sizing results that look plausible but
// are wrong. Every audit in src/analyze reports its findings as Diagnostics
// collected into a Report, instead of throwing on the first problem — so one
// `statsize lint` run surfaces everything at once and can gate CI through
// severity-based exit codes.
//
// A Diagnostic carries a stable rule id (see registry.h for the catalog), a
// severity, a locus (which gate / cell / NLP variable), a message and an
// optional remediation hint. Reports render as human-readable text or as a
// machine-readable JSON document.

#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace statsize::util {
class JsonWriter;
}

namespace statsize::analyze {

enum class Severity { kNote = 0, kWarning = 1, kError = 2 };

std::string_view severity_name(Severity severity);  ///< "note" | "warning" | "error"

struct Diagnostic {
  std::string id;       ///< stable rule id, e.g. "CIR001" (see registry.h)
  Severity severity = Severity::kWarning;
  std::string locus;    ///< subject of the finding: "gate 'G'", "cell 'NAND2'", "variable 'S_g3'"
  std::string message;  ///< one-line statement of the defect
  std::string hint;     ///< optional remediation advice (may be empty)
};

/// An ordered collection of diagnostics with severity accounting, merging,
/// and text/JSON rendering.
class Report {
 public:
  void add(Diagnostic diagnostic);

  /// Convenience: the severity is looked up in the rule catalog (registry.h);
  /// unknown ids become errors (a misspelled rule id is itself a bug).
  void add(std::string_view rule_id, std::string locus, std::string message,
           std::string hint = {});

  /// Appends `other`'s diagnostics, dropping any whose (id, locus, message)
  /// triple this report already holds. Composed reports (several inputs, or the
  /// same rule reached through two analysis paths) would otherwise double-count
  /// one defect in the summary and the CI gate.
  void merge(Report other);

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }
  bool empty() const { return diags_.empty(); }
  int count(Severity severity) const;
  bool has_errors() const { return count(Severity::kError) > 0; }

  /// kNote when the report is empty.
  Severity max_severity() const;

  /// Severity-based process exit code for CI gating:
  /// 0 = clean or notes only, 2 = warnings present, 3 = errors present.
  int exit_code() const;

  /// "2 errors, 1 warning, 3 notes".
  std::string summary() const;

  /// Human-readable listing, one diagnostic per line plus indented hints.
  void print(std::ostream& out) const;

  /// Error-severity findings joined into exception text (used by
  /// Circuit::finalize so structural failures name the offending nodes).
  std::string errors_text() const;

  /// Machine-readable {target, summary, diagnostics[]} JSON document.
  void write_json(std::ostream& out, std::string_view target) const;

  /// Emits the summary + diagnostics members into an object `w` has already
  /// opened — the shared body of write_json and the lint document (lint.h),
  /// which appends its analytics sections alongside.
  void write_json_members(util::JsonWriter& w) const;

  /// Prepends "`prefix`: " to every diagnostic's locus — used by multi-input
  /// lint runs so one merged report still names the file each finding is from.
  void prefix_loci(std::string_view prefix);

  /// Stable sort: errors first, then by rule id, then by locus.
  void sort();

 private:
  std::vector<Diagnostic> diags_;
};

}  // namespace statsize::analyze
