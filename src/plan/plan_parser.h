#ifndef WMP_PLAN_PLAN_PARSER_H_
#define WMP_PLAN_PLAN_PARSER_H_

/// \file plan_parser.h
/// Parses EXPLAIN text (see explain.h) back into a PlanNode tree.
///
/// This is the ingestion path for real deployments: a DBA dumps plans from
/// the DBMS query log, and the LearnedWMP training pipeline featurizes them
/// without re-planning. `ParseExplain(Explain(p))` reconstructs `p` exactly
/// (all annotated fields).

#include <string_view>
#include <utility>
#include <vector>

#include "plan/plan_node.h"
#include "util/status.h"

namespace wmp::plan {

/// \brief Incremental EXPLAIN parser: builds a plan one line at a time into
/// a caller-owned arena, so a line-oriented reader (the query-log ingest
/// path) can hand over each plan line as it arrives, without gathering the
/// block into a string. Every error names the `line_no` it was given.
class ExplainBuilder {
 public:
  /// Starts a new plan whose nodes and strings live in `arena`.
  void Reset(util::Arena* arena);

  /// Parses one non-blank plan line. Fails with InvalidArgument on
  /// malformed fields, bad indentation (a child more than one level deeper
  /// than its parent, an indented first line), and NotFound on an unknown
  /// operator. Trailing whitespace (a CRLF log's '\r') is ignored.
  Status AddLine(std::string_view line, size_t line_no);

  /// The plan's root; InvalidArgument if no line was added.
  Result<PlanNode*> Finish() const;

 private:
  util::Arena* arena_ = nullptr;
  PlanNode* root_ = nullptr;
  // Open (depth, node) path from the root, for parent attachment.
  std::vector<std::pair<int, PlanNode*>> stack_;
};

/// \brief Parses one EXPLAIN plan; blank lines are skipped. Errors are those
/// of ExplainBuilder (line numbers count from 1 within `text`), plus
/// InvalidArgument for empty input. The returned tree owns its arena.
Result<PlanTree> ParseExplain(std::string_view text);

}  // namespace wmp::plan

#endif  // WMP_PLAN_PLAN_PARSER_H_
