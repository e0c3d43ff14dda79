#include "plan/plan_parser.h"

#include <memory>

#include "util/strings.h"

namespace wmp::plan {

namespace {

// One parsed line: indentation depth plus the node's fields.
struct ParsedLine {
  int depth = 0;
  PlanNode* node = nullptr;
};

// Error text quotes at most this many bytes of the offending input.
constexpr int kQuoteMax = 16;

int QuoteLen(std::string_view s) {
  return static_cast<int>(s.size() < kQuoteMax ? s.size() : kQuoteMax);
}

Result<ParsedLine> ParseLine(std::string_view line, size_t line_no,
                             util::Arena* arena) {
  while (!line.empty() && IsAsciiSpace(line.back())) line.remove_suffix(1);
  ParsedLine out;
  size_t indent = 0;
  while (indent < line.size() && line[indent] == ' ') ++indent;
  if (indent % 2 != 0) {
    return Status::InvalidArgument(
        StrFormat("line %zu: odd indentation %zu", line_no, indent));
  }
  out.depth = static_cast<int>(indent / 2);

  std::string_view rest = line.substr(indent);
  // Operator name runs until '(' or whitespace.
  size_t name_end = 0;
  while (name_end < rest.size() && rest[name_end] != '(' &&
         rest[name_end] != ' ') {
    ++name_end;
  }
  Result<OperatorType> op = OperatorTypeFromName(rest.substr(0, name_end));
  if (!op.ok()) {
    return Status(op.status().code(),
                  StrFormat("line %zu: %s", line_no,
                            op.status().message().c_str()));
  }
  out.node = arena->New<PlanNode>(arena, *op);
  rest.remove_prefix(name_end);

  if (!rest.empty() && rest.front() == '(') {
    const size_t close = rest.find(')');
    if (close == std::string_view::npos) {
      return Status::InvalidArgument(
          StrFormat("line %zu: unterminated table name", line_no));
    }
    out.node->table = arena->CopyString(rest.substr(1, close - 1));
    rest.remove_prefix(close + 1);
  }

  // Remaining fields are space-separated key=value pairs, plus the bare
  // "hash" flag and a quoted detail.
  while (!rest.empty()) {
    while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
    if (rest.empty()) break;
    if (StartsWith(rest, "hash")) {
      out.node->hash_mode = true;
      rest.remove_prefix(4);
      continue;
    }
    if (StartsWith(rest, "detail=\"")) {
      rest.remove_prefix(8);
      const size_t close = rest.find('"');
      if (close == std::string_view::npos) {
        return Status::InvalidArgument(
            StrFormat("line %zu: unterminated detail", line_no));
      }
      out.node->detail = arena->CopyString(rest.substr(0, close));
      rest.remove_prefix(close + 1);
      continue;
    }
    const size_t eq = rest.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument(
          StrFormat("line %zu: malformed field near '%.*s'", line_no,
                    QuoteLen(rest), rest.data()));
    }
    const std::string_view key = rest.substr(0, eq);
    rest.remove_prefix(eq + 1);
    const std::string_view value = rest.substr(0, rest.find(' '));
    rest.remove_prefix(value.size());
    double v = 0.0;
    if (!ParseDouble(value, &v)) {
      return Status::InvalidArgument(StrFormat(
          "line %zu: malformed number for %.*s: '%.*s'", line_no,
          QuoteLen(key), key.data(), QuoteLen(value), value.data()));
    }
    if (key == "in") {
      out.node->input_card = v;
    } else if (key == "out") {
      out.node->output_card = v;
    } else if (key == "tin") {
      out.node->true_input_card = v;
    } else if (key == "tout") {
      out.node->true_output_card = v;
    } else if (key == "width") {
      out.node->row_width = v;
    } else if (key == "keys") {
      if (!(v > -2147483649.0 && v < 2147483648.0)) {  // also rejects NaN
        return Status::InvalidArgument(
            StrFormat("line %zu: keys out of range", line_no));
      }
      out.node->num_keys = static_cast<int>(v);
    } else {
      return Status::InvalidArgument(
          StrFormat("line %zu: unknown field '%.*s'", line_no, QuoteLen(key),
                    key.data()));
    }
  }
  return out;
}

}  // namespace

void ExplainBuilder::Reset(util::Arena* arena) {
  arena_ = arena;
  root_ = nullptr;
  stack_.clear();
}

Status ExplainBuilder::AddLine(std::string_view line, size_t line_no) {
  WMP_ASSIGN_OR_RETURN(ParsedLine parsed, ParseLine(line, line_no, arena_));
  if (root_ == nullptr) {
    if (parsed.depth != 0) {
      return Status::InvalidArgument(StrFormat(
          "line %zu: first plan line must not be indented", line_no));
    }
    root_ = parsed.node;
    stack_.push_back({0, root_});
    return Status::OK();
  }
  // Pop to the parent level.
  while (!stack_.empty() && stack_.back().first >= parsed.depth) {
    stack_.pop_back();
  }
  if (stack_.empty() || stack_.back().first != parsed.depth - 1) {
    return Status::InvalidArgument(
        StrFormat("line %zu: indentation skips a level", line_no));
  }
  stack_.back().second->children.push_back(parsed.node);
  stack_.push_back({parsed.depth, parsed.node});
  return Status::OK();
}

Result<PlanNode*> ExplainBuilder::Finish() const {
  if (root_ == nullptr) {
    return Status::InvalidArgument("empty plan text");
  }
  return root_;
}

Result<PlanTree> ParseExplain(std::string_view text) {
  auto arena = std::make_unique<util::Arena>(kPlanArenaChunk);
  ExplainBuilder builder;
  builder.Reset(arena.get());
  size_t line_no = 0;
  while (!text.empty()) {
    const size_t nl = text.find('\n');
    const std::string_view line = text.substr(0, nl);
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
    ++line_no;
    if (Trim(line).empty()) continue;
    WMP_RETURN_IF_ERROR(builder.AddLine(line, line_no));
  }
  WMP_ASSIGN_OR_RETURN(PlanNode * root, builder.Finish());
  return PlanTree(std::move(arena), root);
}

}  // namespace wmp::plan
