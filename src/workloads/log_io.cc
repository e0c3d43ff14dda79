#include "workloads/log_io.h"

#include <cstring>
#include <fstream>
#include <limits>

#include "plan/explain.h"
#include "plan/features.h"
#include "plan/plan_parser.h"
#include "sql/parser.h"
#include "util/strings.h"

namespace wmp::workloads {

std::string SerializeQueryLog(const std::vector<QueryRecord>& records) {
  std::string out;
  for (const QueryRecord& r : records) {
    out += "-- query: " + r.sql_text + "\n";
    out += StrFormat("-- memory_mb: %.17g\n", r.actual_memory_mb);
    if (r.dbms_estimate_mb > 0.0) {
      out += StrFormat("-- dbms_estimate_mb: %.17g\n", r.dbms_estimate_mb);
    }
    if (r.family_id >= 0) {
      out += StrFormat("-- family: %d\n", r.family_id);
    }
    out += plan::Explain(*r.plan);
    out += "\n";  // blank line terminates the record
  }
  return out;
}

Status WriteQueryLog(const std::vector<QueryRecord>& records,
                     const std::string& path) {
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].plan == nullptr) {
      return Status::InvalidArgument(
          StrFormat("record %zu has no plan", i));
    }
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out << SerializeQueryLog(records);
  if (!out) return Status::IOError("short write: " + path);
  return Status::OK();
}

namespace {

// File reads go through a buffer of this many bytes (grown only for a
// longer line).
constexpr size_t kReadBlock = 64 << 10;

// Error text quotes at most this many bytes of a malformed value.
constexpr int kQuoteMax = 32;

Status MalformedNumber(size_t line_no, const char* field,
                       std::string_view value) {
  const int len =
      static_cast<int>(value.size() < kQuoteMax ? value.size() : kQuoteMax);
  return Status::InvalidArgument(StrFormat(
      "line %zu: malformed %s value '%.*s'", line_no, field, len, value.data()));
}

/// Incremental single-record parser behind every ingest entry point — the
/// format's record boundary is a blank line, so one line of lookahead is
/// never needed. Plan lines are parsed as they arrive, straight into the
/// record's arena; the record is finalized (SQL parsed, features
/// computed) the moment its terminator arrives. Nothing is kept from a
/// line view beyond the call that received it.
class RecordAssembler {
 public:
  /// Consumes one line; a blank line completes the pending record.
  Status Feed(std::string_view line, size_t line_no, QueryRecord* done,
              bool* completed) {
    *completed = false;
    if (Trim(line).empty()) return Complete(line_no, done, completed);
    if (StartsWith(line, "-- query: ")) {
      if (in_record_ && !current_.sql_text.empty()) {
        return Status::InvalidArgument(
            StrFormat("line %zu: duplicate '-- query:' in one record",
                      line_no));
      }
      in_record_ = true;
      current_.sql_text.assign(line.substr(10));
      query_line_ = line_no;
      return Status::OK();
    }
    if (StartsWith(line, "-- memory_mb: ")) {
      in_record_ = true;
      if (!ParseDouble(line.substr(14), &current_.actual_memory_mb)) {
        return MalformedNumber(line_no, "memory_mb", line.substr(14));
      }
      return Status::OK();
    }
    if (StartsWith(line, "-- dbms_estimate_mb: ")) {
      in_record_ = true;
      if (!ParseDouble(line.substr(21), &current_.dbms_estimate_mb)) {
        return MalformedNumber(line_no, "dbms_estimate_mb", line.substr(21));
      }
      return Status::OK();
    }
    if (StartsWith(line, "-- family: ")) {
      in_record_ = true;
      if (!ParseInt(line.substr(11), &current_.family_id)) {
        return MalformedNumber(line_no, "family", line.substr(11));
      }
      return Status::OK();
    }
    if (StartsWith(line, "--")) {
      return Status::InvalidArgument(
          StrFormat("line %zu: unknown log directive", line_no));
    }
    // Plan line (possibly indented). A bad plan line is reported when the
    // record completes, after the header and SQL checks, so a record with
    // several faults reports the one it always has.
    in_record_ = true;
    if (!has_plan_) {
      has_plan_ = true;
      plan_arena_ = std::make_unique<util::Arena>(plan::kPlanArenaChunk);
      plan_.Reset(plan_arena_.get());
    }
    if (plan_error_.ok()) plan_error_ = plan_.AddLine(line, line_no);
    return Status::OK();
  }

  /// Finalizes the pending record (if any) into `*done`; `*completed`
  /// says whether one was produced.
  Status Complete(size_t line_no, QueryRecord* done, bool* completed) {
    *completed = false;
    if (!in_record_) return Status::OK();
    if (current_.sql_text.empty()) {
      return Status::InvalidArgument(
          StrFormat("record ending at line %zu has no '-- query:' header",
                    line_no));
    }
    if (!has_plan_) {
      return Status::InvalidArgument(
          StrFormat("record ending at line %zu has no EXPLAIN block",
                    line_no));
    }
    Result<sql::Query> query = sql::Parse(current_.sql_text);
    if (!query.ok()) {
      return Status(query.status().code(),
                    StrFormat("line %zu: %s", query_line_,
                              query.status().message().c_str()));
    }
    current_.query = std::move(*query);
    WMP_RETURN_IF_ERROR(plan_error_);
    WMP_ASSIGN_OR_RETURN(plan::PlanNode * root, plan_.Finish());
    current_.plan = plan::PlanTree(std::move(plan_arena_), root);
    current_.plan_features = plan::ExtractPlanFeatures(*current_.plan);
    *done = std::move(current_);
    *completed = true;
    current_ = QueryRecord{};
    in_record_ = false;
    has_plan_ = false;
    return Status::OK();
  }

 private:
  QueryRecord current_;
  size_t query_line_ = 0;
  bool in_record_ = false;
  bool has_plan_ = false;
  std::unique_ptr<util::Arena> plan_arena_;
  plan::ExplainBuilder plan_;
  Status plan_error_;
};

// Reads `reader` to the end; an empty log is an error.
Result<std::vector<QueryRecord>> Drain(QueryLogReader* reader) {
  std::vector<QueryRecord> records;
  WMP_RETURN_IF_ERROR(
      reader->ReadChunk(std::numeric_limits<size_t>::max(), &records)
          .status());
  if (records.empty()) {
    return Status::InvalidArgument("query log contains no records");
  }
  return records;
}

}  // namespace

Result<std::vector<QueryRecord>> ParseQueryLog(std::string_view text) {
  QueryLogReader reader = QueryLogReader::FromText(text);
  return Drain(&reader);
}

Result<std::vector<QueryRecord>> LoadQueryLog(const std::string& path) {
  WMP_ASSIGN_OR_RETURN(QueryLogReader reader, QueryLogReader::Open(path));
  return Drain(&reader);
}

Result<QueryLogReader> QueryLogReader::Open(const std::string& path) {
  QueryLogReader reader;
  reader.in_.open(path, std::ios::binary);
  if (!reader.in_) return Status::IOError("cannot open for read: " + path);
  reader.buf_cap_ = kReadBlock;
  reader.buf_ = std::make_unique<char[]>(reader.buf_cap_);
  reader.pending_ = std::string_view(reader.buf_.get(), 0);
  return reader;
}

QueryLogReader QueryLogReader::FromText(std::string_view text) {
  QueryLogReader reader;
  reader.pending_ = text;
  return reader;
}

bool QueryLogReader::Refill() {
  if (buf_ == nullptr || !in_) return false;
  const size_t keep = pending_.size();
  if (keep == buf_cap_) {  // one line fills the buffer: grow it
    auto grown = std::make_unique<char[]>(2 * buf_cap_);
    std::memcpy(grown.get(), pending_.data(), keep);
    buf_ = std::move(grown);
    buf_cap_ *= 2;
  } else if (keep != 0) {
    std::memmove(buf_.get(), pending_.data(), keep);
  }
  in_.read(buf_.get() + keep, static_cast<std::streamsize>(buf_cap_ - keep));
  const size_t got = static_cast<size_t>(in_.gcount());
  pending_ = std::string_view(buf_.get(), keep + got);
  return got != 0;
}

bool QueryLogReader::NextLine(std::string_view* line) {
  size_t scanned = 0;  // bytes of `pending_` known to hold no '\n'
  for (;;) {
    const size_t nl = pending_.find('\n', scanned);
    if (nl != std::string_view::npos) {
      *line = pending_.substr(0, nl);
      pending_.remove_prefix(nl + 1);
      return true;
    }
    scanned = pending_.size();
    if (!Refill()) {
      if (pending_.empty()) return false;
      *line = pending_;  // final line without a '\n'
      pending_ = pending_.substr(pending_.size());
      return true;
    }
  }
}

Result<size_t> QueryLogReader::ReadChunk(size_t max_records,
                                         std::vector<QueryRecord>* out) {
  if (exhausted_ || max_records == 0) return static_cast<size_t>(0);
  // ReadChunk always leaves the input at a record boundary (it returns
  // only after a record completes or at end of log), so the assembler
  // carries no state between chunks.
  RecordAssembler assembler;
  const size_t base = out->size();
  size_t appended = 0;
  QueryRecord done;
  bool completed = false;
  std::string_view line;
  while (appended < max_records && NextLine(&line)) {
    ++line_no_;
    WMP_RETURN_IF_ERROR(assembler.Feed(line, line_no_, &done, &completed));
    if (completed) {
      out->push_back(std::move(done));
      ++appended;
    }
  }
  if (appended < max_records) {
    // End of input; flush a final unterminated record.
    WMP_RETURN_IF_ERROR(assembler.Complete(line_no_, &done, &completed));
    if (completed) {
      out->push_back(std::move(done));
      ++appended;
    }
    exhausted_ = true;
  }
  records_read_ += appended;
  // Fingerprint just the fresh rows (FingerprintRecords over the whole
  // vector would be correct — it skips memoized rows — but would rescan
  // the caller's carry-over on every chunk).
  for (size_t i = base; i < out->size(); ++i) {
    QueryRecord& r = (*out)[i];
    if (r.content_fingerprint == 0) {
      r.content_fingerprint = ContentFingerprint(r);
    }
  }
  return appended;
}

}  // namespace wmp::workloads
