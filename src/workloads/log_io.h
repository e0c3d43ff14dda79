#ifndef WMP_WORKLOADS_LOG_IO_H_
#define WMP_WORKLOADS_LOG_IO_H_

/// \file log_io.h
/// Text serialization of query logs — the deployment-grade TR1 ingestion
/// path. A production site dumps its query log as SQL + EXPLAIN + observed
/// peak memory; LearnedWMP trains from that dump without access to the
/// DBMS. The format is line-oriented and append-friendly:
///
///   -- query: SELECT ...
///   -- memory_mb: 38.25
///   -- dbms_estimate_mb: 12.5        (optional)
///   -- family: 7                     (optional)
///   RETURN in=... out=... width=...
///     SORT ...
///   <blank line terminates the record>
///
/// Lines end in "\n". A "\r\n" (CRLF) log is accepted too: the '\r' is
/// whitespace to every field, though it stays part of the SQL text. Every
/// number must fill its whole field; surrounding whitespace is allowed.
///   - `memory_mb`, `dbms_estimate_mb` and the plan fields `in`, `out`,
///     `tin`, `tout`, `width`, `keys` are decimal floats: [+|-] digits
///     with an optional fraction and (e|E)[+|-] exponent, or inf,
///     infinity, nan in any case. `keys` must also fit an int.
///   - `family` is a decimal int: [+|-] digits.
/// Values load bitwise as strtod reads them, also when they overflow or
/// underflow a double (1e400 loads as inf, 1e-400 as 0). NaN payloads
/// ("nan(...)") are not kept. Anything else ("abc", "12.5x",
/// "width=8junk", hex) fails the load with a line-annotated
/// InvalidArgument.

#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "workloads/query_record.h"

namespace wmp::workloads {

/// \brief Writes `records` (SQL text, plan, labels) to `path` in the query
/// log format. Fails if a record lacks a plan.
Status WriteQueryLog(const std::vector<QueryRecord>& records,
                     const std::string& path);

/// \brief Parses a query log produced by WriteQueryLog (or by an external
/// dump tool emitting the same format).
///
/// Each record's SQL is re-parsed into an AST and its EXPLAIN block into a
/// plan tree; plan features are recomputed from the parsed plan. Records
/// missing the optional fields get `dbms_estimate_mb = 0` and
/// `family_id = -1`. Malformed records fail the whole load with an error
/// naming the log-file line. Drains a QueryLogReader, so the file is never
/// held in memory whole.
Result<std::vector<QueryRecord>> LoadQueryLog(const std::string& path);

/// In-memory variants (for tests and piping).
std::string SerializeQueryLog(const std::vector<QueryRecord>& records);
Result<std::vector<QueryRecord>> ParseQueryLog(std::string_view text);

/// \brief Streaming reader of the query-log format.
///
/// A production site's log is arbitrarily large while scoring only ever
/// needs one workload's worth of records at a time. The reader parses
/// records incrementally (the format is line-oriented and
/// blank-line-delimited, so record boundaries need no lookahead) and
/// hands them out in caller-sized chunks; `wmpctl score` streams a log
/// through the scorer this way with a resident set capped at one chunk.
/// LoadQueryLog and ParseQueryLog are drains of this reader.
///
/// Each byte is parsed once, in place: the file is read in fixed-size
/// blocks, lines are views into the block, and SQL, directives and plan
/// lines are parsed straight from those views (plan nodes land in the
/// record's own arena) — no per-line or per-field heap strings.
///
/// Chunks are fingerprinted on the way out, so serving-layer cache keys
/// are identical however a record was ingested.
class QueryLogReader {
 public:
  /// Opens `path`; fails with IOError when unreadable.
  static Result<QueryLogReader> Open(const std::string& path);
  /// Reads an in-memory log; `text` must outlive the reader.
  static QueryLogReader FromText(std::string_view text);

  /// Parses up to `max_records` further records into `*out` (appended;
  /// existing elements untouched). Returns the number appended — 0 means
  /// clean end of log. Malformed records fail with an error naming the
  /// log-file line.
  Result<size_t> ReadChunk(size_t max_records, std::vector<QueryRecord>* out);

  /// True once the last record has been returned.
  bool exhausted() const { return exhausted_; }
  /// Records handed out so far.
  size_t records_read() const { return records_read_; }

 private:
  QueryLogReader() = default;

  /// Next line without its '\n' (a view valid until the next call), or
  /// false at end of input.
  bool NextLine(std::string_view* line);
  /// Moves the partial line in `pending_` to the buffer front and reads
  /// the next block after it; false at end of file.
  bool Refill();

  std::ifstream in_;
  // File mode: read buffer (heap, so `pending_` survives moves).
  std::unique_ptr<char[]> buf_;
  size_t buf_cap_ = 0;
  // Unconsumed input: a view into `buf_`, or into the caller's text.
  std::string_view pending_;
  size_t line_no_ = 0;
  size_t records_read_ = 0;
  bool exhausted_ = false;
};

}  // namespace wmp::workloads

#endif  // WMP_WORKLOADS_LOG_IO_H_
