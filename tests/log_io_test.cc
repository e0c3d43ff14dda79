// Tests for query-log text IO — the deployment ingestion path — and for
// generator-free training from an ingested log.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "core/featurizer.h"
#include "core/learned_wmp.h"
#include "plan/explain.h"
#include "plan/plan_parser.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "workloads/dataset.h"
#include "workloads/log_io.h"

namespace wmp::workloads {
namespace {

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << text;
}

Dataset SmallDataset() {
  DatasetOptions opt;
  opt.num_queries = 80;
  opt.seed = 31;
  auto d = BuildDataset(Benchmark::kTpcc, opt);
  EXPECT_TRUE(d.ok());
  return std::move(*d);
}

TEST(LogIoTest, SerializeParseRoundTrip) {
  Dataset dataset = SmallDataset();
  const std::string text = SerializeQueryLog(dataset.records);
  auto parsed = ParseQueryLog(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), dataset.records.size());
  for (size_t i = 0; i < parsed->size(); ++i) {
    const QueryRecord& a = dataset.records[i];
    const QueryRecord& b = (*parsed)[i];
    EXPECT_EQ(a.sql_text, b.sql_text);
    EXPECT_DOUBLE_EQ(a.actual_memory_mb, b.actual_memory_mb);
    EXPECT_DOUBLE_EQ(a.dbms_estimate_mb, b.dbms_estimate_mb);
    EXPECT_EQ(a.family_id, b.family_id);
    // Plans reconstruct exactly (EXPLAIN uses %.17g).
    EXPECT_EQ(plan::Explain(*a.plan), plan::Explain(*b.plan));
    EXPECT_EQ(a.plan_features, b.plan_features);
  }
}

TEST(LogIoTest, FileRoundTrip) {
  Dataset dataset = SmallDataset();
  const std::string path = ::testing::TempDir() + "/wmp_querylog.txt";
  ASSERT_TRUE(WriteQueryLog(dataset.records, path).ok());
  auto loaded = LoadQueryLog(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), dataset.records.size());
}

TEST(LogIoTest, OptionalFieldsDefault) {
  const std::string text =
      "-- query: SELECT a FROM t\n"
      "-- memory_mb: 12.5\n"
      "RETURN in=1 out=1 width=8\n"
      "  TBSCAN(t) in=10 out=1 width=8\n"
      "\n";
  auto parsed = ParseQueryLog(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_DOUBLE_EQ((*parsed)[0].actual_memory_mb, 12.5);
  EXPECT_DOUBLE_EQ((*parsed)[0].dbms_estimate_mb, 0.0);
  EXPECT_EQ((*parsed)[0].family_id, -1);
  EXPECT_EQ((*parsed)[0].query.from[0].table, "t");
}

TEST(LogIoTest, MalformedLogsRejected) {
  // No records at all.
  EXPECT_TRUE(ParseQueryLog("").status().IsInvalidArgument());
  // EXPLAIN block without a query header.
  EXPECT_TRUE(ParseQueryLog("RETURN in=1 out=1 width=8\n\n")
                  .status()
                  .IsInvalidArgument());
  // Query without a plan.
  EXPECT_TRUE(ParseQueryLog("-- query: SELECT a FROM t\n\n")
                  .status()
                  .IsInvalidArgument());
  // Unknown directive.
  EXPECT_TRUE(ParseQueryLog("-- bogus: 1\n").status().IsInvalidArgument());
  // Broken SQL inside an otherwise valid record.
  EXPECT_FALSE(ParseQueryLog("-- query: SELECT FROM\n"
                             "RETURN in=1 out=1 width=8\n\n")
                   .ok());
  // Duplicate query header in one record.
  EXPECT_TRUE(ParseQueryLog("-- query: SELECT a FROM t\n"
                            "-- query: SELECT b FROM t\n"
                            "RETURN in=1 out=1 width=8\n\n")
                  .status()
                  .IsInvalidArgument());
  // Numeric fields must parse whole: no garbage label of 0, no truncation.
  const std::string plan = "RETURN in=1 out=1 width=8\n\n";
  for (const char* bad : {"-- memory_mb: abc\n", "-- memory_mb: 12.5x\n",
                          "-- memory_mb: \n", "-- memory_mb: 1 2\n",
                          "-- memory_mb: 0x10\n", "-- dbms_estimate_mb: 3y\n",
                          "-- family: 3z\n", "-- family: 2.5\n",
                          "-- family: 99999999999\n", "-- family: +-1\n"}) {
    const Status st =
        ParseQueryLog(std::string("-- query: SELECT a FROM t\n") + bad + plan)
            .status();
    EXPECT_TRUE(st.IsInvalidArgument()) << bad << " -> " << st.ToString();
    EXPECT_NE(st.message().find("line 2"), std::string::npos)
        << st.ToString();
  }
  const Status junk_width = ParseQueryLog("-- query: SELECT a FROM t\n"
                                          "-- memory_mb: 1\n"
                                          "RETURN in=1 out=1 width=8junk\n\n")
                                .status();
  EXPECT_TRUE(junk_width.IsInvalidArgument()) << junk_width.ToString();
  EXPECT_NE(junk_width.message().find("line 3"), std::string::npos)
      << junk_width.ToString();
}

TEST(LogIoTest, SurroundingWhitespaceAndCrlfAccepted) {
  const std::string lf =
      "-- query: SELECT a FROM t\n"
      "-- memory_mb: 12.5\n"
      "-- dbms_estimate_mb: 3\n"
      "-- family: 7\n"
      "RETURN in=1 out=1 width=8 hash\n"
      "  TBSCAN(t) in=10 out=1 width=8 detail=\"x\"\n"
      "\n";
  std::string crlf;
  for (char c : lf) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  auto a = ParseQueryLog(lf);
  auto b = ParseQueryLog(crlf);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(a->size(), 1u);
  ASSERT_EQ(b->size(), 1u);
  EXPECT_EQ(Bits((*b)[0].actual_memory_mb), Bits(12.5));
  EXPECT_EQ(Bits((*b)[0].dbms_estimate_mb), Bits(3.0));
  EXPECT_EQ((*b)[0].family_id, 7);
  EXPECT_EQ((*a)[0].plan_features, (*b)[0].plan_features);
  EXPECT_EQ(plan::Explain(*(*a)[0].plan), plan::Explain(*(*b)[0].plan));

  auto spaced = ParseQueryLog("-- query: SELECT a FROM t\n"
                              "-- memory_mb:  \t12.5 \t\n"
                              "-- family:  +7 \n"
                              "RETURN in=1 out=1 width=8\n\n");
  ASSERT_TRUE(spaced.ok()) << spaced.status().ToString();
  EXPECT_EQ(Bits((*spaced)[0].actual_memory_mb), Bits(12.5));
  EXPECT_EQ((*spaced)[0].family_id, 7);
}

// Every number the log carries goes through the same parse; each must load
// bitwise as strtod reads it (the ingest path's historical oracle),
// including values that overflow or underflow a double.
TEST(LogIoTest, NumbersLoadBitwiseAsStrtod) {
  const char* kNumbers[] = {
      "0",
      "-0",
      "5e-324",
      "4.9406564584124654e-324",
      "2.4703282292062327e-324",
      "2.2250738585072014e-308",
      "2.2250738585072009e-308",
      "1.7976931348623157e308",
      "1.7976931348623158e308",
      "0.1",
      "9007199254740993",
      "1e22",
      "0.30000000000000004",
      "1.2345678901234567e-05",
      "123456789.01234567",
      "98765432109876543",
      "-3.1415926535897931",
      "inf",
      "-inf",
      "1e400",
      "-1e400",
      "1e-400",
      "-1e-400",
      "1E+5",
      "00012.500",
  };
  for (const char* num : kNumbers) {
    SCOPED_TRACE(num);
    const uint64_t want = Bits(std::strtod(num, nullptr));

    // Plan field.
    auto plan = plan::ParseExplain(std::string("RETURN in=") + num +
                                   " out=1 width=8");
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(Bits((*plan)->input_card), want);

    // Label directive, with the plan field in the same record.
    auto log = ParseQueryLog(std::string("-- query: SELECT a FROM t\n") +
                             "-- memory_mb: " + num + "\n" +
                             "RETURN in=1 out=1 width=" + num + "\n\n");
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_EQ(Bits((*log)[0].actual_memory_mb), want);
    EXPECT_EQ(Bits((*log)[0].plan->row_width), want);

    // SQL numeric literal (the lexer has no inf spelling).
    if (std::strchr(num, 'i') != nullptr) continue;
    auto query = sql::Parse(std::string("SELECT a FROM t WHERE a = ") + num);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    ASSERT_EQ(query->where.size(), 1u);
    ASSERT_EQ(query->where[0].values.size(), 1u);
    EXPECT_EQ(Bits(query->where[0].values[0].number), want);
  }
}

TEST(LogIoTest, WriteRejectsPlanlessRecords) {
  std::vector<QueryRecord> records(1);
  records[0].sql_text = "SELECT a FROM t";
  EXPECT_TRUE(WriteQueryLog(records, "/tmp/never_written.txt")
                  .IsInvalidArgument());
}

TEST(LogIoTest, TrainFromIngestedLogEndToEnd) {
  // The wmpctl workflow: generate -> serialize -> parse -> train -> predict,
  // with no generator available on the training side.
  DatasetOptions opt;
  opt.num_queries = 400;
  opt.seed = 33;
  auto dataset = BuildDataset(Benchmark::kTpcc, opt);
  ASSERT_TRUE(dataset.ok());
  auto reloaded = ParseQueryLog(SerializeQueryLog(dataset->records));
  ASSERT_TRUE(reloaded.ok());

  core::LearnedWmpOptions lopt;
  lopt.templates.num_templates = 8;
  auto model = core::LearnedWmpModel::Train(
      *reloaded, core::AllIndices(reloaded->size()), lopt);
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  std::vector<uint32_t> batch{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto pred = model->PredictWorkload(*reloaded, batch);
  ASSERT_TRUE(pred.ok());
  EXPECT_GT(*pred, 0.0);
}

TEST(QueryLogReaderTest, ChunkedReadMatchesWholeFileLoad) {
  for (Benchmark bench :
       {Benchmark::kTpcc, Benchmark::kTpcds, Benchmark::kJob}) {
    SCOPED_TRACE(BenchmarkName(bench));
    DatasetOptions opt;
    opt.num_queries = 100;
    opt.seed = 47;
    auto dataset = BuildDataset(bench, opt);
    ASSERT_TRUE(dataset.ok());
    const std::vector<QueryRecord>& original = dataset->records;
    const std::string path = ::testing::TempDir() + "/wmp_chunked_log.txt";
    ASSERT_TRUE(WriteQueryLog(original, path).ok());
    auto whole = LoadQueryLog(path);
    ASSERT_TRUE(whole.ok()) << whole.status().ToString();
    ASSERT_EQ(whole->size(), original.size());
    auto parsed = ParseQueryLog(SerializeQueryLog(original));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

    // Whole-file load vs the in-memory originals: every field bitwise.
    for (size_t i = 0; i < original.size(); ++i) {
      const QueryRecord& want = original[i];
      const QueryRecord& got = (*whole)[i];
      EXPECT_EQ(got.sql_text, want.sql_text);
      EXPECT_EQ(Bits(got.actual_memory_mb), Bits(want.actual_memory_mb));
      EXPECT_EQ(Bits(got.dbms_estimate_mb), Bits(want.dbms_estimate_mb));
      EXPECT_EQ(got.family_id, want.family_id);
      EXPECT_EQ(plan::Explain(*got.plan), plan::Explain(*want.plan));
      ASSERT_EQ(got.plan_features.size(), want.plan_features.size());
      for (size_t f = 0; f < want.plan_features.size(); ++f) {
        EXPECT_EQ(Bits(got.plan_features[f]), Bits(want.plan_features[f]));
      }
      // The generator's own AST is built, not parsed; the reference AST is
      // a direct parse of the original SQL text.
      auto want_query = sql::Parse(want.sql_text);
      ASSERT_TRUE(want_query.ok());
      EXPECT_EQ(sql::Print(got.query), sql::Print(*want_query));
      EXPECT_EQ(got.content_fingerprint, ContentFingerprint(want));
      EXPECT_NE(got.content_fingerprint, 0u);
      EXPECT_EQ((*parsed)[i].content_fingerprint, got.content_fingerprint);
    }

    for (size_t chunk : {size_t{1}, size_t{7}, size_t{100}, size_t{1000}}) {
      auto reader = QueryLogReader::Open(path);
      ASSERT_TRUE(reader.ok()) << reader.status().ToString();
      std::vector<QueryRecord> streamed;
      size_t chunks = 0;
      for (;;) {
        auto n = reader->ReadChunk(chunk, &streamed);
        ASSERT_TRUE(n.ok()) << n.status().ToString();
        if (*n == 0) break;
        EXPECT_LE(*n, chunk);
        ++chunks;
      }
      EXPECT_TRUE(reader->exhausted());
      EXPECT_EQ(reader->records_read(), original.size());
      ASSERT_EQ(streamed.size(), original.size()) << "chunk=" << chunk;
      if (chunk < original.size()) {
        EXPECT_GT(chunks, 1u);
      }
      for (size_t i = 0; i < streamed.size(); ++i) {
        EXPECT_EQ(streamed[i].sql_text, original[i].sql_text);
        EXPECT_EQ(streamed[i].plan_features, original[i].plan_features);
        EXPECT_EQ(Bits(streamed[i].actual_memory_mb),
                  Bits(original[i].actual_memory_mb));
        EXPECT_EQ(plan::Explain(*streamed[i].plan),
                  plan::Explain(*original[i].plan));
        // Cache keys must not depend on how the record was ingested.
        EXPECT_EQ(streamed[i].content_fingerprint,
                  (*whole)[i].content_fingerprint);
      }
    }
  }
}

TEST(QueryLogReaderTest, LongLinesAndUnterminatedLastRecord) {
  // One SQL line far longer than the reader's read block, and a final
  // record with neither a blank line nor a trailing newline.
  std::string sql = "SELECT a FROM t WHERE a IN (0";
  for (int i = 1; i < 30000; ++i) sql += ", " + std::to_string(i);
  sql += ")";
  const std::string text = "-- query: " + sql +
                           "\n-- memory_mb: 2\nRETURN in=1 out=1 width=8\n\n"
                           "-- query: SELECT b FROM t\n-- memory_mb: 3\n"
                           "RETURN in=1 out=1 width=8";
  const std::string path = ::testing::TempDir() + "/wmp_long_line_log.txt";
  WriteFile(path, text);
  auto parsed = ParseQueryLog(text);
  auto loaded = LoadQueryLog(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 2u);
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*loaded)[0].sql_text, sql);
  EXPECT_EQ((*loaded)[0].query.where[0].values.size(), 30000u);
  EXPECT_EQ((*loaded)[1].sql_text, "SELECT b FROM t");
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ((*loaded)[i].content_fingerprint,
              (*parsed)[i].content_fingerprint);
  }
}

TEST(QueryLogReaderTest, EofAndEmptyAndMissingFile) {
  EXPECT_TRUE(QueryLogReader::Open("/no/such/wmp/log.txt")
                  .status()
                  .IsIOError());
  const std::string path = ::testing::TempDir() + "/wmp_empty_log.txt";
  { std::ofstream out(path, std::ios::trunc); }
  auto reader = QueryLogReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::vector<QueryRecord> out;
  auto n = reader->ReadChunk(16, &out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
  EXPECT_TRUE(reader->exhausted());
  // Further reads stay at a clean EOF.
  auto again = reader->ReadChunk(16, &out);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);
}

TEST(QueryLogReaderTest, MalformedRecordFailsWithLineAnnotatedError) {
  const std::string path = ::testing::TempDir() + "/wmp_malformed_log.txt";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "-- query: SELECT a FROM t\n"
        << "-- memory_mb: 12.5\n"
        << "RETURN in=1 out=1 width=8\n"
        << "  TBSCAN(t) in=10 out=1 width=8\n"
        << "\n"
        << "-- bogus-directive: nope\n"
        << "\n";
  }
  auto reader = QueryLogReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::vector<QueryRecord> out;
  auto first = reader->ReadChunk(1, &out);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(*first, 1u);
  auto second = reader->ReadChunk(1, &out);
  ASSERT_FALSE(second.ok());
  EXPECT_NE(second.status().message().find("line 6"), std::string::npos)
      << second.status().ToString();
}

TEST(QueryLogReaderTest, RecordErrorsNameTheLogFileLine) {
  const std::string good =
      "-- query: SELECT a FROM t\n"      // 1
      "-- memory_mb: 12.5\n"             // 2
      "RETURN in=1 out=1 width=8\n"      // 3
      "  TBSCAN(t) in=10 out=1 width=8\n"  // 4
      "\n";                              // 5
  struct Case {
    const char* record;  // starts at file line 6
    const char* line;
    bool not_found;
  };
  const Case kCases[] = {
      // Odd indentation on file line 10 (line 3 of the EXPLAIN block).
      {"-- query: SELECT a FROM t\n-- memory_mb: 1\n"
       "RETURN in=1 out=1 width=8\n  TBSCAN(t) in=1 out=1 width=8\n"
       "   TBSCAN(t) in=1 out=1 width=8\n\n",
       "line 10", false},
      // Unknown operator: still NotFound, now with its line.
      {"-- query: SELECT a FROM t\n-- memory_mb: 1\n"
       "RETURN in=1 out=1 width=8\n  BOGUSOP(t) in=1 out=1 width=8\n\n",
       "line 9", true},
      // SQL syntax error: the line of its '-- query:' header.
      {"-- query: SELECT FROM t\n-- memory_mb: 1\n"
       "RETURN in=1 out=1 width=8\n\n",
       "line 6", false},
      // Malformed plan number.
      {"-- query: SELECT a FROM t\n-- memory_mb: 1\n"
       "RETURN in=1 out=1 width=8\n  TBSCAN(t) in=1 out=1x width=8\n\n",
       "line 9", false},
      // Indented first plan line.
      {"-- query: SELECT a FROM t\n-- memory_mb: 1\n"
       "  RETURN in=1 out=1 width=8\n\n",
       "line 8", false},
  };
  const std::string path = ::testing::TempDir() + "/wmp_error_line_log.txt";
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.line);
    const std::string text = good + c.record;
    WriteFile(path, text);
    auto reader = QueryLogReader::Open(path);
    ASSERT_TRUE(reader.ok());
    std::vector<QueryRecord> out;
    auto first = reader->ReadChunk(1, &out);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    auto second = reader->ReadChunk(1, &out);
    ASSERT_FALSE(second.ok());
    for (const Status& st : {second.status(), ParseQueryLog(text).status(),
                             LoadQueryLog(path).status()}) {
      EXPECT_EQ(st.IsNotFound(), c.not_found) << st.ToString();
      EXPECT_EQ(st.IsInvalidArgument(), !c.not_found) << st.ToString();
      EXPECT_NE(st.message().find(c.line), std::string::npos)
          << st.ToString();
    }
  }
}

TEST(LogIoTest, GeneratorFreeTrainingRejectsRuleBased) {
  Dataset dataset = SmallDataset();
  core::LearnedWmpOptions opt;
  opt.templates.method = core::TemplateMethod::kRuleBased;
  opt.batch_size = 5;
  auto model = core::LearnedWmpModel::Train(
      dataset.records, core::AllIndices(dataset.records.size()), opt);
  EXPECT_TRUE(model.status().IsInvalidArgument());
}

}  // namespace
}  // namespace wmp::workloads
