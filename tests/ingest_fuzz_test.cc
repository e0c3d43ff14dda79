// Seeded mutation tests of the trust boundary. A generated query log is
// corrupted with byte flips, truncations and line duplications, and every
// result goes through ParseQueryLog, plan::ParseExplain and sql::Parse.
// The same mutator then corrupts trained DT/RF/GBT model artifacts (through
// LearnedWmpModel::Deserialize, scoring whatever loads) and encoded wire
// payloads (through their protocol decoders). Each input must come back as
// a Status (or well-formed records) without crashing; under ASan/UBSan this
// also catches out-of-bounds reads and undefined conversions on hostile
// bytes. The seeds and the iteration budgets are fixed, so a failure
// reproduces exactly.

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/learned_wmp.h"
#include "core/workload.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "plan/explain.h"
#include "plan/features.h"
#include "plan/plan_parser.h"
#include "sql/parser.h"
#include "util/io.h"
#include "util/random.h"
#include "workloads/dataset.h"
#include "workloads/log_io.h"

namespace wmp::workloads {
namespace {

constexpr uint64_t kSeed = 0x1f2e3d4c5b6a7988ULL;
constexpr int kIterations = 10000;
// Every this many iterations the mutated log also goes through a file and
// LoadQueryLog, which must agree with ParseQueryLog exactly.
constexpr int kFileEvery = 100;

// Bytes that steer mutations toward the format's own syntax.
constexpr std::string_view kInteresting =
    "\n\r\t =()\"'-+.,0123456789eEinfaxSELECT-- ";

std::string BaseLog() {
  std::vector<QueryRecord> records;
  for (Benchmark bench :
       {Benchmark::kTpcc, Benchmark::kTpcds, Benchmark::kJob}) {
    DatasetOptions opt;
    opt.num_queries = 6;
    opt.seed = 71;
    auto d = BuildDataset(bench, opt);
    EXPECT_TRUE(d.ok());
    for (QueryRecord& r : d->records) records.push_back(std::move(r));
  }
  return SerializeQueryLog(records);
}

// Start offsets of the lines of `text`.
std::vector<size_t> LineStarts(const std::string& text) {
  std::vector<size_t> starts{0};
  for (size_t i = 0; i + 1 < text.size(); ++i) {
    if (text[i] == '\n') starts.push_back(i + 1);
  }
  return starts;
}

void FlipByte(Rng* rng, std::string* text) {
  if (text->empty()) return;
  const size_t pos = static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(text->size()) - 1));
  if (rng->Bernoulli(0.5)) {
    (*text)[pos] = kInteresting[static_cast<size_t>(rng->UniformInt(
        0, static_cast<int64_t>(kInteresting.size()) - 1))];
  } else {
    (*text)[pos] = static_cast<char>(rng->UniformInt(0, 255));
  }
}

void Truncate(Rng* rng, std::string* text) {
  text->resize(static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(text->size()))));
}

void DuplicateLine(Rng* rng, std::string* text) {
  const std::vector<size_t> starts = LineStarts(*text);
  const size_t i = static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(starts.size()) - 1));
  const size_t begin = starts[i];
  const size_t end = i + 1 < starts.size() ? starts[i + 1] : text->size();
  text->insert(begin, text->substr(begin, end - begin));
}

std::string Mutate(Rng* rng, std::string text) {
  const int64_t n = rng->UniformInt(1, 4);
  for (int64_t m = 0; m < n; ++m) {
    switch (rng->UniformInt(0, 5)) {
      case 0:
        Truncate(rng, &text);
        break;
      case 1:
      case 2:
        DuplicateLine(rng, &text);
        break;
      default:
        FlipByte(rng, &text);
        break;
    }
  }
  return text;
}

// The first record's EXPLAIN block: its lines that are not directives, up
// to the first blank line.
std::string FirstExplainBlock(const std::string& text) {
  std::string out;
  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + begin, end - begin);
    if (line.empty() && !out.empty()) break;
    if (line.substr(0, 2) != "--") {
      out.append(line);
      out.push_back('\n');
    }
    begin = end + 1;
  }
  return out;
}

TEST(IngestFuzzTest, MutatedLogsReturnStatusWithoutCrashing) {
  const std::string base = BaseLog();
  ASSERT_TRUE(ParseQueryLog(base).ok());
  const std::vector<size_t> record_starts = [&] {
    std::vector<size_t> starts;
    for (size_t pos = base.find("-- query: "); pos != std::string::npos;
         pos = base.find("-- query: ", pos + 1)) {
      starts.push_back(pos);
    }
    return starts;
  }();
  ASSERT_GE(record_starts.size(), 10u);

  Rng rng(kSeed);
  size_t log_ok = 0, log_failed = 0, explain_ok = 0, sql_ok = 0;
  for (int it = 0; it < kIterations; ++it) {
    // Whole log, or a short slice of it so errors late in a record are
    // reached as often as early ones.
    std::string input = base;
    if (rng.Bernoulli(0.7)) {
      const size_t first = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(record_starts.size()) - 2));
      const size_t last = first + 2 < record_starts.size()
                              ? record_starts[first + 2]
                              : base.size();
      input = base.substr(record_starts[first], last - record_starts[first]);
    }
    const std::string mutated = Mutate(&rng, input);

    auto log = ParseQueryLog(mutated);
    if (log.ok()) {
      ++log_ok;
      for (const QueryRecord& r : *log) {
        ASSERT_NE(r.plan, nullptr);
        ASSERT_EQ(r.plan_features.size(), plan::kPlanFeatureDim);
        ASSERT_NE(r.content_fingerprint, 0u);
      }
    } else {
      ++log_failed;
      ASSERT_FALSE(log.status().message().empty());
    }

    if (it % kFileEvery == 0) {
      const std::string path = ::testing::TempDir() + "/wmp_fuzz_log.txt";
      {
        std::ofstream out(path, std::ios::trunc | std::ios::binary);
        out << mutated;
      }
      auto loaded = LoadQueryLog(path);
      ASSERT_EQ(loaded.ok(), log.ok());
      if (log.ok()) {
        ASSERT_EQ(loaded->size(), log->size());
        for (size_t i = 0; i < log->size(); ++i) {
          ASSERT_EQ((*loaded)[i].content_fingerprint,
                    (*log)[i].content_fingerprint);
        }
      } else {
        ASSERT_EQ(loaded.status().ToString(), log.status().ToString());
      }
    }

    auto explain = plan::ParseExplain(FirstExplainBlock(mutated));
    if (explain.ok()) {
      ++explain_ok;
      // A parsed plan re-explains and re-parses to itself.
      const std::string text = plan::Explain(**explain);
      auto again = plan::ParseExplain(text);
      ASSERT_TRUE(again.ok()) << again.status().ToString() << "\n" << text;
      ASSERT_EQ(plan::Explain(**again), text);
    }

    const size_t q = mutated.find("-- query: ");
    if (q != std::string::npos) {
      const size_t end = mutated.find('\n', q);
      const std::string sql = mutated.substr(
          q + 10, end == std::string::npos ? std::string::npos : end - q - 10);
      if (sql::Parse(sql).ok()) ++sql_ok;
    }
  }
  // The budget must exercise both outcomes, or the mutations are too weak
  // (or too strong) to say anything.
  EXPECT_GT(log_ok, 0u);
  EXPECT_GT(log_failed, 0u);
  EXPECT_GT(explain_ok, 0u);
  EXPECT_GT(sql_ok, 0u);
}

// ---------- decoders: model artifacts and wire payloads ----------

constexpr uint64_t kDecoderSeed = 7;
constexpr int kArtifactMutants = 4000;  // per tree family
constexpr int kPayloadMutants = 3000;   // per payload kind

TEST(DecoderFuzzTest, MutatedArtifactsAndPayloadsReturnStatus) {
  DatasetOptions dopt;
  dopt.num_queries = 240;
  dopt.seed = 73;
  auto data = BuildDataset(Benchmark::kTpcc, dopt);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  const std::vector<QueryRecord>& records = data->records;
  const std::vector<uint32_t> all = core::AllIndices(records.size());
  std::vector<core::WorkloadBatch> batches(3);
  for (uint32_t i = 0; i < 30; ++i) batches[i / 10].query_indices.push_back(i);

  Rng rng(kDecoderSeed);
  for (ml::RegressorKind kind :
       {ml::RegressorKind::kDecisionTree, ml::RegressorKind::kRandomForest,
        ml::RegressorKind::kGbt}) {
    core::LearnedWmpOptions lopt;
    lopt.templates.num_templates = 6;
    lopt.regressor = kind;
    auto model =
        core::LearnedWmpModel::Train(records, all, *data->generator, lopt);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    BinaryWriter w;
    ASSERT_TRUE(model->Serialize(&w).ok());
    size_t loaded = 0, rejected = 0;
    for (int it = 0; it < kArtifactMutants; ++it) {
      BinaryReader reader(Mutate(&rng, w.buffer()));
      auto back = core::LearnedWmpModel::Deserialize(&reader);
      if (!back.ok()) {
        ++rejected;
        ASSERT_FALSE(back.status().message().empty());
        continue;
      }
      ++loaded;
      // A loaded artifact is servable: scoring returns values or a Status.
      (void)back->PredictWorkloads(records, batches);
      (void)back->PredictWorkload(records, batches[0].query_indices);
    }
    EXPECT_GT(loaded, 0u) << ml::RegressorKindName(kind);
    EXPECT_GT(rejected, 0u) << ml::RegressorKindName(kind);
  }

  // The wire's frame codec and request/response payloads, each paired with
  // its decoder.
  core::LearnedWmpOptions lopt;
  lopt.templates.num_templates = 6;
  lopt.regressor = ml::RegressorKind::kGbt;
  auto model =
      core::LearnedWmpModel::Train(records, all, *data->generator, lopt);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  BinaryWriter artifact;
  ASSERT_TRUE(model->Serialize(&artifact).ok());

  net::ScoreResponse response;
  response.ok = {1, 0, 1};
  response.predictions = {12.5, 0.0, 40.25};
  response.errors = {"", "InvalidArgument: empty workload", ""};
  net::PublishRequest publish;
  publish.model_name = "default";
  publish.model_bytes = artifact.buffer();
  net::StatsResponse stats;
  stats.service.submitted = 9;
  stats.service.completed = 7;
  stats.server.frames_served = 11;
  const std::string score_request =
      net::EncodeScoreRequest("tenant", records, batches);
  const std::string score_frame =
      net::EncodeFrame(net::FrameType::kScoreRequest, score_request);

  struct PayloadKind {
    const char* name;
    std::string encoded;
    std::function<Status(const std::string&)> decode;
  };
  const std::vector<PayloadKind> kinds = {
      {"score-request", score_request,
       [](const std::string& p) {
         return net::DecodeScoreRequest(p).status();
       }},
      {"score-response", net::EncodeScoreResponse(response),
       [](const std::string& p) {
         return net::DecodeScoreResponse(p).status();
       }},
      {"publish", net::EncodePublishRequest(publish),
       [](const std::string& p) {
         auto decoded = net::DecodePublishRequest(p);
         if (!decoded.ok()) return decoded.status();
         BinaryReader reader(std::move(decoded->model_bytes));
         return core::LearnedWmpModel::Deserialize(&reader).status();
       }},
      {"stats", net::EncodeStatsResponse(stats),
       [](const std::string& p) {
         return net::DecodeStatsResponse(p).status();
       }},
      {"frame", score_frame,
       [](const std::string& p) {
         size_t consumed = 0;
         auto frame = net::DecodeFrame(p, net::FrameLimits{}, &consumed);
         if (!frame.ok()) return frame.status();
         EXPECT_LE(consumed, p.size());
         return net::DecodeScoreRequest(frame->payload).status();
       }},
      {"pipelined", net::EncodePipelinedPayload(42, score_request),
       [](const std::string& p) {
         std::string body;
         auto id = net::DecodePipelinedPayload(p, &body);
         if (!id.ok()) return id.status();
         return net::DecodeScoreRequest(body).status();
       }},
  };
  for (const PayloadKind& kind : kinds) {
    ASSERT_TRUE(kind.decode(kind.encoded).ok()) << kind.name;
    size_t failed = 0;
    for (int it = 0; it < kPayloadMutants; ++it) {
      const Status st = kind.decode(Mutate(&rng, kind.encoded));
      if (!st.ok()) {
        ++failed;
        ASSERT_FALSE(st.message().empty()) << kind.name;
      }
    }
    EXPECT_GT(failed, 0u) << kind.name;
  }
}

}  // namespace
}  // namespace wmp::workloads
