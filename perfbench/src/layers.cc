#include "layers.h"

#include <stdexcept>

#include "core/histogram.h"
#include "net/protocol.h"
#include "plan/explain.h"
#include "plan/features.h"
#include "plan/plan_parser.h"
#include "sql/parser.h"
#include "workloads/log_io.h"

namespace perfbench {

namespace {

template <typename T>
T Check(wmp::Result<T> result, const char* what) {
  if (!result.ok()) {
    throw std::runtime_error(std::string(what) + ": " +
                             result.status().ToString());
  }
  return std::move(*result);
}

}  // namespace

const std::vector<std::string>& ChainLayers() {
  static const std::vector<std::string> kLayers = {
      "net.encode_req", "net.decode_req",  "core.assign",    "core.histogram",
      "ml.predict",     "net.encode_resp", "net.decode_resp"};
  return kLayers;
}

size_t ReplayChain(const wmp::core::LearnedWmpModel& model,
                   const std::vector<const Workload*>& sample,
                   const std::vector<double>& reference, Tracer* tracer,
                   size_t* request_bytes) {
  namespace net = wmp::net;
  std::vector<wmp::core::WorkloadBatch> whole(1);
  std::vector<uint32_t> members;
  for (uint32_t q = 0; q < kBatch; ++q) members.push_back(q);
  whole[0].query_indices = members;
  const std::vector<size_t> offsets = {0, kBatch};
  const int k = model.templates().num_templates();
  size_t mismatches = 0;
  for (size_t i = 0; i < sample.size(); ++i) {
    const uint32_t corr = static_cast<uint32_t>(i + 1);
    ScopedSpan root(tracer, "request", -1, i);
    std::string request;
    {
      ScopedSpan s(tracer, "net.encode_req", root.id(), i);
      request = net::EncodePipelinedPayload(
          corr, net::EncodeScoreRequest("perfbench", *sample[i], whole));
    }
    *request_bytes += request.size();
    net::ScoreRequest decoded;
    {
      ScopedSpan s(tracer, "net.decode_req", root.id(), i);
      std::string body;
      Check(net::DecodePipelinedPayload(request, &body), "decode request");
      decoded = Check(net::DecodeScoreRequest(body), "decode request");
    }
    std::vector<int> ids;
    {
      ScopedSpan s(tracer, "core.assign", root.id(), i);
      ids = Check(model.AssignTemplateIds(decoded.records, members, nullptr),
                  "assign");
    }
    wmp::ml::Matrix histogram;
    {
      ScopedSpan s(tracer, "core.histogram", root.id(), i);
      histogram = Check(wmp::core::BuildHistogramMatrix(ids, offsets, k),
                        "histogram");
    }
    net::ScoreResponse response;
    {
      ScopedSpan s(tracer, "ml.predict", root.id(), i);
      response.predictions = Check(
          model.PredictFromHistogramMatrix(std::move(histogram)), "predict");
    }
    response.ok.assign(1, 1);
    response.errors.assign(1, "");
    std::string encoded;
    {
      ScopedSpan s(tracer, "net.encode_resp", root.id(), i);
      encoded = net::EncodePipelinedPayload(
          corr, net::EncodeScoreResponse(response));
    }
    net::ScoreResponse back;
    {
      ScopedSpan s(tracer, "net.decode_resp", root.id(), i);
      std::string body;
      Check(net::DecodePipelinedPayload(encoded, &body), "decode response");
      back = Check(net::DecodeScoreResponse(body), "decode response");
    }
    if (back.size() != 1 || !back.ok[0] ||
        back.predictions[0] != reference[i]) {
      ++mismatches;
    }
  }
  return mismatches;
}

size_t ReplayIngest(const std::string& path, Tracer* tracer) {
  ScopedSpan root(tracer, "ingest", -1, 0);
  auto reader = Check(wmp::workloads::QueryLogReader::Open(path), "open log");
  std::vector<QueryRecord> records;
  for (;;) {
    size_t got = 0;
    {
      ScopedSpan s(tracer, "workloads.log_read", root.id(), 0);
      got = Check(reader.ReadChunk(4096, &records), "read log");
    }
    if (got == 0 || reader.exhausted()) break;
  }
  std::vector<std::string> explains;
  explains.reserve(records.size());
  for (const QueryRecord& r : records) {
    if (r.plan == nullptr) throw std::runtime_error("log record without plan");
    explains.push_back(wmp::plan::Explain(*r.plan));
  }
  constexpr size_t kBlock = 256;
  for (size_t begin = 0; begin < records.size(); begin += kBlock) {
    const size_t end = std::min(records.size(), begin + kBlock);
    {
      ScopedSpan s(tracer, "sql.parse", root.id(), begin);
      for (size_t i = begin; i < end; ++i) {
        Check(wmp::sql::Parse(records[i].sql_text), "sql parse");
      }
    }
    {
      ScopedSpan s(tracer, "plan.explain_parse", root.id(), begin);
      for (size_t i = begin; i < end; ++i) {
        Check(wmp::plan::ParseExplain(explains[i]), "explain parse");
      }
    }
    {
      ScopedSpan s(tracer, "plan.features", root.id(), begin);
      for (size_t i = begin; i < end; ++i) {
        if (wmp::plan::ExtractPlanFeatures(*records[i].plan).empty()) {
          throw std::runtime_error("empty plan features");
        }
      }
    }
  }
  return records.size();
}

}  // namespace perfbench
