#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

/// \file layers.h
/// The traced replay: spans recorded by the benchmark around its own calls
/// into each layer's public functions, in the order a server runs them for
/// a cold request:
///
///   request
///     net.encode_req    EncodeScoreRequest + pipelined framing
///     net.decode_req    DecodePipelinedPayload + DecodeScoreRequest
///     core.assign       LearnedWmpModel::AssignTemplateIds (featurize,
///                       scale, assign; no memo)
///     core.histogram    core::BuildHistogramMatrix
///     ml.predict        LearnedWmpModel::PredictFromHistogramMatrix
///     net.encode_resp   EncodeScoreResponse + pipelined framing
///     net.decode_resp   DecodePipelinedPayload + DecodeScoreResponse
///
/// and the log-ingest layers (workloads.log_read over QueryLogReader, and
/// its parts sql.parse, plan.explain_parse, plan.features).

#include <string>
#include <vector>

#include "core/learned_wmp.h"
#include "inputs.h"
#include "trace.h"

namespace perfbench {

/// Names of the chain's layer spans, in order.
const std::vector<std::string>& ChainLayers();

/// Replays each workload of `sample` through the chain under `tracer`
/// (request id = position in `sample`). Returns the number of replayed
/// predictions that are not bitwise `reference[i]`; adds the encoded
/// request payload bytes to `*request_bytes`.
size_t ReplayChain(const wmp::core::LearnedWmpModel& model,
                   const std::vector<const Workload*>& sample,
                   const std::vector<double>& reference, Tracer* tracer,
                   size_t* request_bytes);

/// Reads the text log at `path` through workloads::QueryLogReader in
/// chunks (one "workloads.log_read" span each), then re-runs its parts on
/// the records read: sql::Parse, plan::ParseExplain of the EXPLAIN text,
/// plan::ExtractPlanFeatures (one span per block of queries). Returns the
/// number of records read. Throws on a read or parse failure.
size_t ReplayIngest(const std::string& path, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
