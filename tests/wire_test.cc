// End-to-end tests of the out-of-process serving stack: net::ReactorServer +
// net::WireClient over a loopback Unix socket, the named ModelRegistry
// with rollback, ScoringService::PublishAll, and the post-publish
// template-cache warmer.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/featurizer.h"
#include "core/learned_wmp.h"
#include "ml/compiled_tree.h"
#include "engine/batch_scorer.h"
#include "engine/model_registry.h"
#include "engine/scoring_service.h"
#include "net/frame.h"
#include "net/reactor_server.h"
#include "net/socket.h"
#include "net/wire_client.h"
#include "util/io.h"
#include "util/strings.h"
#include "workloads/dataset.h"

namespace wmp {
namespace {

class WireTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workloads::DatasetOptions opt;
    opt.num_queries = 300;
    opt.seed = 71;
    auto d = workloads::BuildDataset(workloads::Benchmark::kTpcc, opt);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    dataset_ = new workloads::Dataset(std::move(*d));
    indices_ =
        new std::vector<uint32_t>(core::AllIndices(dataset_->records.size()));

    core::LearnedWmpOptions lopt;
    lopt.templates.num_templates = 8;
    lopt.regressor = ml::RegressorKind::kGbt;
    auto model = core::LearnedWmpModel::Train(dataset_->records, *indices_,
                                              *dataset_->generator, lopt);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    model_ = std::make_shared<const core::LearnedWmpModel>(
        std::move(*model));

    core::LearnedWmpOptions lopt2 = lopt;
    lopt2.regressor = ml::RegressorKind::kRidge;
    auto model2 = core::LearnedWmpModel::Train(dataset_->records, *indices_,
                                               *dataset_->generator, lopt2);
    ASSERT_TRUE(model2.ok()) << model2.status().ToString();
    model2_ = std::make_shared<const core::LearnedWmpModel>(
        std::move(*model2));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete indices_;
    dataset_ = nullptr;
    indices_ = nullptr;
    model_ = nullptr;
    model2_ = nullptr;
  }


  static std::string SocketAddress(const char* tag) {
    return StrFormat("unix:/tmp/wmp_wire_test.%d.%s.sock",
                     static_cast<int>(::getpid()), tag);
  }

  static workloads::Dataset* dataset_;
  static std::vector<uint32_t>* indices_;
  static std::shared_ptr<const core::LearnedWmpModel> model_;
  static std::shared_ptr<const core::LearnedWmpModel> model2_;
};

workloads::Dataset* WireTest::dataset_ = nullptr;
std::vector<uint32_t>* WireTest::indices_ = nullptr;
std::shared_ptr<const core::LearnedWmpModel> WireTest::model_;
std::shared_ptr<const core::LearnedWmpModel> WireTest::model2_;

// ---------- ModelRegistry ----------

TEST_F(WireTest, RegistryRecordRollbackAndKeepLast) {
  engine::ModelRegistry registry({.keep_last = 3});
  EXPECT_FALSE(registry.Current("m").ok());
  EXPECT_FALSE(registry.Rollback("m").ok());
  EXPECT_FALSE(registry.Record("m", nullptr).ok());
  EXPECT_FALSE(registry.Record("", model_).ok());

  auto e1 = registry.Record("m", model_);
  auto e2 = registry.Record("m", model2_);
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e2.ok());
  EXPECT_LT(*e1, *e2);
  EXPECT_EQ(registry.NumEpochs("m"), 2u);
  ASSERT_TRUE(registry.Current("m").ok());
  EXPECT_EQ(registry.Current("m")->model.get(), model2_.get());

  auto back = registry.Rollback("m");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->epoch, *e1);
  EXPECT_EQ(back->model.get(), model_.get());
  EXPECT_EQ(registry.Current("m")->model.get(), model_.get());
  // Only one epoch left now.
  EXPECT_FALSE(registry.Rollback("m").ok());

  // keep_last trims the oldest epochs.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(registry.Record("m", model2_).ok());
  }
  EXPECT_EQ(registry.NumEpochs("m"), 3u);

  // Names are independent histories.
  ASSERT_TRUE(registry.Record("other", model_).ok());
  EXPECT_EQ(registry.NumEpochs("other"), 1u);
  EXPECT_EQ(registry.Names().size(), 2u);
}

// ---------- PublishAll ----------

TEST_F(WireTest, PublishAllSwapsEveryShardBitwiseAndRecords) {
  engine::ScoringService service({model_, model_, model_});
  const auto batches =
      engine::MakeConsecutiveBatches(dataset_->records.size(), 10);
  engine::BatchScorer ref2(model2_);
  auto want = ref2.ScoreWorkloads(dataset_->records, batches);
  ASSERT_TRUE(want.ok());

  engine::ModelRegistry registry;
  auto epoch = service.PublishAll(model2_, &registry, "tenant");
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_GT(*epoch, 0u);
  EXPECT_EQ(registry.Current("tenant")->model.get(), model2_.get());

  // EVERY shard must now serve model2, bitwise.
  for (size_t shard = 0; shard < service.num_shards(); ++shard) {
    for (size_t w = 0; w < batches.size(); ++w) {
      auto got = service
                     .SubmitToShard(shard, dataset_->records,
                                    batches[w].query_indices)
                     .get();
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, want->predictions[w]) << "shard " << shard;
    }
  }
  const engine::ServiceStats st = service.stats();
  EXPECT_EQ(st.models_published, service.num_shards());
  service.Stop();
}

TEST_F(WireTest, PublishAllRejectsBadArtifactsUntouched) {
  engine::ScoringService service({model_, model_});
  EXPECT_TRUE(service.PublishAll(nullptr).status().IsInvalidArgument());
  auto untrained = std::make_shared<const core::LearnedWmpModel>();
  EXPECT_TRUE(
      service.PublishAll(untrained).status().IsFailedPrecondition());
  engine::ModelRegistry registry;
  EXPECT_TRUE(service.PublishAll(model2_, &registry, "")
                  .status()
                  .IsInvalidArgument());
  // Nothing was swapped or recorded by the failures.
  EXPECT_EQ(service.stats().models_published, 0u);
  EXPECT_TRUE(registry.Names().empty());
  for (size_t shard = 0; shard < service.num_shards(); ++shard) {
    EXPECT_EQ(service.model(shard).get(), model_.get());
  }
  service.Stop();
}

// ---------- Template-cache warming across swaps ----------

TEST_F(WireTest, PublishWarmsTemplateCacheAndKeepsPredictionsBitwise) {
  engine::ScoringServiceOptions sopt;
  sopt.cache_capacity = 0;  // isolate level 2
  engine::ScoringService service({model_}, sopt);
  service.SetWarmCorpus(&dataset_->records);
  const auto batches =
      engine::MakeConsecutiveBatches(dataset_->records.size(), 10);
  // Populate the template cache under model_'s epoch.
  for (const auto& b : batches) {
    ASSERT_TRUE(service.Submit("t", dataset_->records, b.query_indices)
                    .get()
                    .ok());
  }
  ASSERT_GT(service.stats().template_cache_misses, 0u);
  // Duplicate queries share one fingerprint (and one cache entry), so the
  // warmable working set is the DISTINCT fingerprint count.
  std::unordered_set<uint64_t> distinct;
  for (const auto& r : dataset_->records) {
    distinct.insert(r.content_fingerprint);
  }

  // Swap; the warmer re-assigns the resident keys under the new epoch.
  ASSERT_TRUE(service.PublishAll(model2_).ok());
  for (int spin = 0; spin < 500; ++spin) {
    if (service.stats().template_entries_warmed >= distinct.size()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const engine::ServiceStats warmed = service.stats();
  ASSERT_GE(warmed.template_entries_warmed, distinct.size());

  // Post-warm traffic: every member query hits the warmed cache (no new
  // misses beyond the pre-swap ones) and predictions are bitwise the new
  // model's own.
  engine::BatchScorer ref2(model2_);
  auto want = ref2.ScoreWorkloads(dataset_->records, batches);
  ASSERT_TRUE(want.ok());
  for (size_t w = 0; w < batches.size(); ++w) {
    auto got =
        service.Submit("t", dataset_->records, batches[w].query_indices)
            .get();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, want->predictions[w]);
  }
  const engine::ServiceStats after = service.stats();
  EXPECT_EQ(after.template_cache_misses, warmed.template_cache_misses)
      << "post-swap traffic should have been a full template-cache hit pass";
  EXPECT_GT(after.template_cache_hits, warmed.template_cache_hits);
  service.Stop();
}

TEST_F(WireTest, WarmingIsSkippedWithoutACorpus) {
  engine::ScoringService service({model_});
  const auto batches =
      engine::MakeConsecutiveBatches(dataset_->records.size(), 10);
  for (const auto& b : batches) {
    ASSERT_TRUE(service.Submit("t", dataset_->records, b.query_indices)
                    .get()
                    .ok());
  }
  ASSERT_TRUE(service.PublishAll(model2_).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(service.stats().template_entries_warmed, 0u);
  service.Stop();
}

// ---------- Wire server end to end ----------

TEST_F(WireTest, PingScoreAndStatsOverUnixSocket) {
  engine::ScoringService service({model_});
  engine::ModelRegistry registry;
  ASSERT_TRUE(registry.Record("default", model_).ok());
  net::ReactorServer server(&service, &registry, "default");
  const std::string address = SocketAddress("basic");
  ASSERT_TRUE(server.Listen(address).ok());
  ASSERT_TRUE(server.Start().ok());

  net::WireClient client(address);
  ASSERT_TRUE(client.Ping().ok());

  const auto batches =
      engine::MakeConsecutiveBatches(dataset_->records.size(), 10);
  engine::BatchScorer reference(model_);
  auto want = reference.ScoreWorkloads(dataset_->records, batches);
  ASSERT_TRUE(want.ok());
  auto got = client.ScoreWorkloads("tenant", dataset_->records, batches);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->size(), batches.size());
  for (size_t w = 0; w < batches.size(); ++w) {
    ASSERT_TRUE((*got)[w].ok());
    EXPECT_EQ(*(*got)[w], want->predictions[w])
        << "remote prediction must be bitwise the in-process one";
  }

  // Scoring the same workloads again over the wire hits the server-side
  // histogram cache: the fingerprints survived the hop.
  auto again = client.ScoreWorkloads("tenant", dataset_->records, batches);
  ASSERT_TRUE(again.ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->service.cache_hits, 0u);
  EXPECT_EQ(stats->service.failed, 0u);
  EXPECT_GE(stats->server.frames_served, 3u);
  EXPECT_EQ(stats->server.accept_failures, 0u);

  // A publish with an EMPTY name records under the server's default
  // registry name.
  ASSERT_EQ(registry.NumEpochs("default"), 1u);
  auto epoch = client.Publish("", *model2_);
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(registry.NumEpochs("default"), 2u);
  server.Shutdown();
  service.Stop();
}

TEST_F(WireTest, ConcurrentClientsAllBitwise) {
  engine::ScoringService service({model_, model_});
  net::ReactorServer server(&service, nullptr, "default");
  const std::string address = SocketAddress("conc");
  ASSERT_TRUE(server.Listen(address).ok());
  ASSERT_TRUE(server.Start().ok());

  const auto batches =
      engine::MakeConsecutiveBatches(dataset_->records.size(), 10);
  engine::BatchScorer reference(model_);
  auto want = reference.ScoreWorkloads(dataset_->records, batches);
  ASSERT_TRUE(want.ok());

  constexpr int kClients = 4;
  constexpr int kPasses = 3;
  std::atomic<uint64_t> mismatches{0}, errors{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      net::WireClient client(address);
      const std::string tenant = StrFormat("client-%d", c);
      for (int pass = 0; pass < kPasses; ++pass) {
        auto got = client.ScoreWorkloads(tenant, dataset_->records, batches);
        if (!got.ok()) {
          errors.fetch_add(batches.size(), std::memory_order_relaxed);
          continue;
        }
        for (size_t w = 0; w < batches.size(); ++w) {
          if (!(*got)[w].ok()) {
            errors.fetch_add(1, std::memory_order_relaxed);
          } else if (*(*got)[w] != want->predictions[w]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  server.Shutdown();
  service.Stop();
}

TEST_F(WireTest, PublishUnderTrafficThenRollbackRestoresPriorEpochScores) {
  engine::ScoringService service({model_, model_});
  service.SetWarmCorpus(&dataset_->records);
  engine::ModelRegistry registry;
  ASSERT_TRUE(registry.Record("default", model_).ok());
  net::ReactorServer server(&service, &registry, "default");
  const std::string address = SocketAddress("pub");
  ASSERT_TRUE(server.Listen(address).ok());
  ASSERT_TRUE(server.Start().ok());

  const auto batches =
      engine::MakeConsecutiveBatches(dataset_->records.size(), 10);
  engine::BatchScorer ref1(model_), ref2(model2_);
  auto want1 = ref1.ScoreWorkloads(dataset_->records, batches);
  auto want2 = ref2.ScoreWorkloads(dataset_->records, batches);
  ASSERT_TRUE(want1.ok());
  ASSERT_TRUE(want2.ok());

  // Live traffic across the swap: requests may score on either model but
  // must never fail.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> traffic_errors{0};
  std::thread traffic([&] {
    net::WireClient client(address);
    while (!stop.load(std::memory_order_relaxed)) {
      auto got =
          client.ScoreWorkloads("traffic", dataset_->records, batches);
      if (!got.ok()) {
        traffic_errors.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      for (const auto& outcome : *got) {
        if (!outcome.ok()) {
          traffic_errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });

  net::WireClient control(address);
  auto epoch2 = control.Publish("default", *model2_);
  ASSERT_TRUE(epoch2.ok()) << epoch2.status().ToString();
  auto after_publish =
      control.ScoreWorkloads("control", dataset_->records, batches);
  ASSERT_TRUE(after_publish.ok());
  for (size_t w = 0; w < batches.size(); ++w) {
    ASSERT_TRUE((*after_publish)[w].ok());
    EXPECT_EQ(*(*after_publish)[w], want2->predictions[w]);
  }

  auto rollback_epoch = control.Rollback("default");
  ASSERT_TRUE(rollback_epoch.ok()) << rollback_epoch.status().ToString();
  EXPECT_LT(*rollback_epoch, *epoch2);
  auto after_rollback =
      control.ScoreWorkloads("control", dataset_->records, batches);
  ASSERT_TRUE(after_rollback.ok());
  for (size_t w = 0; w < batches.size(); ++w) {
    ASSERT_TRUE((*after_rollback)[w].ok());
    EXPECT_EQ(*(*after_rollback)[w], want1->predictions[w])
        << "rollback must restore the previous epoch's scores exactly";
  }
  // A second rollback has no earlier epoch and must fail cleanly — and
  // leave the serving model untouched.
  EXPECT_FALSE(control.Rollback("default").ok());
  EXPECT_FALSE(control.Rollback("no-such-model").ok());

  stop.store(true, std::memory_order_relaxed);
  traffic.join();
  EXPECT_EQ(traffic_errors.load(), 0u);
  server.Shutdown();
  service.Stop();
}

TEST_F(WireTest, MalformedFramesGetCleanErrorsAndServerSurvives) {
  engine::ScoringService service({model_});
  net::ReactorServer server(&service, nullptr, "default");
  const std::string address = SocketAddress("bad");
  ASSERT_TRUE(server.Listen(address).ok());
  ASSERT_TRUE(server.Start().ok());

  {
    // Garbage bytes: the server answers one error frame, then closes.
    auto fd = net::ConnectTo(address);
    ASSERT_TRUE(fd.ok());
    const char junk[] = "GET / HTTP/1.1\r\n\r\n";
    ASSERT_TRUE(net::WriteFrame(*fd, net::FrameType::kPing, "").ok());
    auto pong = net::ReadFrame(*fd);
    ASSERT_TRUE(pong.ok());
    EXPECT_EQ(pong->type, net::FrameType::kPong);
    ASSERT_EQ(::write(*fd, junk, sizeof(junk) - 1),
              static_cast<ssize_t>(sizeof(junk) - 1));
    auto error = net::ReadFrame(*fd);
    if (error.ok()) {
      EXPECT_EQ(error->type, net::FrameType::kError);
    }  // (or the server already hung up — both are clean outcomes)
    net::CloseConnection(*fd);
  }
  {
    // A well-framed but undecodable score payload: error frame, and the
    // connection stays usable.
    net::WireClient client(address);
    auto fd = net::ConnectTo(address);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(
        net::WriteFrame(*fd, net::FrameType::kScoreRequest, "nonsense").ok());
    auto error = net::ReadFrame(*fd);
    ASSERT_TRUE(error.ok());
    EXPECT_EQ(error->type, net::FrameType::kError);
    ASSERT_TRUE(net::WriteFrame(*fd, net::FrameType::kPing, "p").ok());
    auto pong = net::ReadFrame(*fd);
    ASSERT_TRUE(pong.ok());
    EXPECT_EQ(pong->type, net::FrameType::kPong);
    net::CloseConnection(*fd);
  }
  {
    // A response frame type sent as a request is rejected, not executed.
    auto fd = net::ConnectTo(address);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(
        net::WriteFrame(*fd, net::FrameType::kScoreResponse, "").ok());
    auto error = net::ReadFrame(*fd);
    ASSERT_TRUE(error.ok());
    EXPECT_EQ(error->type, net::FrameType::kError);
    net::CloseConnection(*fd);
  }
  // The server is still healthy for well-behaved clients.
  net::WireClient client(address);
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_GT(server.stats().wire.protocol_errors, 0u);
  server.Shutdown();
  service.Stop();
}

TEST_F(WireTest, PublishRejectsCorruptArtifactAndKeepsServing) {
  engine::ScoringService service({model_});
  engine::ModelRegistry registry;
  ASSERT_TRUE(registry.Record("default", model_).ok());
  net::ReactorServer server(&service, &registry, "default");
  const std::string address = SocketAddress("corrupt");
  ASSERT_TRUE(server.Listen(address).ok());
  ASSERT_TRUE(server.Start().ok());

  net::WireClient client(address);
  auto fd = net::ConnectTo(address);
  ASSERT_TRUE(fd.ok());
  net::PublishRequest request;
  request.model_name = "default";
  request.model_bytes = "this is not a model artifact";
  ASSERT_TRUE(net::WriteFrame(*fd, net::FrameType::kPublishRequest,
                              net::EncodePublishRequest(request))
                  .ok());
  auto error = net::ReadFrame(*fd);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->type, net::FrameType::kError);
  net::CloseConnection(*fd);

  // Nothing swapped: still model_ bitwise, and the registry still has
  // exactly one epoch.
  EXPECT_EQ(registry.NumEpochs("default"), 1u);
  const auto batches =
      engine::MakeConsecutiveBatches(dataset_->records.size(), 10);
  engine::BatchScorer reference(model_);
  auto want = reference.ScoreWorkloads(dataset_->records, batches);
  ASSERT_TRUE(want.ok());
  auto got = client.ScoreWorkloads("t", dataset_->records, batches);
  ASSERT_TRUE(got.ok());
  for (size_t w = 0; w < batches.size(); ++w) {
    ASSERT_TRUE((*got)[w].ok());
    EXPECT_EQ(*(*got)[w], want->predictions[w]);
  }
  server.Shutdown();
  service.Stop();
}

TEST_F(WireTest, PublishChecksumCatchesWireCorruptionBeforeAnyEpoch) {
  // A VALID artifact corrupted between encode and decode — the scenario
  // the publish checksum exists for. A single flipped bit inside the
  // model bytes must be rejected at DecodePublishRequest (the error
  // names the checksum), leaving the registry epoch count untouched —
  // the artifact never even reaches Deserialize.
  engine::ScoringService service({model_});
  engine::ModelRegistry registry;
  ASSERT_TRUE(registry.Record("default", model_).ok());
  net::ReactorServer server(&service, &registry, "default");
  const std::string address = SocketAddress("cksum");
  ASSERT_TRUE(server.Listen(address).ok());
  ASSERT_TRUE(server.Start().ok());

  BinaryWriter artifact;
  ASSERT_TRUE(model2_->Serialize(&artifact).ok());
  net::PublishRequest request;
  request.model_name = "default";
  request.model_bytes = artifact.buffer();
  std::string payload = net::EncodePublishRequest(request);
  // Payload layout: u32 name len + name + u32 bytes len + bytes + u64
  // hash. Flip one bit comfortably inside the model bytes.
  const size_t byte_in_model =
      4 + request.model_name.size() + 4 + request.model_bytes.size() / 2;
  ASSERT_LT(byte_in_model, payload.size() - 8);
  payload[byte_in_model] ^= 0x01;

  auto fd = net::ConnectTo(address);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(
      net::WriteFrame(*fd, net::FrameType::kPublishRequest, payload).ok());
  auto error = net::ReadFrame(*fd);
  ASSERT_TRUE(error.ok());
  ASSERT_EQ(error->type, net::FrameType::kError);
  const net::ErrorBody body = net::DecodeErrorBody(error->payload);
  EXPECT_NE(body.message.find("checksum"), std::string::npos)
      << "rejection must come from the checksum, got: " << body.message;
  net::CloseConnection(*fd);

  EXPECT_EQ(registry.NumEpochs("default"), 1u)
      << "a corrupt publish must not create a registry epoch";
  // An uncorrupted publish of the same artifact still goes through.
  net::WireClient client(address);
  auto epoch = client.Publish("default", *model2_);
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(registry.NumEpochs("default"), 2u);
  server.Shutdown();
  service.Stop();
}

TEST_F(WireTest, PublishedArtifactServesThroughCompiledEnsemble) {
  // The publish artifact ships the compact compiled codec; the server-side
  // deserialize must rebuild the compiled ensemble (model_ is GBT — a tree
  // family), keep compiled routing on, and serve scores bitwise equal to
  // the training-side model's own.
  engine::ScoringService service({model2_});
  engine::ModelRegistry registry;
  ASSERT_TRUE(registry.Record("default", model2_).ok());
  net::ReactorServer server(&service, &registry, "default");
  const std::string address = SocketAddress("compiled");
  ASSERT_TRUE(server.Listen(address).ok());
  ASSERT_TRUE(server.Start().ok());

  net::WireClient client(address);
  auto epoch = client.Publish("default", *model_);
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();

  auto current = registry.Current("default");
  ASSERT_TRUE(current.ok());
  const core::LearnedWmpModel* received = current->model.get();
  ASSERT_NE(received, model_.get()) << "the artifact must have crossed the wire";
  ASSERT_NE(received->compiled(), nullptr)
      << "deserialize must recompile the tree-family regressor";
  EXPECT_TRUE(received->compiled_inference());
  EXPECT_EQ(received->compiled()->num_trees(), model_->compiled()->num_trees());
  EXPECT_EQ(received->compiled()->num_nodes(), model_->compiled()->num_nodes());

  const auto batches =
      engine::MakeConsecutiveBatches(dataset_->records.size(), 10);
  engine::BatchScorer reference(model_);
  auto want = reference.ScoreWorkloads(dataset_->records, batches);
  ASSERT_TRUE(want.ok());
  auto got = client.ScoreWorkloads("tenant", dataset_->records, batches);
  ASSERT_TRUE(got.ok());
  for (size_t w = 0; w < batches.size(); ++w) {
    ASSERT_TRUE((*got)[w].ok());
    EXPECT_EQ(*(*got)[w], want->predictions[w])
        << "published compiled artifact must score bitwise the original";
  }
  server.Shutdown();
  service.Stop();
}

TEST_F(WireTest, RejectedRollbackKeepsTheConnection) {
  engine::ScoringService service({model_});
  net::ReactorServer server(&service, nullptr, "default");
  const std::string address = SocketAddress("norollback");
  ASSERT_TRUE(server.Listen(address).ok());
  ASSERT_TRUE(server.Start().ok());
  net::WireClient client(address);
  ASSERT_TRUE(client.Ping().ok());
  // No registry: the server answers kError, which fails this call only.
  auto rolled = client.Rollback("default");
  ASSERT_FALSE(rolled.ok());
  EXPECT_TRUE(rolled.status().IsFailedPrecondition())
      << rolled.status().ToString();
  EXPECT_TRUE(client.connected());
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_EQ(server.stats().wire.connections_accepted, 1u)
      << "the ping after the rejection must reuse the connection";
  server.Shutdown();
  service.Stop();
}

TEST_F(WireTest, ClientReconnectsAfterServerRestart) {
  engine::ScoringService service({model_});
  const std::string address = SocketAddress("restart");
  auto server = std::make_unique<net::ReactorServer>(&service, nullptr, "d");
  ASSERT_TRUE(server->Listen(address).ok());
  ASSERT_TRUE(server->Start().ok());
  net::WireClient client(address);
  ASSERT_TRUE(client.Ping().ok());
  server->Shutdown();
  server = std::make_unique<net::ReactorServer>(&service, nullptr, "d");
  ASSERT_TRUE(server->Listen(address).ok());
  ASSERT_TRUE(server->Start().ok());
  // The pooled connection died with the old server; the next call must
  // transparently reconnect.
  EXPECT_TRUE(client.Ping().ok());
  server->Shutdown();
  service.Stop();
}

}  // namespace
}  // namespace wmp
