// Chaos tests: the deterministic net::FaultInjector itself, the hardened
// clients under scripted faults (idempotent retries, the publish
// never-resend rule, request and write deadlines, per-request pipelined
// deadlines), the reactor under concurrent hostile connections, and the fleet
// router's commit-failure compensation — the scenario where a commit
// response is lost AFTER the node applied it, which the router must
// detect and roll back so the fleet never serves mixed epochs.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/featurizer.h"
#include "core/learned_wmp.h"
#include "engine/batch_scorer.h"
#include "engine/model_registry.h"
#include "engine/scoring_service.h"
#include "net/async_client.h"
#include "net/fault_inject.h"
#include "net/fleet.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/reactor_server.h"
#include "net/socket.h"
#include "net/wire_client.h"
#include "util/io.h"
#include "util/strings.h"
#include "workloads/dataset.h"

namespace wmp {
namespace {

class ChaosTest : public ::testing::Test {
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
    return StrFormat("unix:/tmp/wmp_chaos_test.%d.%s.sock",
                     static_cast<int>(::getpid()), tag);
  }

  static std::vector<double> Reference(
      const std::shared_ptr<const core::LearnedWmpModel>& model,
      const std::vector<core::WorkloadBatch>& batches) {
    engine::BatchScorer scorer(model);
    auto want = scorer.ScoreWorkloads(dataset_->records, batches);
    EXPECT_TRUE(want.ok());
    return want->predictions;
  }

  static void ExpectCallBitwise(
      const Result<std::vector<Result<double>>>& got,
      const std::vector<double>& want) {
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->size(), want.size());
    for (size_t w = 0; w < want.size(); ++w) {
      ASSERT_TRUE((*got)[w].ok()) << (*got)[w].status().ToString();
      EXPECT_EQ(*(*got)[w], want[w]) << "w=" << w;
    }
  }

  static workloads::Dataset* dataset_;
  static std::vector<uint32_t>* indices_;
  static std::shared_ptr<const core::LearnedWmpModel> model_;
  static std::shared_ptr<const core::LearnedWmpModel> model2_;
};

workloads::Dataset* ChaosTest::dataset_ = nullptr;
std::vector<uint32_t>* ChaosTest::indices_ = nullptr;
std::shared_ptr<const core::LearnedWmpModel> ChaosTest::model_;
std::shared_ptr<const core::LearnedWmpModel> ChaosTest::model2_;

// ---------- FaultInjector determinism ----------

TEST(FaultInjectorTest, SameSeedReplaysTheExactFaultSequence) {
  // Two injectors with the same plan, driven in lockstep over separate
  // socketpairs, must agree op-for-op on every decision — the property
  // that makes a chaos test a test instead of a dice roll.
  net::FaultPlan plan;
  plan.seed = 97;
  plan.delay_prob = 0.2;
  plan.drop_prob = 0.2;
  plan.flip_prob = 0.1;
  plan.delay_ms = 1;
  net::FaultInjector a(plan);
  net::FaultInjector b(plan);

  int pair_a[2] = {-1, -1}, pair_b[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair_a), 0);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair_b), 0);
  const char bytes[16] = "fifteen + zero.";
  for (int op = 0; op < 100; ++op) {
    Status sa = a.InjectedWrite(pair_a[0], bytes, sizeof(bytes));
    Status sb = b.InjectedWrite(pair_b[0], bytes, sizeof(bytes));
    ASSERT_EQ(sa.code(), sb.code()) << "op " << op;
    const net::FaultStats fa = a.stats();
    const net::FaultStats fb = b.stats();
    ASSERT_EQ(fa.delays, fb.delays) << "op " << op;
    ASSERT_EQ(fa.drops, fb.drops) << "op " << op;
    ASSERT_EQ(fa.bitflips, fb.bitflips) << "op " << op;
  }
  EXPECT_EQ(a.stats().ops, 100u);
  EXPECT_GT(a.stats().faults(), 0u) << "the mix should have fired by now";
  for (int fd : {pair_a[0], pair_a[1], pair_b[0], pair_b[1]}) ::close(fd);
}

TEST(FaultInjectorTest, ScriptedFaultsFireAtExactOpIndexesOnTargetedFds) {
  net::FaultPlan plan;
  plan.script.push_back({.op_index = 1, .kind = net::FaultKind::kDrop});
  plan.script.push_back({.op_index = 3, .kind = net::FaultKind::kReset});
  net::FaultInjector chaos(plan);

  int pair[2] = {-1, -1};
  int bystander[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, bystander), 0);
  chaos.TargetFd(pair[0]);

  const char payload[4] = {'w', 'm', 'p', '!'};
  // Untargeted fds do not advance the op counter or suffer faults.
  ASSERT_TRUE(chaos.InjectedWrite(bystander[0], payload, 4).ok());
  EXPECT_EQ(chaos.stats().ops, 0u);

  ASSERT_TRUE(chaos.InjectedWrite(pair[0], payload, 4).ok());  // op 0
  ASSERT_TRUE(chaos.InjectedWrite(pair[0], payload, 4).ok());  // op 1: drop
  EXPECT_EQ(chaos.stats().drops, 1u);
  ASSERT_TRUE(chaos.InjectedWrite(pair[0], payload, 4).ok());  // op 2
  Status reset = chaos.InjectedWrite(pair[0], payload, 4);     // op 3: reset
  EXPECT_FALSE(reset.ok());
  EXPECT_EQ(chaos.stats().resets, 1u);
  EXPECT_EQ(chaos.stats().ops, 4u);

  // The peer received ops 0 and 2 only — the drop reported success to the
  // writer while sending nothing (the lost-response scenario).
  char got[64];
  ssize_t n = net::ReadSome(pair[1], got, sizeof(got));
  EXPECT_EQ(n, 8);
  for (int fd : {pair[0], pair[1], bystander[0], bystander[1]}) ::close(fd);
}

// ---------- WireClient under faults ----------

TEST_F(ChaosTest, WireClientRetriesIdempotentCallsAcrossResets) {
  engine::ScoringService service({model_});
  net::ReactorServer server(&service, nullptr, "default");
  const std::string address = SocketAddress("retry");
  ASSERT_TRUE(server.Listen(address).ok());
  ASSERT_TRUE(server.Start().ok());
  const auto batches =
      engine::MakeConsecutiveBatches(dataset_->records.size(), 10);
  const std::vector<double> want = Reference(model_, batches);

  net::WireClientOptions copts;
  copts.max_attempts = 3;
  copts.backoff_base_ms = 1;
  copts.backoff_cap_ms = 2;
  copts.request_timeout_ms = 2000;
  net::WireClient client(address, copts);
  ASSERT_TRUE(client.Connect().ok());

  // The reactor server does its own non-blocking I/O, so with no targeted
  // fds only this client's frame ops count — op indexes are exact (a read
  // counts when its response header arrives).
  // Call 1: write 0, read 1. Call 2: write 2 (reset -> reconnect+resend),
  // write 3, read 4. Call 3: write 5, read 6 (reset; a failed response
  // READ of an idempotent call may resend), write 7, read 8.
  net::FaultPlan plan;
  plan.script.push_back({.op_index = 2, .kind = net::FaultKind::kReset});
  plan.script.push_back({.op_index = 6, .kind = net::FaultKind::kReset});
  net::FaultInjector chaos(plan);
  chaos.Arm();

  for (int call = 0; call < 3; ++call) {
    ExpectCallBitwise(
        client.ScoreWorkloads("t", dataset_->records, batches), want);
  }
  chaos.Disarm();
  EXPECT_EQ(chaos.stats().resets, 2u);
  EXPECT_GE(chaos.stats().ops, 9u);
  server.Shutdown();
  service.Stop();
}

TEST_F(ChaosTest, PublishAppliesOnceAndNeverResendsAcrossALostResponse) {
  engine::ScoringService service({model_});
  engine::ModelRegistry registry;
  ASSERT_TRUE(registry.Record("default", model_).ok());
  net::ReactorServer server(&service, &registry, "default");
  const std::string address = SocketAddress("pubonce");
  ASSERT_TRUE(server.Listen(address).ok());
  ASSERT_TRUE(server.Start().ok());
  const auto batches =
      engine::MakeConsecutiveBatches(dataset_->records.size(), 10);
  const std::vector<double> want2 = Reference(model2_, batches);

  net::WireClientOptions copts;
  copts.max_attempts = 3;  // retries exist — and must NOT apply here
  copts.backoff_base_ms = 1;
  net::WireClient client(address, copts);
  ASSERT_TRUE(client.Connect().ok());

  // Kill the publish RESPONSE read (op 1; the write is op 0). The server
  // has already applied the publish; a resend would re-publish and bump
  // the epoch twice. The client must surface the error instead.
  net::FaultPlan plan;
  plan.script.push_back({.op_index = 1, .kind = net::FaultKind::kReset});
  net::FaultInjector chaos(plan);
  chaos.Arm();
  auto published = client.Publish("default", *model2_);
  chaos.Disarm();
  ASSERT_FALSE(published.ok()) << "the response was provably lost";

  // Exactly one application: epoch went 1 -> 2, not 3, and the node
  // serves the new model bitwise. The reactor applies the publish on its
  // event loop after the client's read already failed, so poll for the
  // swap before asserting it happened exactly once.
  Result<net::HealthResponse> health = Status::Internal("not yet probed");
  for (int spin = 0; spin < 500; ++spin) {
    health = client.Health(77);
    ASSERT_TRUE(health.ok()) << health.status().ToString();
    if (health->registry_epoch != 1u) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(health->registry_epoch, 2u)
      << "publish must have applied exactly once";
  ExpectCallBitwise(client.ScoreWorkloads("t", dataset_->records, batches),
                    want2);
  server.Shutdown();
  service.Stop();
}

TEST_F(ChaosTest, WireClientReadDeadlineFailsFastAgainstAStalledServer) {
  // A hand-rolled server that accepts, swallows the request, and answers
  // nothing: without a request deadline the client would park forever.
  net::Listener listener;
  const std::string address = SocketAddress("stall");
  ASSERT_TRUE(listener.Listen(address).ok());
  std::thread fake([&] {
    auto fd = listener.Accept();
    ASSERT_TRUE(fd.ok());
    auto request = net::ReadFrame(*fd);
    ASSERT_TRUE(request.ok());
    // Hold the response until the client gives up and closes.
    (void)net::ReadFrame(*fd);
    net::CloseConnection(*fd);
  });

  net::WireClientOptions copts;
  copts.request_timeout_ms = 100;
  copts.max_attempts = 1;
  net::WireClient client(address, copts);
  const auto started = std::chrono::steady_clock::now();
  Status outcome = client.Ping();
  const auto waited = std::chrono::steady_clock::now() - started;
  EXPECT_TRUE(outcome.IsDeadlineExceeded()) << outcome.ToString();
  EXPECT_FALSE(client.connected())
      << "a deadline mid-frame must drop the connection";
  EXPECT_LT(waited, std::chrono::seconds(2));
  fake.join();
}

TEST_F(ChaosTest, WriteDeadlineFailsFastAgainstAPeerThatStoppedReading) {
  // A hand-rolled server that accepts and never reads: once the socket
  // buffers fill, a blocking write would wait forever without a send
  // deadline.
  net::Listener listener;
  const std::string address = SocketAddress("noread");
  ASSERT_TRUE(listener.Listen(address).ok());
  std::promise<void> done;
  std::thread fake([&] {
    auto fd = listener.Accept();
    ASSERT_TRUE(fd.ok());
    done.get_future().wait();
    net::CloseConnection(*fd);
  });

  std::vector<workloads::QueryRecord> records(1);
  records[0].sql_text.assign(2u << 20, 'x');  // a 2 MB score request
  std::vector<core::WorkloadBatch> batches(1);
  batches[0].query_indices = {0};

  net::AsyncWireClientOptions aopts;
  aopts.request_timeout_ms = 150;
  auto client = net::AsyncWireClient::Connect(address, aopts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const auto started = std::chrono::steady_clock::now();
  auto submitted = (*client)->SubmitScore("t", records, batches);
  const auto waited = std::chrono::steady_clock::now() - started;
  ASSERT_FALSE(submitted.ok());
  EXPECT_TRUE(submitted.status().IsDeadlineExceeded())
      << submitted.status().ToString();
  EXPECT_LT(waited, std::chrono::seconds(2));
  EXPECT_FALSE((*client)->alive()) << "a timed-out write kills the stream";
  (*client)->Close();
  done.set_value();
  fake.join();
}

// ---------- AsyncWireClient per-request deadlines ----------

TEST_F(ChaosTest, PipelinedDeadlineFailsOnlyTheStalledFutureStreamIntact) {
  // The server answers requests 1 and 3 immediately, withholds 2 past its
  // deadline, then delivers it LATE. Exactly future 2 must fail (with
  // kDeadlineExceeded), the others succeed, the late response is dropped
  // quietly, and the stream keeps serving new requests.
  net::Listener listener;
  const std::string address = SocketAddress("perreq");
  ASSERT_TRUE(listener.Listen(address).ok());
  std::atomic<bool> late_sent{false};
  std::thread fake([&] {
    auto fd = listener.Accept();
    ASSERT_TRUE(fd.ok());
    auto answer = [&](uint32_t corr) {
      net::ScoreResponse response;
      response.ok = {1};
      response.predictions = {static_cast<double>(corr)};
      response.errors = {""};
      ASSERT_TRUE(net::WriteFrame(
                      *fd, net::FrameType::kScoreResponsePipelined,
                      net::EncodePipelinedPayload(
                          corr, net::EncodeScoreResponse(response)))
                      .ok());
    };
    std::vector<uint32_t> corr_ids;
    for (int i = 0; i < 3; ++i) {
      auto frame = net::ReadFrame(*fd);
      ASSERT_TRUE(frame.ok());
      std::string body;
      auto corr = net::DecodePipelinedPayload(frame->payload, &body);
      ASSERT_TRUE(corr.ok());
      corr_ids.push_back(*corr);
    }
    answer(corr_ids[0]);
    answer(corr_ids[2]);
    // Let request 2's deadline (150 ms) expire, then answer it anyway.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    answer(corr_ids[1]);
    late_sent = true;
    // The stream must still work: serve one more request.
    auto frame = net::ReadFrame(*fd);
    ASSERT_TRUE(frame.ok());
    std::string body;
    auto corr = net::DecodePipelinedPayload(frame->payload, &body);
    ASSERT_TRUE(corr.ok());
    answer(*corr);
    (void)net::ReadFrame(*fd);  // returns when the client closes
    net::CloseConnection(*fd);
  });

  net::AsyncWireClientOptions aopts;
  aopts.request_timeout_ms = 150;
  auto client = net::AsyncWireClient::Connect(address, aopts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const auto batches = engine::MakeConsecutiveBatches(
      dataset_->records.size(), dataset_->records.size());
  std::vector<std::future<Result<net::ScoreResponse>>> futures;
  for (int i = 0; i < 3; ++i) {
    auto future = (*client)->SubmitScore("t", dataset_->records, batches);
    ASSERT_TRUE(future.ok()) << future.status().ToString();
    futures.push_back(std::move(*future));
  }
  auto first = futures[0].get();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->predictions[0], 1.0);
  auto third = futures[2].get();
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(third->predictions[0], 3.0);
  auto second = futures[1].get();
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsDeadlineExceeded())
      << second.status().ToString();
  EXPECT_TRUE((*client)->alive())
      << "one expired request must not kill the stream";

  // Wait for the late response for the expired id to arrive; it must be
  // discarded instead of being read as a desynchronized stream.
  while (!late_sent) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  auto fourth = (*client)->SubmitScore("t", dataset_->records, batches);
  ASSERT_TRUE(fourth.ok()) << fourth.status().ToString();
  auto outcome = fourth->get();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->predictions[0], 4.0);
  EXPECT_TRUE((*client)->alive());
  (*client)->Close();
  fake.join();
}

// ---------- Reactor under concurrent hostile connections ----------

TEST_F(ChaosTest, ReactorStaysBitwiseCorrectUnderConnectionChaos) {
  engine::ScoringService service({model_});
  net::ReactorServer server(&service, nullptr, "default");
  const std::string address = SocketAddress("hostile");
  ASSERT_TRUE(server.Listen(address).ok());
  ASSERT_TRUE(server.Start().ok());
  const auto batches =
      engine::MakeConsecutiveBatches(dataset_->records.size(), 10);
  const std::vector<double> want = Reference(model_, batches);

  // Three attackers in parallel with the clean client: a slow-loris that
  // dribbles a partial header and stalls, a truncator that dies inside a
  // declared payload, and a garbage blaster with a bad magic.
  std::atomic<bool> stop{false};
  auto slow_loris = [&] {
    while (!stop) {
      auto fd = net::ConnectTo(address);
      if (!fd.ok()) continue;
      const char partial[3] = {'W', 'M', 'F'};
      net::SendSome(*fd, partial, sizeof(partial));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      net::CloseConnection(*fd);
    }
  };
  auto truncator = [&] {
    while (!stop) {
      auto fd = net::ConnectTo(address);
      if (!fd.ok()) continue;
      // Valid header promising 4096 payload bytes; deliver 16 and die.
      const std::string wire = net::EncodeFrame(
          net::FrameType::kScoreRequest, std::string(4096, 'x'));
      net::SendSome(*fd, wire.data(), net::kFrameHeaderBytes + 16);
      net::CloseConnection(*fd);
    }
  };
  auto garbage = [&] {
    while (!stop) {
      auto fd = net::ConnectTo(address);
      if (!fd.ok()) continue;
      const char junk[] = "\xde\xad\xbe\xef not a frame at all";
      net::SendSome(*fd, junk, sizeof(junk));
      net::CloseConnection(*fd);
    }
  };
  std::thread attackers[3] = {std::thread(slow_loris), std::thread(truncator),
                              std::thread(garbage)};

  auto client = net::AsyncWireClient::Connect(address);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  std::vector<std::future<Result<net::ScoreResponse>>> futures;
  for (const core::WorkloadBatch& batch : batches) {
    auto future = (*client)->SubmitScore(
        "t", dataset_->records, std::vector<core::WorkloadBatch>{batch});
    ASSERT_TRUE(future.ok()) << future.status().ToString();
    futures.push_back(std::move(*future));
  }
  for (size_t w = 0; w < futures.size(); ++w) {
    auto outcome = futures[w].get();
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_EQ(outcome->size(), 1u);
    ASSERT_TRUE(outcome->ok[0]);
    EXPECT_EQ(outcome->predictions[0], want[w]) << "w=" << w;
  }
  stop = true;
  for (auto& attacker : attackers) attacker.join();
  (*client)->Close();

  // The server survived all of it and still answers a fresh connection.
  net::WireClient prober(address);
  EXPECT_TRUE(prober.Ping().ok());
  server.Shutdown();
  service.Stop();
}

// ---------- Fleet commit-failure compensation ----------

TEST_F(ChaosTest, CommitResponseLossTriggersCompensationBackToPriorEpoch) {
  // Worst-case rollout failure: node 1 APPLIES the commit but the
  // response is lost. The router must notice the landed commit (consumed
  // ticket + moved epoch), roll node 0 and node 1 back, abort node 2, and
  // leave the whole fleet on the prior epoch — never mixed.
  struct TestNode {
    engine::ScoringService service;
    engine::ModelRegistry registry;
    net::ReactorServer server;
    explicit TestNode(std::shared_ptr<const core::LearnedWmpModel> model)
        : service({std::move(model)}),
          server(&service, &registry, "default") {}
  };
  std::vector<std::unique_ptr<TestNode>> fleet;
  std::vector<std::string> addresses;
  for (int i = 0; i < 3; ++i) {
    auto node = std::make_unique<TestNode>(model_);
    ASSERT_TRUE(node->registry.Record("default", model_).ok());
    const std::string address =
        SocketAddress(StrFormat("commitloss%d", i).c_str());
    ASSERT_TRUE(node->server.Listen(address).ok());
    ASSERT_TRUE(node->server.Start().ok());
    addresses.push_back(address);
    fleet.push_back(std::move(node));
  }
  const auto batches =
      engine::MakeConsecutiveBatches(dataset_->records.size(), 10);
  const std::vector<double> want = Reference(model_, batches);

  net::FleetRouterOptions ropts;
  ropts.probe_interval_ms = 0;  // op counting needs no concurrent probes
  ropts.seed = 7;
  ropts.backoff_base_ms = 1;
  net::FleetRouter router(addresses, ropts);
  ASSERT_TRUE(router.Start().ok());  // probes run before the injector arms

  // Reactor nodes do no blocking frame ops, so the router's node
  // connections are the only ops counted. PublishAll: stage = ops 0..5
  // (write/read per node), commit node 0 = ops 6,7, commit node 1 =
  // write 8, read 9 — reset op 9, the commit response read.
  net::FaultPlan plan;
  plan.script.push_back({.op_index = 9, .kind = net::FaultKind::kReset});
  net::FaultInjector chaos(plan);
  chaos.Arm();
  auto report = router.PublishAll("default", *model2_);
  chaos.Disarm();
  EXPECT_EQ(chaos.stats().resets, 1u);

  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.failure.find("commit failed on"), std::string::npos)
      << report.failure;
  // Node 0 committed and was compensated by rollback.
  EXPECT_TRUE(report.nodes[0].committed);
  EXPECT_TRUE(report.nodes[0].compensated);
  // Node 1's commit landed without a response; the router must have
  // detected it and rolled back rather than (uselessly) aborting.
  EXPECT_FALSE(report.nodes[1].committed) << "the response never arrived";
  EXPECT_TRUE(report.nodes[1].compensated) << report.nodes[1].error;
  // Node 2 was still staged and was aborted.
  EXPECT_FALSE(report.nodes[2].committed);
  EXPECT_TRUE(report.nodes[2].aborted);

  // Every node is back on epoch 1 with nothing parked, serving the old
  // model bitwise — the fleet was never left mixed.
  for (const auto& address : addresses) {
    net::WireClient direct(address);
    auto health = direct.Health(3);
    ASSERT_TRUE(health.ok()) << health.status().ToString();
    EXPECT_EQ(health->registry_epoch, 1u) << address;
    EXPECT_EQ(health->staged_ticket, 0u) << address;
    ExpectCallBitwise(
        direct.ScoreWorkloads("t", dataset_->records, batches), want);
  }
  router.ProbeNow();
  EXPECT_FALSE(router.epoch_map().Mixed());
  ExpectCallBitwise(router.ScoreWorkloads("t", dataset_->records, batches),
                    want);
  router.Stop();
  for (auto& node : fleet) {
    node->server.Shutdown();
    node->service.Stop();
  }
}

}  // namespace
}  // namespace wmp
