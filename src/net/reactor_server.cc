#include "net/reactor_server.h"

#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#ifdef __linux__
#include <sys/epoll.h>
#include <sys/eventfd.h>
#endif

#include "util/strings.h"

namespace wmp::net {

namespace {

// Per-loop-iteration read cap for one connection: level-triggered
// readiness re-fires immediately, so capping keeps one firehose client
// from starving its neighbors without losing any bytes.
constexpr size_t kMaxReadPerEvent = 512u << 10;

// Compact a consumed buffer prefix once it crosses this, so long-lived
// connections don't accrete dead bytes.
constexpr size_t kCompactThreshold = 64u << 10;

Status Errno(const char* what) {
  return Status::IOError(StrFormat("%s: %s", what, std::strerror(errno)));
}

}  // namespace

// ---------------------------------------------------------------------------
// Poller: identical interest bookkeeping, epoll or poll(2) behind Wait().

class ReactorServer::Poller {
 public:
  Status Init() {
#ifdef __linux__
    epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epfd_ < 0) return Errno("epoll_create1");
#endif
    return Status::OK();
  }

  ~Poller() {
#ifdef __linux__
    CloseFd(epfd_);
#endif
  }

  void Add(int fd, bool readable, bool writable) {
    interest_[fd] = Mask(readable, writable);
#ifdef __linux__
    epoll_event ev{};
    ev.events = EpollMask(readable, writable);
    ev.data.fd = fd;
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
#endif
  }

  void Update(int fd, bool readable, bool writable) {
    interest_[fd] = Mask(readable, writable);
#ifdef __linux__
    epoll_event ev{};
    ev.events = EpollMask(readable, writable);
    ev.data.fd = fd;
    ::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev);
#endif
  }

  void Remove(int fd) {
    interest_.erase(fd);
#ifdef __linux__
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
#endif
  }

  /// Blocks up to `timeout_ms` (-1 = indefinitely) and appends ready fds
  /// to `*out`. EINTR counts as an empty wake.
  Status Wait(int timeout_ms, std::vector<PollEvent>* out) {
    out->clear();
#ifdef __linux__
    epoll_event events[64];
    const int n = ::epoll_wait(epfd_, events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) return Status::OK();
      return Errno("epoll_wait");
    }
    for (int i = 0; i < n; ++i) {
      PollEvent ev;
      ev.fd = events[i].data.fd;
      ev.readable = (events[i].events & (EPOLLIN | EPOLLHUP)) != 0;
      ev.writable = (events[i].events & EPOLLOUT) != 0;
      ev.error = (events[i].events & EPOLLERR) != 0;
      out->push_back(ev);
    }
#else
    pollfds_.clear();
    for (const auto& [fd, mask] : interest_) {
      pollfd p{};
      p.fd = fd;
      if (mask & kRead) p.events |= POLLIN;
      if (mask & kWrite) p.events |= POLLOUT;
      pollfds_.push_back(p);
    }
    const int n = ::poll(pollfds_.data(),
                         static_cast<nfds_t>(pollfds_.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) return Status::OK();
      return Errno("poll");
    }
    for (const pollfd& p : pollfds_) {
      if (p.revents == 0) continue;
      PollEvent ev;
      ev.fd = p.fd;
      ev.readable = (p.revents & (POLLIN | POLLHUP)) != 0;
      ev.writable = (p.revents & POLLOUT) != 0;
      ev.error = (p.revents & (POLLERR | POLLNVAL)) != 0;
      out->push_back(ev);
    }
#endif
    return Status::OK();
  }

 private:
  static constexpr uint32_t kRead = 1;
  static constexpr uint32_t kWrite = 2;
  static uint32_t Mask(bool readable, bool writable) {
    return (readable ? kRead : 0) | (writable ? kWrite : 0);
  }
#ifdef __linux__
  static uint32_t EpollMask(bool readable, bool writable) {
    // Level-triggered on purpose: combined with the per-event read cap it
    // gives free fairness (unserviced bytes re-arm the fd), and the poll()
    // fallback behaves identically.
    return (readable ? EPOLLIN : 0u) | (writable ? EPOLLOUT : 0u);
  }
  int epfd_ = -1;
#else
  std::vector<pollfd> pollfds_;
#endif
  std::unordered_map<int, uint32_t> interest_;
};

// ---------------------------------------------------------------------------

ReactorServer::ReactorServer(engine::ScoringService* service,
                             engine::ModelRegistry* registry,
                             std::string model_name,
                             ReactorServerOptions options)
    : dispatcher_(service, registry, std::move(model_name)),
      options_(options) {
  limits_.max_payload_bytes = options_.max_payload_bytes;
}

ReactorServer::~ReactorServer() { Shutdown(); }

Status ReactorServer::Listen(const std::string& address) {
  WMP_RETURN_IF_ERROR(listener_.Listen(address, options_.backlog));
  WMP_RETURN_IF_ERROR(SetNonBlocking(listener_.fd(), true));
  // Wakeup channel: the completion doorbell and Shutdown() both write it,
  // the loop reads it — the only cross-thread signal into the reactor.
#ifdef __linux__
  wake_read_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_read_fd_ < 0) return Errno("eventfd");
  wake_write_fd_ = wake_read_fd_;
#else
  int pipefd[2];
  if (::pipe(pipefd) < 0) return Errno("pipe");
  wake_read_fd_ = pipefd[0];
  wake_write_fd_ = pipefd[1];
  WMP_RETURN_IF_ERROR(SetNonBlocking(wake_read_fd_, true));
  WMP_RETURN_IF_ERROR(SetNonBlocking(wake_write_fd_, true));
#endif
  poller_ = std::make_unique<Poller>();
  return poller_->Init();
}

Status ReactorServer::Serve() {
  if (!listener_.listening() || poller_ == nullptr) {
    return Status::FailedPrecondition("Serve before Listen");
  }
  if (loop_running_.exchange(true)) {
    return Status::FailedPrecondition("server already running");
  }
  RunLoop();
  return Status::OK();
}

Status ReactorServer::Start() {
  if (!listener_.listening() || poller_ == nullptr) {
    return Status::FailedPrecondition("Start before Listen");
  }
  if (loop_running_.exchange(true)) {
    return Status::FailedPrecondition("server already running");
  }
  serve_thread_ = std::thread([this] { RunLoop(); });
  return Status::OK();
}

void ReactorServer::WakeLoop() {
  const uint64_t one = 1;
  // Nonblocking: EAGAIN means the doorbell is already pending, which is
  // all a doorbell needs.
  [[maybe_unused]] ssize_t n =
      ::write(wake_write_fd_, &one, sizeof(one));
}

void ReactorServer::RunLoop() {
  poller_->Add(listener_.fd(), /*readable=*/true, /*writable=*/false);
  poller_->Add(wake_read_fd_, /*readable=*/true, /*writable=*/false);
  dispatcher_.service()->SetCompletionCallback([this] { WakeLoop(); });
  std::vector<PollEvent> events;
  while (!shutting_down_.load(std::memory_order_acquire)) {
    if (!poller_->Wait(NextTimeoutMs(), &events).ok()) break;
    for (const PollEvent& ev : events) {
      if (ev.fd == wake_read_fd_) {
        // Drain the doorbell; the post-loop DrainCompletions does the work.
        char buf[64];
        while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      if (ev.fd == listener_.fd()) {
        AcceptNew();
        continue;
      }
      auto it = conns_.find(ev.fd);
      if (it == conns_.end()) continue;  // torn down earlier this iteration
      std::shared_ptr<Conn> conn = it->second;
      if (ev.error) {
        Teardown(conn);
        continue;
      }
      if (ev.readable) OnReadable(conn);
      if (conn->fd >= 0 && ev.writable) TryWrite(conn);
    }
    // Futures can resolve at submit time (validation failures) or via the
    // doorbell (service flushes) — either way they are collected here,
    // once per loop iteration.
    DrainCompletions();
    CloseIdleConns();
  }
  dispatcher_.service()->SetCompletionCallback(nullptr);
  // Park no future past the loop: Submit's borrow says each request's
  // records must outlive its futures, and the requests die with pendings_.
  for (auto& pending : pendings_) {
    for (auto& future : pending->futures) {
      if (future.valid()) future.wait();
    }
  }
  pendings_.clear();
  std::vector<std::shared_ptr<Conn>> open;
  open.reserve(conns_.size());
  for (auto& [fd, conn] : conns_) open.push_back(conn);
  for (auto& conn : open) Teardown(conn);
  loop_running_.store(false, std::memory_order_release);
}

void ReactorServer::AcceptNew() {
  for (;;) {
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      // EMFILE/ECONNABORTED burst: count it and return to the loop; the
      // level-triggered listener re-arms, and closing idle connections is
      // what actually frees descriptors.
      accept_failures_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (!SetNonBlocking(fd, true).ok()) {
      CloseConnection(fd);
      accept_failures_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->last_activity = std::chrono::steady_clock::now();
    conn->registered_read = true;
    conns_.emplace(fd, conn);
    poller_->Add(fd, /*readable=*/true, /*writable=*/false);
  }
}

void ReactorServer::OnReadable(const std::shared_ptr<Conn>& conn) {
  if (conn->read_paused || conn->closing) return;
  char chunk[64u << 10];
  size_t read_this_event = 0;
  bool peer_eof = false;
  for (;;) {
    // ReadSome (net/socket.h) is the shared EINTR-correct primitive; read()
    // under it serves sockets and the pipes tests drive the reactor with.
    const ssize_t n = ReadSome(conn->fd, chunk, sizeof(chunk));
    if (n > 0) {
      conn->rbuf.append(chunk, static_cast<size_t>(n));
      conn->last_activity = std::chrono::steady_clock::now();
      read_this_event += static_cast<size_t>(n);
      if (read_this_event >= kMaxReadPerEvent) break;
      continue;
    }
    if (n == 0) {
      // Peer hung up — but its final bytes may have arrived in THIS event,
      // ahead of the EOF, and may hold complete frames (a publish followed
      // by an immediate close must still apply). Parse below, answer what
      // can be answered (the peer may have only half-closed), then drain
      // and close.
      peer_eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    Teardown(conn);
    return;
  }
  ParseFrames(conn);
  if (peer_eof && conn->fd >= 0 && !conn->closing) {
    conn->closing = true;
    conn->rbuf.clear();  // a trailing partial frame can never complete
    conn->rpos = 0;
    UpdateInterest(conn);
    MaybeFinishClose(conn);
  }
}

void ReactorServer::ParseFrames(const std::shared_ptr<Conn>& conn) {
  while (conn->fd >= 0 && !conn->closing) {
    const std::string_view unparsed =
        std::string_view(conn->rbuf).substr(conn->rpos);
    size_t consumed = 0;
    auto frame = DecodeFrame(unparsed, limits_, &consumed);
    if (!frame.ok()) {
      if (frame.status().IsOutOfRange()) break;  // need more bytes
      // Bad magic or oversize announced length: the stream is
      // desynchronized (or hostile) and there is no next frame boundary
      // to find. Answer once, flush, close — neighbors keep streaming.
      AppendFrame(conn, ErrorFrame(frame.status()));
      conn->closing = true;
      conn->rbuf.clear();
      conn->rpos = 0;
      if (conn->fd >= 0) {
        UpdateInterest(conn);
        MaybeFinishClose(conn);
      }
      return;
    }
    conn->rpos += consumed;
    HandleFrame(conn, std::move(*frame));
  }
  if (conn->fd < 0) return;
  if (conn->rpos == conn->rbuf.size()) {
    conn->rbuf.clear();
    conn->rpos = 0;
  } else if (conn->rpos >= kCompactThreshold) {
    conn->rbuf.erase(0, conn->rpos);
    conn->rpos = 0;
  }
}

void ReactorServer::HandleFrame(const std::shared_ptr<Conn>& conn,
                                Frame frame) {
  frames_served_.fetch_add(1, std::memory_order_relaxed);
  switch (frame.type) {
    case FrameType::kPing:
      AppendFrame(conn, Frame{FrameType::kPong, std::move(frame.payload)});
      return;
    case FrameType::kScoreRequestPipelined:
      HandlePipelinedScoreFrame(conn, frame);
      return;
    case FrameType::kPublishRequest:
      // Control plane: executes inline on the loop thread. A rollout
      // serializes on the service's publish mutex anyway; the few ms of
      // deserialize+swap are invisible next to training a replacement.
      AppendFrame(conn, dispatcher_.HandlePublish(frame));
      return;
    case FrameType::kRollbackRequest:
      AppendFrame(conn, dispatcher_.HandleRollback(frame));
      return;
    case FrameType::kStatsRequest:
      AppendFrame(conn, dispatcher_.HandleStats(WireCounters()));
      return;
    case FrameType::kHealthRequest:
      AppendFrame(conn, dispatcher_.HandleHealth(frame));
      return;
    case FrameType::kStageRequest:
      // Inline like publish: stage validates + deserializes but installs
      // nothing; commit is the same PublishAll a kPublishRequest runs.
      AppendFrame(conn, dispatcher_.HandleStage(frame));
      return;
    case FrameType::kCommitRequest:
      AppendFrame(conn, dispatcher_.HandleCommit(frame));
      return;
    case FrameType::kAbortRequest:
      AppendFrame(conn, dispatcher_.HandleAbort(frame));
      return;
    default:
      AppendFrame(conn, RequestDispatcher::UnexpectedFrame(frame.type));
      return;
  }
}

void ReactorServer::HandlePipelinedScoreFrame(
    const std::shared_ptr<Conn>& conn, const Frame& frame) {
  std::string body;
  auto correlation_id = DecodePipelinedPayload(frame.payload, &body);
  if (!correlation_id.ok()) {
    // No id to indict: degrade to a stream-level error, which the async
    // client treats as fatal for its in-flight window.
    AppendFrame(conn, ErrorFrame(correlation_id.status()));
    return;
  }
  pipelined_frames_.fetch_add(1, std::memory_order_relaxed);
  auto decoded = DecodeScoreRequest(body);
  if (!decoded.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    ErrorBody error;
    error.code = static_cast<uint8_t>(decoded.status().code());
    error.message = decoded.status().message();
    AppendFrame(conn,
                Frame{FrameType::kErrorPipelined,
                      EncodePipelinedPayload(*correlation_id,
                                             EncodeErrorBody(error))});
    return;
  }
  auto pending = std::make_unique<PendingScore>();
  pending->conn = conn;
  pending->request = std::make_unique<ScoreRequest>(std::move(*decoded));
  pending->correlation_id = *correlation_id;
  pending->futures = dispatcher_.SubmitScore(*pending->request);
  pending->outcomes.reserve(pending->futures.size());
  ++conn->pending_scores;
  pendings_.push_back(std::move(pending));
}

void ReactorServer::AppendFrame(const std::shared_ptr<Conn>& conn,
                                const Frame& frame) {
  if (frame.type == FrameType::kError) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  if (conn->fd < 0) return;
  conn->wbuf += EncodeFrame(frame.type, frame.payload);
  TryWrite(conn);
}

void ReactorServer::TryWrite(const std::shared_ptr<Conn>& conn) {
  while (conn->wpos < conn->wbuf.size()) {
    const size_t len = conn->wbuf.size() - conn->wpos;
    // SendSome (net/socket.h): EINTR-retried, SIGPIPE-suppressed, with a
    // write() fallback for the pipes tests drive the reactor with.
    const ssize_t n = SendSome(conn->fd, conn->wbuf.data() + conn->wpos, len);
    if (n > 0) {
      conn->wpos += static_cast<size_t>(n);
      conn->last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    Teardown(conn);  // peer gone mid-response
    return;
  }
  if (conn->wpos == conn->wbuf.size()) {
    conn->wbuf.clear();
    conn->wpos = 0;
  } else if (conn->wpos >= kCompactThreshold) {
    conn->wbuf.erase(0, conn->wpos);
    conn->wpos = 0;
  }
  const size_t buffered = conn->wbuf.size() - conn->wpos;
  // Backpressure: a reader that stopped draining its socket stops feeding
  // us new requests, instead of growing wbuf without bound. Resume at
  // half the watermark so the toggle doesn't flap per frame.
  if (!conn->read_paused && buffered > options_.write_high_watermark) {
    conn->read_paused = true;
    backpressure_pauses_.fetch_add(1, std::memory_order_relaxed);
  } else if (conn->read_paused &&
             buffered <= options_.write_high_watermark / 2) {
    conn->read_paused = false;
  }
  UpdateInterest(conn);
  MaybeFinishClose(conn);
}

void ReactorServer::UpdateInterest(const std::shared_ptr<Conn>& conn) {
  if (conn->fd < 0) return;
  const bool want_read = !conn->read_paused && !conn->closing;
  const bool want_write = conn->wpos < conn->wbuf.size();
  if (want_read != conn->registered_read ||
      want_write != conn->registered_write) {
    conn->registered_read = want_read;
    conn->registered_write = want_write;
    poller_->Update(conn->fd, want_read, want_write);
  }
}

void ReactorServer::DrainCompletions() {
  for (size_t i = 0; i < pendings_.size();) {
    PendingScore& pending = *pendings_[i];
    while (pending.outcomes.size() < pending.futures.size()) {
      auto& future = pending.futures[pending.outcomes.size()];
      if (future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        break;
      }
      pending.outcomes.push_back(future.get());
    }
    if (pending.outcomes.size() < pending.futures.size()) {
      ++i;
      continue;
    }
    const std::shared_ptr<Conn>& conn = pending.conn;
    if (conn->fd >= 0) {
      AppendFrame(conn,
                  Frame{FrameType::kScoreResponsePipelined,
                        EncodePipelinedPayload(
                            pending.correlation_id,
                            RequestDispatcher::BuildScoreResponse(
                                std::move(pending.outcomes)))});
    }
    --conn->pending_scores;
    if (conn->fd >= 0) MaybeFinishClose(conn);
    pendings_[i] = std::move(pendings_.back());
    pendings_.pop_back();
  }
}

int ReactorServer::NextTimeoutMs() const {
  if (options_.idle_timeout_ms <= 0 || conns_.empty()) return -1;
  const auto now = std::chrono::steady_clock::now();
  int64_t nearest = options_.idle_timeout_ms;
  for (const auto& [fd, conn] : conns_) {
    const int64_t idle_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            now - conn->last_activity)
            .count();
    nearest = std::min(nearest, options_.idle_timeout_ms - idle_ms);
  }
  return static_cast<int>(std::max<int64_t>(nearest, 0));
}

void ReactorServer::CloseIdleConns() {
  if (options_.idle_timeout_ms <= 0) return;
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::shared_ptr<Conn>> idle;
  for (const auto& [fd, conn] : conns_) {
    // In-flight scoring counts as activity even if the service is slow.
    if (conn->pending_scores > 0) continue;
    const int64_t idle_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            now - conn->last_activity)
            .count();
    if (idle_ms >= options_.idle_timeout_ms) idle.push_back(conn);
  }
  for (auto& conn : idle) {
    idle_closed_.fetch_add(1, std::memory_order_relaxed);
    Teardown(conn);
  }
}

void ReactorServer::MaybeFinishClose(const std::shared_ptr<Conn>& conn) {
  if (conn->closing && conn->pending_scores == 0 &&
      conn->wpos == conn->wbuf.size()) {
    Teardown(conn);
  }
}

void ReactorServer::Teardown(const std::shared_ptr<Conn>& conn) {
  if (conn->fd < 0) return;
  poller_->Remove(conn->fd);
  conns_.erase(conn->fd);
  CloseConnection(conn->fd);
  conn->fd = -1;
  // Parked score requests pointing here stay in pendings_ until their
  // futures resolve (Submit's borrow), then find fd == -1 and drop their
  // response.
}

void ReactorServer::Shutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  shutting_down_.store(true, std::memory_order_release);
  if (wake_write_fd_ >= 0) WakeLoop();
  if (serve_thread_.joinable()) serve_thread_.join();
  // Serve() on a caller thread: wait for the loop to actually exit before
  // tearing down the poller and wake fds it is using.
  while (loop_running_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  listener_.Close();
  if (wake_read_fd_ >= 0) {
    CloseFd(wake_read_fd_);
    if (wake_write_fd_ != wake_read_fd_) CloseFd(wake_write_fd_);
    wake_read_fd_ = -1;
    wake_write_fd_ = -1;
  }
  poller_.reset();
}

WireServerCounters ReactorServer::WireCounters() const {
  WireServerCounters counters;
  counters.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  counters.frames_served = frames_served_.load(std::memory_order_relaxed);
  counters.protocol_errors =
      protocol_errors_.load(std::memory_order_relaxed);
  counters.accept_failures =
      accept_failures_.load(std::memory_order_relaxed);
  return counters;
}

ReactorCounters ReactorServer::stats() const {
  ReactorCounters counters;
  counters.wire = WireCounters();
  counters.backpressure_pauses =
      backpressure_pauses_.load(std::memory_order_relaxed);
  counters.idle_closed = idle_closed_.load(std::memory_order_relaxed);
  counters.pipelined_frames =
      pipelined_frames_.load(std::memory_order_relaxed);
  return counters;
}

}  // namespace wmp::net
