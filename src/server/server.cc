#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

namespace rfidcep::server {
namespace {

// Writes all of `bytes` to `fd`. False when the peer is gone.
bool SendAll(int fd, std::string_view bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

int Listen(const std::string& host, int port, int backlog, int* bound_port,
           Status* status) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *status = Errno("socket");
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    *status = Status::InvalidArgument("bad listen host " + host);
    ::close(fd);
    return -1;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, backlog) != 0) {
    *status = Errno("bind/listen " + host + ":" + std::to_string(port));
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  *bound_port = ntohs(addr.sin_port);
  return fd;
}

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {
  instruments_.connections = registry_.GetCounter("rfidcepd_connections_total");
  instruments_.rejected =
      registry_.GetCounter("rfidcepd_rejected_connections_total");
  instruments_.frames = registry_.GetCounter("rfidcepd_frames_total");
  instruments_.observations =
      registry_.GetCounter("rfidcepd_observations_total");
  instruments_.protocol_errors =
      registry_.GetCounter("rfidcepd_protocol_errors_total");
  instruments_.ingest_stalls =
      registry_.GetCounter("rfidcepd_ingest_stalls_total");
  instruments_.checkpoints = registry_.GetCounter("rfidcepd_checkpoints_total");
  instruments_.active = registry_.GetGauge("rfidcepd_connections_active");
}

Server::~Server() {
  // Without the checkpoint pass: destruction is the crash-like path;
  // Shutdown() is the graceful one.
  StopServing();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (http_fd_ >= 0) ::close(http_fd_);
  for (int fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
  }
}

Status Server::AddTenant(TenantConfig config) {
  if (started_) {
    return Status::FailedPrecondition("AddTenant after Start()");
  }
  std::string name = config.name;
  if (name.empty() || name.size() > kMaxTenantNameBytes) {
    return Status::InvalidArgument("bad tenant name '" + name + "'");
  }
  if (tenants_.count(name) != 0) {
    return Status::InvalidArgument("duplicate tenant '" + name + "'");
  }
  Result<std::unique_ptr<Tenant>> tenant =
      Tenant::Open(std::move(config), options_.state_dir);
  if (!tenant.ok()) {
    return Status(tenant.status().code(),
                  "tenant '" + name + "': " + tenant.status().message());
  }
  tenants_.emplace(std::move(name), std::move(*tenant));
  return Status::Ok();
}

Status Server::Start() {
  if (started_) return Status::FailedPrecondition("Start() twice");
  if (tenants_.empty()) {
    return Status::FailedPrecondition("no tenants configured");
  }
  if (::pipe(wake_pipe_) != 0) return Errno("pipe");
  Status status;
  // listen() backlog is the bounded accept queue: a burst beyond it is
  // refused by the kernel before the daemon ever sees it.
  listen_fd_ = Listen(options_.host, options_.port, /*backlog=*/16,
                      &bound_port_, &status);
  if (listen_fd_ < 0) return status;
  if (options_.http_port >= 0) {
    http_fd_ = Listen(options_.host, options_.http_port, /*backlog=*/16,
                      &http_bound_port_, &status);
    if (http_fd_ < 0) return status;
    http_thread_ = std::thread([this] { HttpLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  started_ = true;
  return Status::Ok();
}

Status Server::Shutdown() {
  if (!started_ || stopped_) return Status::Ok();
  StopServing();
  return CheckpointAll();
}

void Server::StopServing() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  stopping_.store(true);
  (void)!::write(wake_pipe_[1], "x", 1);
  {
    // In-flight frames finish (HandleFrame holds the tenant mutex);
    // the reads after them fail fast.
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (http_thread_.joinable()) http_thread_.join();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) t.join();
}

Status Server::CheckpointAll() {
  Status first_error;
  for (auto& [name, tenant] : tenants_) {
    std::lock_guard<std::mutex> lock(tenant->mu());
    Status status = tenant->Checkpoint();
    if (status.ok()) {
      instruments_.checkpoints->Increment();
    } else if (first_error.ok()) {
      first_error = Status(status.code(),
                           "tenant '" + name + "': " + status.message());
    }
  }
  return first_error;
}

Tenant* Server::tenant(std::string_view name) {
  auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second.get();
}

void Server::AcceptLoop() {
  while (!stopping_.load()) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (stopping_.load() || (fds[1].revents & POLLIN) != 0) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (stopping_.load() ||
        conn_fds_.size() >= static_cast<size_t>(options_.max_connections)) {
      // Bounded accept: over capacity (or draining), the client gets a
      // clean protocol error instead of a wedged connection.
      instruments_.rejected->Increment();
      SendAll(fd, EncodeError(Status::FailedPrecondition(
                      stopping_.load() ? "server draining"
                                       : "server at connection capacity")));
      ::close(fd);
      continue;
    }
    instruments_.connections->Increment();
    instruments_.active->Add(1);
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

bool Server::HandleFrame(int fd, Tenant* tenant, const Frame& frame,
                         uint64_t seq) {
  instruments_.frames->Increment();
  engine::RcedaEngine& engine = tenant->engine();
  // Serialize connections feeding one tenant; a contended engine is a
  // slow-reader stall worth counting before we block on it.
  std::unique_lock<std::mutex> lock(tenant->mu(), std::try_to_lock);
  if (!lock.owns_lock()) {
    instruments_.ingest_stalls->Increment();
    lock.lock();
  }
  switch (frame.type) {
    case FrameType::kBatch: {
      std::vector<events::Observation> batch;
      if (Status s = DecodeBatch(frame.body, &batch); !s.ok()) {
        instruments_.protocol_errors->Increment();
        SendAll(fd, EncodeError(s));
        return false;
      }
      if (Status s = engine.ProcessAll(batch); !s.ok()) {
        SendAll(fd, EncodeError(s));
        return false;
      }
      instruments_.observations->Increment(batch.size());
      return SendAll(fd, EncodeAck(seq));
    }
    case FrameType::kAdvance: {
      TimePoint t = 0;
      if (Status s = DecodeAdvance(frame.body, &t); !s.ok()) {
        instruments_.protocol_errors->Increment();
        SendAll(fd, EncodeError(s));
        return false;
      }
      if (Status s = engine.AdvanceTo(t); !s.ok()) {
        SendAll(fd, EncodeError(s));
        return false;
      }
      return SendAll(fd, EncodeAck(seq));
    }
    case FrameType::kFlush: {
      if (Status s = engine.Flush(); !s.ok()) {
        SendAll(fd, EncodeError(s));
        return false;
      }
      return SendAll(fd, EncodeAck(seq));
    }
    case FrameType::kStats: {
      StatsReply reply;
      const engine::EngineStats& stats = engine.stats();
      reply.observations = stats.detector.observations;
      reply.matches = stats.detector.rule_matches;
      reply.rules_fired = stats.rules_fired;
      reply.sql_actions = stats.sql_actions_executed;
      reply.procedures = stats.procedures_invoked;
      reply.fired.reserve(engine.num_rules());
      for (size_t i = 0; i < engine.num_rules(); ++i) {
        const std::string& id = engine.rule(i).id;
        reply.fired.emplace_back(id, engine.FiredCount(id));
      }
      return SendAll(fd, EncodeStatsReply(reply));
    }
    case FrameType::kCheckpoint: {
      if (Status s = tenant->Checkpoint(); !s.ok()) {
        SendAll(fd, EncodeError(s));
        return false;
      }
      instruments_.checkpoints->Increment();
      return SendAll(fd, EncodeAck(seq));
    }
    case FrameType::kPing:
      return SendAll(fd, EncodeAck(seq));
    case FrameType::kAck:
    case FrameType::kError:
    case FrameType::kStatsReply:
      break;  // Server-to-client types from a client: protocol error.
  }
  instruments_.protocol_errors->Increment();
  SendAll(fd, EncodeError(Status::InvalidArgument(
                  "client sent server-only frame type")));
  return false;
}

void Server::ServeConnection(int fd) {
  std::string hello_buffer;
  Tenant* tenant = nullptr;
  FrameReader reader;
  char chunk[64 << 10];
  uint64_t seq = 0;
  bool open = true;

  while (open) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    if (stopping_.load()) {
      SendAll(fd, EncodeError(Status::FailedPrecondition("server draining")));
      break;
    }
    std::string_view bytes(chunk, static_cast<size_t>(n));

    if (tenant == nullptr) {
      hello_buffer.append(bytes);
      Hello hello;
      size_t consumed = 0;
      std::string error;
      switch (DecodeHello(hello_buffer, &hello, &consumed, &error)) {
        case DecodeResult::kNeedMore:
          continue;
        case DecodeResult::kError:
          instruments_.protocol_errors->Increment();
          SendAll(fd, EncodeError(Status::InvalidArgument(error)));
          open = false;
          continue;
        case DecodeResult::kItem:
          break;
      }
      tenant = this->tenant(hello.tenant);
      if (tenant == nullptr) {
        instruments_.protocol_errors->Increment();
        SendAll(fd, EncodeError(Status::NotFound("unknown tenant '" +
                                                 hello.tenant + "'")));
        open = false;
        continue;
      }
      if (!SendAll(fd, EncodeAck(0))) break;
      reader.Feed(hello_buffer.substr(consumed));
      hello_buffer.clear();
    } else {
      reader.Feed(bytes);
    }

    Frame frame;
    for (;;) {
      DecodeResult result = reader.Next(&frame);
      if (result == DecodeResult::kNeedMore) break;
      if (result == DecodeResult::kError) {
        instruments_.protocol_errors->Increment();
        SendAll(fd, EncodeError(Status::InvalidArgument(reader.error())));
        open = false;
        break;
      }
      ++seq;
      if (!HandleFrame(fd, tenant, frame, seq)) {
        open = false;
        break;
      }
    }
  }

  {
    // Unregister before close: Shutdown() must never shutdown() an fd
    // number the kernel may already have reused.
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (size_t i = 0; i < conn_fds_.size(); ++i) {
      if (conn_fds_[i] == fd) {
        conn_fds_.erase(conn_fds_.begin() + static_cast<ptrdiff_t>(i));
        break;
      }
    }
  }
  ::close(fd);
  instruments_.active->Add(-1);
}

std::string Server::ExportMetrics() const {
  std::string out = registry_.ExportText();
  for (const auto& [name, tenant] : tenants_) {
    common::MetricsSnapshot snapshot;
    {
      // The engine's counts are plain fields its ingest thread writes
      // under the tenant lock. Only the copy needs it; formatting the
      // copy (most of a scrape on a large rule set) runs after release.
      std::lock_guard<std::mutex> lock(tenant->mu());
      snapshot = tenant->engine().SnapshotMetrics();
    }
    out += snapshot.ExportText("tenant=\"" + name + "\"");
  }
  return out;
}

void Server::HandleHttp(int fd) {
  std::string request;
  char chunk[4096];
  while (request.size() < (16u << 10) &&
         request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    request.append(chunk, static_cast<size_t>(n));
  }
  std::istringstream line(request);
  std::string method, path;
  line >> method >> path;
  std::string body;
  std::string status = "200 OK";
  if (method != "GET") {
    status = "405 Method Not Allowed";
    body = "method not allowed\n";
  } else if (path == "/metrics") {
    body = ExportMetrics();
  } else if (path == "/healthz") {
    body = stopping_.load() ? "draining\n" : "ok\n";
  } else {
    status = "404 Not Found";
    body = "not found\n";
  }
  std::string response = "HTTP/1.0 " + status +
                         "\r\nContent-Type: text/plain; version=0.0.4"
                         "\r\nContent-Length: " +
                         std::to_string(body.size()) + "\r\n\r\n" + body;
  SendAll(fd, response);
  ::close(fd);
}

void Server::HttpLoop() {
  // Scrapes are tiny and rare next to ingest; serving them serially on
  // the listener thread keeps the daemon's thread count predictable.
  while (!stopping_.load()) {
    pollfd fds[2] = {{http_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (stopping_.load() || (fds[1].revents & POLLIN) != 0) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    int fd = ::accept(http_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    HandleHttp(fd);
  }
}

}  // namespace rfidcep::server
