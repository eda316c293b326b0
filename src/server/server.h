// rfidcepd: the long-running network front-end over RCEDA engines.
//
// One Server owns N named tenants (tenant.h), a TCP listener speaking
// the binary observation protocol (protocol.h), and an HTTP listener
// serving Prometheus /metrics and /healthz. Each accepted connection
// gets a thread; frames are processed strictly in order and each one is
// acknowledged after its engine call returns, so a client's last ack is
// exactly the durable resend boundary across a restart. Backpressure is
// end-to-end and bounded: each connection thread processes a frame
// synchronously and acks it after the engine call returns, so a slow
// engine stops that thread reading, the kernel socket buffers fill, and
// the client's send blocks — nothing in the daemon buffers unboundedly.
// Connections beyond max_connections are rejected with a protocol error
// (bounded accept); contended tenant engines are counted as ingest
// stalls.
//
// Lifecycle (docs/server.md): Start() binds and serves; Shutdown() —
// the SIGTERM path — stops accepting, fails in-flight connections after
// their current frame, checkpoints every tenant (which syncs the WAL),
// and returns. A new Server over the same state directory resumes from
// those checkpoints.

#ifndef RFIDCEP_SERVER_SERVER_H_
#define RFIDCEP_SERVER_SERVER_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "server/protocol.h"
#include "server/tenant.h"

namespace rfidcep::server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;       // 0 binds an ephemeral port; see bound_port().
  int http_port = 0;  // Prometheus/health listener; -1 disables it.
  int max_connections = 64;
  std::string state_dir = ".";  // Per-tenant WALs and checkpoints.
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();  // Stops serving; does NOT checkpoint (that is Shutdown()).

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Opens (and recovers) one tenant. All tenants before Start().
  Status AddTenant(TenantConfig config);

  // Binds the listeners and begins serving.
  Status Start();

  // Drain-and-checkpoint, shared by SIGTERM and tests: stop accepting,
  // fail open connections after their in-flight frame, join every
  // thread, then checkpoint all tenants. Returns the first checkpoint
  // error but always attempts every tenant. Idempotent.
  Status Shutdown();

  int bound_port() const { return bound_port_; }
  int http_port() const { return http_bound_port_; }

  Tenant* tenant(std::string_view name);
  size_t num_tenants() const { return tenants_.size(); }

  // Server-level counters plus every tenant's engine metrics with a
  // tenant="<name>" label injected (docs/server.md "Metrics"). Holds each
  // tenant's lock while it copies that tenant's metrics
  // (RcedaEngine::SnapshotMetrics), and formats the copy after release.
  std::string ExportMetrics() const;

 private:
  struct Instruments {
    common::Counter* connections;
    common::Counter* rejected;
    common::Counter* frames;
    common::Counter* observations;
    common::Counter* protocol_errors;
    common::Counter* ingest_stalls;
    common::Counter* checkpoints;
    common::Gauge* active;
  };

  void AcceptLoop();
  void HttpLoop();
  void ServeConnection(int fd);
  // One client frame against `tenant`. Returns false when the
  // connection must close (error already sent / peer gone).
  bool HandleFrame(int fd, Tenant* tenant, const Frame& frame, uint64_t seq);
  void HandleHttp(int fd);
  // Stops serving: wakes the accept and HTTP loops, shuts every
  // connection down (an in-flight frame finishes first) and joins all
  // threads. Both ~Server and Shutdown() stop this way, once.
  void StopServing();
  Status CheckpointAll();

  const ServerOptions options_;
  common::MetricsRegistry registry_;
  Instruments instruments_;

  std::map<std::string, std::unique_ptr<Tenant>, std::less<>> tenants_;

  int listen_fd_ = -1;
  int http_fd_ = -1;
  int bound_port_ = -1;
  int http_bound_port_ = -1;
  int wake_pipe_[2] = {-1, -1};  // Written to unblock poll() on stop.

  std::atomic<bool> stopping_{false};
  bool started_ = false;
  bool stopped_ = false;
  std::thread accept_thread_;
  std::thread http_thread_;
  std::mutex conn_mu_;  // Guards conn_fds_ / conn_threads_.
  std::vector<int> conn_fds_;
  std::vector<std::thread> conn_threads_;
};

}  // namespace rfidcep::server

#endif  // RFIDCEP_SERVER_SERVER_H_
