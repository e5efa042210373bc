// car_serve — the multi-tenant schema-reasoning daemon.
//
// Speaks the length-prefixed binary protocol of src/serve/protocol.h
// over one of three transports:
//
//   car_serve [options]                  stdio (one connection: stdin/stdout)
//   car_serve --unix=PATH [options]      Unix-domain stream socket
//   car_serve --listen=PORT [options]    TCP on 127.0.0.1:PORT
//
// Tenants open schemas under names, query them with textual implication
// queries (reasoner/query_text.h syntax) and mutate them; warm
// IncrementalSessions are cached per tenant with LRU + memory-budget
// eviction. Every query batch runs under a fresh ExecContext configured
// from the request's admission limits tightened against the server-side
// caps below; overload degrades to a structured `degraded` answer, never
// a crash or a wrong answer.
//
// options:
//   --threads=N             worker threads inside one query batch
//                           (1 = serial reference, 0 = hardware
//                           concurrency; answers are bit-identical)
//   --max-sessions=N        resident-session cap (LRU eviction past it)
//   --memory-budget-mb=N    summed warm-state budget (0 = unlimited)
//   --default-deadline-ms=N server-side per-request deadline cap
//   --default-work-budget=N server-side per-request work-unit cap
//   --max-frame-mb=N        frame payload cap (default 8 MiB)
//   --no-lazy-expansion     opt out of lazy (counterexample-guided)
//                           expansion in the tenant sessions; lazy is
//                           the default and answers are bit-identical
//                           either way
//   --state-dir=DIR         durable warm-state snapshots (off by default):
//                           spill after each batch / eviction / shutdown,
//                           restore on Open (src/persist)
//   --version               print snapshot format + ABI fingerprint, exit
//
// Environment: CAR_IO_FAULT_INJECT=N makes the Nth and every later
// persistence I/O op fail deterministically (crash-safety tests only).
//
// Socket transports accept connections until a ShutdownRequest is
// served; stdio serves until EOF or shutdown. Exit codes: 0 clean
// shutdown or client EOF, 3 usage error, 4 transport failure.

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "base/strings.h"
#include "persist/snapshot_format.h"
#include "serve/server.h"

namespace car {
namespace serve {
namespace {

constexpr int kExitOk = 0;
constexpr int kExitUsage = 3;
constexpr int kExitTransport = 4;

struct Flags {
  ServerOptions server;
  uint32_t max_frame_payload = kDefaultMaxFramePayload;
  /// Exactly one transport: stdio unless --unix/--listen is given.
  std::string unix_path;
  int tcp_port = -1;
};

int Usage() {
  std::cerr
      << "usage: car_serve [--unix=PATH | --listen=PORT] [options]\n"
         "transports:\n"
         "  (default)               stdio: frames on stdin/stdout\n"
         "  --unix=PATH             Unix-domain stream socket at PATH\n"
         "  --listen=PORT           TCP on 127.0.0.1:PORT\n"
         "options:\n"
         "  --threads=N             worker threads per query batch\n"
         "                          (1 = serial, 0 = hardware concurrency)\n"
         "  --max-sessions=N        resident warm-session cap\n"
         "  --memory-budget-mb=N    warm-state memory budget (0 = none)\n"
         "  --default-deadline-ms=N per-request deadline cap\n"
         "  --default-work-budget=N per-request work-unit cap\n"
         "  --max-frame-mb=N        frame payload cap in MiB\n"
         "  --no-lazy-expansion     disable lazy expansion in sessions\n"
         "                          (the default; answers are identical)\n"
         "  --state-dir=DIR         durable warm-state snapshot directory\n"
         "  --version               print snapshot format/ABI, exit\n"
         "exit codes:\n"
         "  0  clean shutdown (ShutdownRequest or client EOF)\n"
         "  3  usage error\n"
         "  4  transport failure\n";
  return kExitUsage;
}

/// Parses `--name=<uint64>` into `*value`; returns false (after printing
/// a diagnostic) on malformed input.
bool ParseUint64Flag(const std::string& arg, size_t prefix_len,
                     uint64_t* value) {
  std::optional<uint64_t> parsed =
      ParseUint64(std::string_view(arg).substr(prefix_len));
  if (!parsed) {
    std::cerr << "bad flag value '" << arg << "'\n";
    return false;
  }
  *value = *parsed;
  return true;
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    uint64_t value = 0;
    if (arg.rfind("--threads=", 0) == 0) {
      if (!ParseUint64Flag(arg, 10, &value) || value > 1024) return false;
      flags->server.num_threads = static_cast<int>(value);
    } else if (arg.rfind("--max-sessions=", 0) == 0) {
      if (!ParseUint64Flag(arg, 15, &value)) return false;
      flags->server.max_sessions = value;
    } else if (arg.rfind("--memory-budget-mb=", 0) == 0) {
      if (!ParseUint64Flag(arg, 19, &value)) return false;
      flags->server.memory_budget_bytes = value << 20;
    } else if (arg.rfind("--default-deadline-ms=", 0) == 0) {
      if (!ParseUint64Flag(arg, 22, &value)) return false;
      flags->server.request_limits.deadline_ms = value;
    } else if (arg.rfind("--default-work-budget=", 0) == 0) {
      if (!ParseUint64Flag(arg, 22, &value)) return false;
      flags->server.request_limits.work_budget = value;
    } else if (arg.rfind("--max-frame-mb=", 0) == 0) {
      if (!ParseUint64Flag(arg, 15, &value) || value == 0 ||
          value > 512) {
        return false;
      }
      flags->max_frame_payload = static_cast<uint32_t>(value << 20);
    } else if (arg == "--no-lazy-expansion") {
      flags->server.lazy_expansion = false;
    } else if (arg.rfind("--state-dir=", 0) == 0) {
      flags->server.state_dir = arg.substr(12);
      if (flags->server.state_dir.empty()) return false;
    } else if (arg.rfind("--unix=", 0) == 0) {
      flags->unix_path = arg.substr(7);
      if (flags->unix_path.empty()) return false;
    } else if (arg.rfind("--listen=", 0) == 0) {
      if (!ParseUint64Flag(arg, 9, &value) || value == 0 ||
          value > 65535) {
        return false;
      }
      flags->tcp_port = static_cast<int>(value);
    } else {
      std::cerr << "unknown flag '" << arg << "'\n";
      return false;
    }
  }
  if (!flags->unix_path.empty() && flags->tcp_port >= 0) {
    std::cerr << "--unix and --listen are mutually exclusive\n";
    return false;
  }
  return true;
}

int ServeStdio(const Flags& flags) {
  Server server(flags.server);
  Status status = ServeStream(&server, STDIN_FILENO, STDOUT_FILENO,
                              flags.max_frame_payload);
  if (!status.ok()) {
    std::cerr << "car_serve: " << status << "\n";
    return kExitTransport;
  }
  return kExitOk;
}

/// One connection thread plus its completion flag, so the accept loop
/// can reap finished threads without blocking in join().
struct Connection {
  std::thread thread;
  std::shared_ptr<std::atomic<bool>> done;
};

/// Joins and drops every connection whose thread has finished; a daemon
/// under connection churn keeps only live connections resident.
void ReapFinished(std::vector<Connection>* connections) {
  for (auto it = connections->begin(); it != connections->end();) {
    if (it->done->load(std::memory_order_acquire)) {
      it->thread.join();
      it = connections->erase(it);
    } else {
      ++it;
    }
  }
}

/// Accept loop shared by both socket transports: serves each connection
/// on its own thread (the server serializes request dispatch internally)
/// and polls the shutdown flag between accepts. Idle connections observe
/// shutdown themselves (ServeStream's reads poll the flag), so the final
/// drain terminates even with silent clients attached.
int AcceptLoop(const Flags& flags, int listen_fd) {
  Server server(flags.server);
  std::vector<Connection> connections;
  int exit_code = kExitOk;
  while (!server.shutdown_requested()) {
    ReapFinished(&connections);
    struct pollfd pfd = {};
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      std::cerr << "car_serve: poll: " << std::strerror(errno) << "\n";
      exit_code = kExitTransport;
      break;
    }
    if (ready == 0) continue;  // Timeout: re-check the shutdown flag.
    int conn_fd = ::accept(listen_fd, nullptr, nullptr);
    if (conn_fd < 0) {
      if (errno == EINTR) continue;
      std::cerr << "car_serve: accept: " << std::strerror(errno) << "\n";
      exit_code = kExitTransport;
      break;
    }
    auto done = std::make_shared<std::atomic<bool>>(false);
    std::thread thread(
        [&server, conn_fd, max_frame = flags.max_frame_payload, done] {
          Status status =
              ServeStream(&server, conn_fd, conn_fd, max_frame);
          if (!status.ok()) {
            std::cerr << "car_serve: connection: " << status << "\n";
          }
          ::close(conn_fd);
          done->store(true, std::memory_order_release);
        });
    connections.push_back({std::move(thread), std::move(done)});
  }
  for (Connection& connection : connections) connection.thread.join();
  ::close(listen_fd);
  return exit_code;
}

int ServeUnix(const Flags& flags) {
  struct sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  if (flags.unix_path.size() >= sizeof(addr.sun_path)) {
    std::cerr << "car_serve: socket path too long\n";
    return kExitUsage;
  }
  std::memcpy(addr.sun_path, flags.unix_path.c_str(),
              flags.unix_path.size() + 1);
  int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::cerr << "car_serve: socket: " << std::strerror(errno) << "\n";
    return kExitTransport;
  }
  ::unlink(flags.unix_path.c_str());
  if (::bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) < 0 ||
      ::listen(listen_fd, 16) < 0) {
    std::cerr << "car_serve: bind/listen '" << flags.unix_path
              << "': " << std::strerror(errno) << "\n";
    ::close(listen_fd);
    return kExitTransport;
  }
  int exit_code = AcceptLoop(flags, listen_fd);
  ::unlink(flags.unix_path.c_str());
  return exit_code;
}

int ServeTcp(const Flags& flags) {
  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::cerr << "car_serve: socket: " << std::strerror(errno) << "\n";
    return kExitTransport;
  }
  int reuse = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(flags.tcp_port));
  if (::bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) < 0 ||
      ::listen(listen_fd, 16) < 0) {
    std::cerr << "car_serve: bind/listen port " << flags.tcp_port << ": "
              << std::strerror(errno) << "\n";
    ::close(listen_fd);
    return kExitTransport;
  }
  return AcceptLoop(flags, listen_fd);
}

int Run(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--version") {
      std::cout << "car_serve snapshot-format="
                << persist::kSnapshotFormatVersion << " abi-fingerprint="
                << std::hex << persist::SnapshotAbiFingerprint() << std::dec
                << "\n";
      return kExitOk;
    }
  }
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return Usage();
  // Deterministic persistence-fault injection for crash-safety tests:
  // same parsing contract as the flag values (reject garbage loudly).
  if (const char* inject = std::getenv("CAR_IO_FAULT_INJECT")) {
    std::string arg = std::string("CAR_IO_FAULT_INJECT=") + inject;
    uint64_t value = 0;
    if (!ParseUint64Flag(arg, 20, &value)) return Usage();
    flags.server.io_fault_after = value;
  }
  if (!flags.unix_path.empty()) return ServeUnix(flags);
  if (flags.tcp_port >= 0) return ServeTcp(flags);
  return ServeStdio(flags);
}

}  // namespace
}  // namespace serve
}  // namespace car

int main(int argc, char** argv) {
  return car::serve::Run(argc, argv);
}
