// routesim_serve — the long-running scenario-answering daemon (build
// target: tool_routesim_serve, binary: build/tools/routesim_serve).
//
// Speaks the line-delimited JSON protocol of serve/service.hpp over one
// of three transports:
//
//   routesim_serve --store results.jsonl                   # stdin/stdout
//   routesim_serve --store results.jsonl --socket /tmp/rs.sock
//   routesim_serve --store results.jsonl --port 4871       # TCP loopback
//
// Every answered scenario is durably recorded in the --store file, so a
// restarted daemon serves yesterday's computations from disk; concurrent
// clients asking the same scenario coalesce onto one in-flight engine
// run (serve/service.hpp).  SIGINT/SIGTERM (or an {"op":"shutdown"}
// request) stop accepting, drain in-flight requests, and exit 0 — the
// store is fsync'd per record, so there is nothing else to flush.
//
// Protocol examples (see docs/SERVE.md for the full schema):
//   > {"op":"query","scenario":"hypercube_greedy d=6 rho=0.6","id":1}
//   < {"op":"query","id":1,"ok":true,"source":"computed",...}
//   > {"op":"stats"}
//   < {"op":"stats","ok":true,"queries":1,"store_hits":0,...}
//   > {"op":"metrics"}
//   < {"op":"metrics","ok":true,"format":"prometheus","metrics":"..."}
// The metrics op returns Prometheus text exposition — per-tier query
// counters and latency histograms plus engine/store/kernel metrics
// (docs/OBSERVABILITY.md catalogs the names).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/service.hpp"
#include "store/result_store.hpp"

namespace {

std::atomic<bool> g_shutdown{false};

extern "C" void handle_signal(int) { g_shutdown.store(true); }

int usage(const char* argv0, int code) {
  std::cerr << "usage: " << argv0
            << " [--store PATH] [--socket PATH | --port N] [--threads N]\n"
               "       [--compact]\n\n"
               "  --store PATH    persistent result store (JSONL); answers\n"
               "                  survive restarts and are shared with\n"
               "                  routesim_bench --store\n"
               "  --socket PATH   serve a Unix-domain socket instead of stdio\n"
               "  --port N        serve TCP on 127.0.0.1:N (0 = pick a port,\n"
               "                  printed on stderr)\n"
               "  --threads N     engine worker-pool width per computation\n"
               "                  (default: hardware concurrency); clients\n"
               "                  waiting on an identical query also run\n"
               "                  its replications\n"
               "  --compact       fold duplicate store records before serving\n"
               "\nprotocol: one JSON request per line (docs/SERVE.md);\n"
               "ops: query, grid, stats, metrics, ping, shutdown\n";
  return code;
}

// ----------------------------------------------------------- fd line I/O

bool write_all(int fd, const std::string& text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t n = ::write(fd, text.data() + sent, text.size() - sent);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads one '\n'-terminated line (terminator stripped); a final unterminated
/// chunk at EOF is delivered as a last line.  False on EOF with no data.
bool read_line(int fd, std::string* line, std::string* buffer) {
  for (;;) {
    const std::size_t pos = buffer->find('\n');
    if (pos != std::string::npos) {
      *line = buffer->substr(0, pos);
      buffer->erase(0, pos + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        if (g_shutdown.load()) return false;
        continue;
      }
      if (!buffer->empty()) {
        *line = *buffer;
        buffer->clear();
        return true;
      }
      return false;
    }
    buffer->append(chunk, static_cast<std::size_t>(n));
  }
}

// --------------------------------------------------------------- serving

/// Open client connections, so shutdown can unblock their reads.
struct ClientRegistry {
  std::mutex mutex;
  std::vector<int> fds;

  void add(int fd) {
    std::lock_guard<std::mutex> lock(mutex);
    fds.push_back(fd);
  }
  void remove(int fd) {
    std::lock_guard<std::mutex> lock(mutex);
    std::erase(fds, fd);
  }
  void shutdown_all() {
    std::lock_guard<std::mutex> lock(mutex);
    for (const int fd : fds) ::shutdown(fd, SHUT_RD);
  }
};

void client_loop(routesim::serve::QueryService& service, int fd,
                 ClientRegistry& registry) {
  std::string buffer;
  std::string line;
  while (!g_shutdown.load() && read_line(fd, &line, &buffer)) {
    const bool keep_going = routesim::serve::handle_request(
        service, line, [fd](const std::string& response) {
          write_all(fd, response + "\n");
        });
    if (!keep_going) {
      g_shutdown.store(true);
      break;
    }
  }
  registry.remove(fd);
  ::close(fd);
}

int serve_stdio(routesim::serve::QueryService& service) {
  std::string line;
  while (!g_shutdown.load() && std::getline(std::cin, line)) {
    const bool keep_going = routesim::serve::handle_request(
        service, line, [](const std::string& response) {
          std::cout << response << '\n';
          std::cout.flush();
        });
    if (!keep_going) break;
  }
  return 0;
}

int serve_socket(routesim::serve::QueryService& service, int listen_fd) {
  ClientRegistry registry;
  std::vector<std::jthread> clients;
  while (!g_shutdown.load()) {
    pollfd poller{listen_fd, POLLIN, 0};
    const int ready = ::poll(&poller, 1, /*timeout_ms=*/200);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0 || (poller.revents & POLLIN) == 0) continue;
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client < 0) continue;
    registry.add(client);
    clients.emplace_back(
        [&service, client, &registry] { client_loop(service, client, registry); });
  }
  ::close(listen_fd);
  // Drain: unblock reads so every client thread exits, then join (jthread
  // destructors). In-flight computations finish; nothing is aborted.
  registry.shutdown_all();
  return 0;
}

int listen_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    ::close(fd);
    std::cerr << "socket path too long: " << path << '\n';
    return -1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int listen_tcp(int port, int* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int reuse = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof reuse);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return -1;
  }
  sockaddr_in bound{};
  socklen_t length = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &length) == 0) {
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

}  // namespace

int main(int argc, char** argv) {
  std::string store_path;
  std::string socket_path;
  int port = -1;
  int threads = 0;
  bool compact = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return usage(argv[0], 0);
    if (arg == "--store" && i + 1 < argc) {
      store_path = argv[++i];
    } else if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (arg == "--compact") {
      compact = true;
    } else {
      std::cerr << "unknown argument '" << arg << "'\n";
      return usage(argv[0], 2);
    }
  }
  if (!socket_path.empty() && port >= 0) {
    std::cerr << "--socket and --port are mutually exclusive\n";
    return usage(argv[0], 2);
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGPIPE, SIG_IGN);  // a vanished client must not kill the daemon

  std::unique_ptr<routesim::ResultStore> store;
  if (!store_path.empty()) {
    store = std::make_unique<routesim::ResultStore>(store_path);
    if (!store->ok()) {
      std::cerr << "error: " << store->error() << '\n';
      return 1;
    }
    const auto stats = store->load_stats();
    std::cerr << "routesim_serve: store '" << store_path << "': "
              << store->size() << " results ("
              << stats.records_loaded << " records, "
              << stats.duplicate_keys << " superseded, "
              << stats.skipped_garbage << " garbage, "
              << stats.skipped_version << " version-skipped, "
              << stats.fallback_lines << " fallback lines"
              << (stats.truncated_tail ? ", truncated tail dropped" : "")
              << ")\n";
    if (compact && !store->compact()) {
      std::cerr << "error: store compaction failed\n";
      return 1;
    }
  }

  routesim::serve::QueryService service({threads, store.get()});

  if (!socket_path.empty()) {
    const int fd = listen_unix(socket_path);
    if (fd < 0) {
      std::cerr << "cannot listen on unix socket " << socket_path << '\n';
      return 1;
    }
    std::cerr << "routesim_serve: listening on " << socket_path << '\n';
    const int code = serve_socket(service, fd);
    ::unlink(socket_path.c_str());
    return code;
  }
  if (port >= 0) {
    int bound_port = port;
    const int fd = listen_tcp(port, &bound_port);
    if (fd < 0) {
      std::cerr << "cannot listen on 127.0.0.1:" << port << '\n';
      return 1;
    }
    std::cerr << "routesim_serve: listening on 127.0.0.1:" << bound_port << '\n';
    return serve_socket(service, fd);
  }
  std::cerr << "routesim_serve: serving stdin/stdout\n";
  return serve_stdio(service);
}
