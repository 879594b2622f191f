// Minimal socket transport layer for the evaluation service.
//
// The serve loop multiplexes many clients onto one warm ExecContext; this
// file owns the OS-facing half of that: endpoint parsing (`tcp:<port>` or
// a unix-socket path), a listening socket, and an accepted-connection
// wrapper with buffered newline-delimited line I/O. Everything is
// poll-sliced so a caller-owned stop flag (the graceful-shutdown signal)
// is honored within one slice even while blocked on a quiet peer.
//
// Failure policy mirrors the rest of the repo: no exceptions across the
// boundary, no process-killing signals. Writes use MSG_NOSIGNAL (EPIPE
// surfaces as a false return, never SIGPIPE), and ignore_sigpipe() covers
// the stdio transport whose sink is not a socket.
#pragma once

#include <atomic>
#include <string>
#include <string_view>

namespace vcoadc::util::net {

/// Parsed listen/connect endpoint. `tcp:<port>` binds/dials loopback
/// (port 0 = ephemeral, resolved via Listener::port()); anything else is
/// a unix-domain socket path, with an optional `unix:` prefix.
struct Endpoint {
  bool ok = false;
  std::string error;  ///< parse failure reason when !ok
  bool is_tcp = false;
  int tcp_port = 0;
  std::string unix_path;

  /// Human-readable form for logs ("tcp:127.0.0.1:8080" / the path).
  std::string describe() const;
};

Endpoint parse_endpoint(std::string_view spec);

/// Process-wide SIGPIPE -> SIG_IGN (idempotent). A client closing its
/// pipe must surface as a failed write, never kill the service.
void ignore_sigpipe();

/// One accepted (or dialed) stream connection: RAII fd plus a buffered
/// line reader. Move-only.
class Connection {
 public:
  enum class ReadStatus {
    kLine,   ///< a complete '\n'-terminated line was read (stripped)
    kEof,    ///< peer closed; a trailing partial line is dropped
    kStop,   ///< *stop became true before a full line arrived
    kError,  ///< read failed
  };

  Connection() = default;
  explicit Connection(int fd) : fd_(fd) {}
  ~Connection();
  Connection(Connection&& o) noexcept;
  Connection& operator=(Connection&& o) noexcept;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Reads one line, polling in `poll_ms` slices and checking `stop`
  /// between slices (null stop = block indefinitely).
  ReadStatus read_line(std::string* line,
                       const std::atomic<bool>* stop = nullptr,
                       int poll_ms = 200);

  /// Writes every byte (short writes and EINTR are retried). False on any
  /// error — a dead peer reports here instead of raising SIGPIPE.
  bool write_all(std::string_view bytes);

  /// Writes `line` plus the '\n' terminator.
  bool write_line(std::string_view line);

  void close();

 private:
  int fd_ = -1;
  std::string buf_;  ///< bytes read past the last returned line
  std::size_t scanned_ = 0;  ///< leading bytes of buf_ known to hold no '\n'
};

/// Listening socket over either endpoint kind. A stale unix socket file
/// left by a killed server is unlinked before bind (only if it really is
/// a socket); the path is unlinked again on close so a clean shutdown
/// leaves nothing behind. TCP binds loopback only — the service carries
/// no authentication, so it must not listen on public interfaces.
class Listener {
 public:
  enum class AcceptStatus { kAccepted, kStop, kError };

  Listener() = default;
  ~Listener();
  Listener(Listener&& o) noexcept;
  Listener& operator=(Listener&& o) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Opens a listening socket on `ep`. Invalid listener + `*error` on
  /// failure.
  static Listener listen(const Endpoint& ep, std::string* error);

  bool valid() const { return fd_ >= 0; }
  /// Bound TCP port (resolves tcp:0 to the kernel-assigned port); 0 for
  /// unix endpoints.
  int port() const { return port_; }
  const std::string& unix_path() const { return unix_path_; }

  /// Accepts one connection, polling in `poll_ms` slices against `stop`.
  AcceptStatus accept(Connection* out, const std::atomic<bool>* stop,
                      int poll_ms = 200);

  void close();

 private:
  int fd_ = -1;
  int port_ = 0;
  std::string unix_path_;  ///< unlinked on close when non-empty
};

/// Dials `ep`; invalid Connection + `*error` on failure.
Connection dial(const Endpoint& ep, std::string* error);

}  // namespace vcoadc::util::net
