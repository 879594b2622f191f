#include "util/net.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "util/strings.h"

#if !defined(_WIN32)
#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace vcoadc::util::net {

std::string Endpoint::describe() const {
  if (!ok) return "<invalid endpoint: " + error + ">";
  if (is_tcp) return util::format("tcp:127.0.0.1:%d", tcp_port);
  return unix_path;
}

Endpoint parse_endpoint(std::string_view spec) {
  Endpoint ep;
  if (spec.empty()) {
    ep.error = "empty endpoint (want tcp:<port> or a unix socket path)";
    return ep;
  }
  if (starts_with(spec, "tcp:")) {
    const std::string port_str(spec.substr(4));
    char* end = nullptr;
    const long port = std::strtol(port_str.c_str(), &end, 10);
    if (port_str.empty() || end == nullptr || *end != '\0' || port < 0 ||
        port > 65535) {
      ep.error = "bad tcp port '" + port_str + "' (want 0..65535)";
      return ep;
    }
    ep.is_tcp = true;
    ep.tcp_port = static_cast<int>(port);
    ep.ok = true;
    return ep;
  }
  if (starts_with(spec, "unix:")) spec.remove_prefix(5);
  if (spec.empty()) {
    ep.error = "empty unix socket path";
    return ep;
  }
  ep.unix_path = std::string(spec);
  ep.ok = true;
  return ep;
}

#if !defined(_WIN32)

void ignore_sigpipe() { std::signal(SIGPIPE, SIG_IGN); }

Connection::~Connection() { close(); }

Connection::Connection(Connection&& o) noexcept
    : fd_(o.fd_), buf_(std::move(o.buf_)), scanned_(o.scanned_) {
  o.fd_ = -1;
  o.scanned_ = 0;
}

Connection& Connection::operator=(Connection&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    buf_ = std::move(o.buf_);
    scanned_ = o.scanned_;
    o.fd_ = -1;
    o.scanned_ = 0;
  }
  return *this;
}

void Connection::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buf_.clear();
  scanned_ = 0;
}

Connection::ReadStatus Connection::read_line(std::string* line,
                                             const std::atomic<bool>* stop,
                                             int poll_ms) {
  if (fd_ < 0) return ReadStatus::kError;
  while (true) {
    // Only bytes appended since the last scan can hold the terminator.
    const std::size_t nl = buf_.find('\n', scanned_);
    if (nl != std::string::npos) {
      line->assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      scanned_ = 0;
      if (!line->empty() && line->back() == '\r') line->pop_back();
      return ReadStatus::kLine;
    }
    scanned_ = buf_.size();
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
      return ReadStatus::kStop;
    }
    struct pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    const int pr = ::poll(&pfd, 1, stop != nullptr ? poll_ms : -1);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return ReadStatus::kError;
    }
    if (pr == 0) continue;  // slice elapsed; re-check the stop flag
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n == 0) return ReadStatus::kEof;  // partial buf_ is mid-line junk
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return ReadStatus::kError;
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool Connection::write_all(std::string_view bytes) {
  if (fd_ < 0) return false;
  std::size_t off = 0;
  while (off < bytes.size()) {
    // MSG_NOSIGNAL: a peer that closed mid-response yields EPIPE here,
    // never a process-wide SIGPIPE.
    ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) {
      n = ::write(fd_, bytes.data() + off, bytes.size() - off);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool Connection::write_line(std::string_view line) {
  return write_all(line) && write_all("\n");
}

Listener::~Listener() { close(); }

Listener::Listener(Listener&& o) noexcept
    : fd_(o.fd_), port_(o.port_), unix_path_(std::move(o.unix_path_)) {
  o.fd_ = -1;
  o.unix_path_.clear();
}

Listener& Listener::operator=(Listener&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    port_ = o.port_;
    unix_path_ = std::move(o.unix_path_);
    o.fd_ = -1;
    o.unix_path_.clear();
  }
  return *this;
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!unix_path_.empty()) {
    ::unlink(unix_path_.c_str());
    unix_path_.clear();
  }
}

namespace {

/// Fills `sa` for a unix endpoint; false when the path exceeds sun_path.
bool fill_unix_addr(const std::string& path, sockaddr_un* sa,
                    std::string* error) {
  if (path.size() >= sizeof(sa->sun_path)) {
    *error = util::format("unix socket path too long (%zu bytes, max %zu)",
                          path.size(), sizeof(sa->sun_path) - 1);
    return false;
  }
  std::memset(sa, 0, sizeof *sa);
  sa->sun_family = AF_UNIX;
  std::memcpy(sa->sun_path, path.c_str(), path.size() + 1);
  return true;
}

}  // namespace

Listener Listener::listen(const Endpoint& ep, std::string* error) {
  Listener l;
  if (!ep.ok) {
    *error = ep.error;
    return l;
  }
  if (ep.is_tcp) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      *error = util::format("socket: %s", std::strerror(errno));
      return l;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sa.sin_port = htons(static_cast<std::uint16_t>(ep.tcp_port));
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0 ||
        ::listen(fd, 64) != 0) {
      *error = util::format("bind/listen tcp:%d: %s", ep.tcp_port,
                            std::strerror(errno));
      ::close(fd);
      return l;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      l.port_ = static_cast<int>(ntohs(bound.sin_port));
    }
    l.fd_ = fd;
    return l;
  }

  sockaddr_un sa{};
  if (!fill_unix_addr(ep.unix_path, &sa, error)) return l;
  // A stale socket file from a killed server blocks bind; unlink it only
  // when it really is a socket, so a path typo never deletes user data.
  struct stat st{};
  if (::lstat(ep.unix_path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      *error = ep.unix_path + " exists and is not a socket";
      return l;
    }
    ::unlink(ep.unix_path.c_str());
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = util::format("socket: %s", std::strerror(errno));
    return l;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0 ||
      ::listen(fd, 64) != 0) {
    *error = util::format("bind/listen %s: %s", ep.unix_path.c_str(),
                          std::strerror(errno));
    ::close(fd);
    return l;
  }
  l.fd_ = fd;
  l.unix_path_ = ep.unix_path;
  return l;
}

Listener::AcceptStatus Listener::accept(Connection* out,
                                        const std::atomic<bool>* stop,
                                        int poll_ms) {
  if (fd_ < 0) return AcceptStatus::kError;
  while (true) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
      return AcceptStatus::kStop;
    }
    struct pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    const int pr = ::poll(&pfd, 1, stop != nullptr ? poll_ms : -1);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return AcceptStatus::kError;
    }
    if (pr == 0) continue;
    const int cfd = ::accept(fd_, nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == ECONNABORTED) {
        continue;
      }
      return AcceptStatus::kError;
    }
    *out = Connection(cfd);
    return AcceptStatus::kAccepted;
  }
}

Connection dial(const Endpoint& ep, std::string* error) {
  if (!ep.ok) {
    *error = ep.error;
    return Connection();
  }
  if (ep.is_tcp) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      *error = util::format("socket: %s", std::strerror(errno));
      return Connection();
    }
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sa.sin_port = htons(static_cast<std::uint16_t>(ep.tcp_port));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
      *error = util::format("connect tcp:%d: %s", ep.tcp_port,
                            std::strerror(errno));
      ::close(fd);
      return Connection();
    }
    return Connection(fd);
  }
  sockaddr_un sa{};
  if (!fill_unix_addr(ep.unix_path, &sa, error)) return Connection();
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = util::format("socket: %s", std::strerror(errno));
    return Connection();
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
    *error = util::format("connect %s: %s", ep.unix_path.c_str(),
                          std::strerror(errno));
    ::close(fd);
    return Connection();
  }
  return Connection(fd);
}

#else  // _WIN32: the socket transport is POSIX-only; everything degrades
       // to a clean error so the stdio transport still works.

void ignore_sigpipe() {}
Connection::~Connection() = default;
Connection::Connection(Connection&&) noexcept {}
Connection& Connection::operator=(Connection&&) noexcept { return *this; }
void Connection::close() {}
Connection::ReadStatus Connection::read_line(std::string*,
                                             const std::atomic<bool>*, int) {
  return ReadStatus::kError;
}
bool Connection::write_all(std::string_view) { return false; }
bool Connection::write_line(std::string_view) { return false; }
Listener::~Listener() = default;
Listener::Listener(Listener&&) noexcept {}
Listener& Listener::operator=(Listener&&) noexcept { return *this; }
void Listener::close() {}
Listener Listener::listen(const Endpoint&, std::string* error) {
  *error = "socket transport is not supported on this platform";
  return Listener();
}
Listener::AcceptStatus Listener::accept(Connection*,
                                        const std::atomic<bool>*, int) {
  return AcceptStatus::kError;
}
Connection dial(const Endpoint&, std::string* error) {
  *error = "socket transport is not supported on this platform";
  return Connection();
}

#endif

}  // namespace vcoadc::util::net
