#include "ro/serve/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "ro/util/flatjson.h"

namespace ro::serve {

namespace {

/// Writes the whole buffer, riding out short writes; false on a dead peer.
bool write_all(int fd, const char* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    const ssize_t w = ::write(fd, data + off, len - off);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(w);
  }
  return true;
}

bool write_line(int fd, std::string line) {
  line += '\n';
  return write_all(fd, line.data(), line.size());
}

std::string error_line(const std::string& why) {
  JobResult jr;
  jr.status = JobStatus::kError;
  jr.error = why;
  return jr.to_json();
}

}  // namespace

bool Server::start(std::string* error) {
  RO_CHECK_MSG(!running_.load(), "Server::start called twice");
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why + ": " + std::strerror(errno);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  };
  if (opt_.socket_path.empty() ||
      opt_.socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    if (error != nullptr) *error = "socket path empty or too long";
    return false;
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, opt_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ::unlink(opt_.socket_path.c_str());  // stale socket from a dead server
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0)
    return fail("bind " + opt_.socket_path);
  if (::listen(listen_fd_, 64) < 0) return fail("listen");
  running_.store(true);
  stopping_.store(false);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void Server::stop() {
  // Idempotent, and safe after a remote shutdown op already cleared
  // running_: joining is guarded by joinability, not by the flag.
  running_.store(false);
  stopping_.store(true);
  // Fail queued admits fast — a connection waiting inside admit() would
  // otherwise only wake once every in-flight job drained.
  admission_.shutdown();
  {
    std::lock_guard<std::mutex> lk(listen_mu_);
    // shutdown() wakes the blocked accept(); close() waits until the
    // accept loop is joined so it never runs on a recycled fd.
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lk(listen_mu_);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
  }
  std::vector<std::unique_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lk(conn_mu_);
    conns.swap(conns_);
  }
  // Wake idle-but-open connections blocked in read(); their fds are
  // still ours (closed only after the join below), so this cannot hit a
  // recycled descriptor even if the thread already exited.
  for (const auto& c : conns) ::shutdown(c->fd, SHUT_RDWR);
  for (const auto& c : conns) {
    if (c->thread.joinable()) c->thread.join();
    ::close(c->fd);
  }
  ::unlink(opt_.socket_path.c_str());
}

void Server::accept_loop() {
  // listen_fd_ needs no lock here: stop() closes it only after joining
  // this thread, and the remote shutdown op only ever shutdown()s it.
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // stop() shut the listener down (or it died)
    }
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    std::lock_guard<std::mutex> lk(conn_mu_);
    reap_finished_locked();  // bounded tracking for a long-lived daemon
    conns_.push_back(std::make_unique<Conn>(fd));
    Conn& c = *conns_.back();
    c.thread = std::thread([this, &c] { serve_connection(c); });
  }
}

void Server::reap_finished_locked() {
  auto it = conns_.begin();
  while (it != conns_.end()) {
    if ((*it)->done.load()) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      ::close((*it)->fd);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::serve_connection(Conn& conn) {
  std::string buf;
  char chunk[4096];
  bool open = true;
  while (open && !stopping_.load()) {
    const ssize_t r = ::read(conn.fd, chunk, sizeof chunk);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      break;  // peer closed, or stop() shut this connection down
    }
    buf.append(chunk, static_cast<size_t>(r));
    size_t nl;
    while ((nl = buf.find('\n')) != std::string::npos) {
      const std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (line.size() > kMaxLineBytes) {  // protocol violation: hang up
        open = false;
        break;
      }
      if (line.empty()) continue;
      const std::string reply = handle_line(line);
      if (!write_line(conn.fd, reply)) {
        open = false;
        break;
      }
      if (stopping_.load()) {  // the line was a shutdown op
        open = false;
        break;
      }
    }
    if (buf.size() > kMaxLineBytes) open = false;  // protocol violation
  }
  // Hang up now (the peer sees EOF) but leave the fd open: the reaper or
  // stop() closes it after joining this thread, which is what lets them
  // safely shutdown() the fd of a connection in any state.
  ::shutdown(conn.fd, SHUT_RDWR);
  conn.done.store(true);
}

std::string Server::handle_line(const std::string& line) {
  std::vector<std::pair<std::string, std::string>> kvs;
  if (!json::scan_object(line, kvs))
    return error_line("malformed request line");
  std::string op, spec_raw;
  for (const auto& [k, v] : kvs) {
    if (k == "op") op = v;
    else if (k == "spec") spec_raw = v;
  }
  if (op == "stats") {
    return json::write_object(StatsReply{admission_.stats(), jobs_served()});
  }
  if (op == "shutdown") {
    stopping_.store(true);
    running_.store(false);
    admission_.shutdown();  // queued submits on other connections fail fast
    // Wake the accept loop; stop() (called by the owner) joins the rest.
    // listen_mu_ keeps this shutdown() from racing stop()'s close/reset.
    std::lock_guard<std::mutex> lk(listen_mu_);
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    return "{\"ok\":1}";
  }
  if (op != "submit") return error_line("unknown op \"" + op + "\"");

  JobSpec spec;
  std::string why;
  if (spec_raw.empty() || !jobspec_from_json(spec_raw, spec, &why))
    return error_line(why.empty() ? "missing or malformed spec" : why);

  const uint64_t bytes = estimate_job_bytes(spec);
  double queue_ms = 0;
  if (!admission_.admit(spec.tenant, bytes, &queue_ms)) {
    JobResult jr;
    jr.tenant = spec.tenant;
    jr.tag = spec.tag;
    jr.kind = spec.kind;
    if (admission_.shutting_down()) {
      jr.status = JobStatus::kError;
      jr.error = "server shutting down";
    } else {
      jr.status = JobStatus::kRejected;
      jr.error = "tenant budget exceeded: job needs " + std::to_string(bytes) +
                 " bytes, budget is " +
                 std::to_string(opt_.admission.tenant_budget_bytes);
    }
    return jr.to_json();
  }
  JobResult jr = engine_.submit(spec);
  admission_.release(spec.tenant, bytes);
  jr.queue_ms = queue_ms;
  jobs_served_.fetch_add(1);
  return jr.to_json();
}

}  // namespace ro::serve
