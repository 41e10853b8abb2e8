#include "ro/serve/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "ro/util/flatjson.h"

namespace ro::serve {

bool Client::connect(const std::string& socket_path, std::string* error) {
  close();
  if (socket_path.empty() ||
      socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    if (error != nullptr) *error = "socket path empty or too long";
    return false;
  }
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    if (error != nullptr) *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    if (error != nullptr)
      *error = "connect " + socket_path + ": " + std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  return true;
}

void Client::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
}

bool Client::exchange(const std::string& line, std::string& reply) {
  if (fd_ < 0) return false;
  std::string out = line;
  out += '\n';
  size_t off = 0;
  while (off < out.size()) {
    const ssize_t w = ::write(fd_, out.data() + off, out.size() - off);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(w);
  }
  for (;;) {
    const size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      reply = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t r = ::read(fd_, chunk, sizeof chunk);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return false;
    }
    buf_.append(chunk, static_cast<size_t>(r));
  }
}

bool Client::submit(const JobSpec& spec, JobResult& out) {
  std::string req = "{";
  json::kv_str(req, "op", "submit");
  json::kv_raw(req, "spec", spec.to_json());
  req += "}";
  std::string reply;
  if (!exchange(req, reply)) return false;
  return jobresult_from_json(reply, out);
}

bool Client::stats(Admission::Stats& out, uint64_t* jobs) {
  std::string reply;
  if (!exchange("{\"op\":\"stats\"}", reply)) return false;
  StatsReply r;
  if (!json::read_object(reply, r)) return false;
  out = r.st;
  if (jobs != nullptr) *jobs = r.jobs;
  return true;
}

bool Client::shutdown() {
  std::string reply;
  if (!exchange("{\"op\":\"shutdown\"}", reply)) return false;
  return reply.find("\"ok\":1") != std::string::npos;
}

}  // namespace ro::serve
