#include "client.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <thread>

namespace perfbench {

namespace {

/// Largest response accepted: a scale-8 stats document is well under
/// this, and a runaway frame still cannot exhaust memory.
constexpr std::size_t kMaxResponseBytes = 64u << 20;

} // namespace

Daemon::Daemon(const std::string& binary, const std::string& socketPath,
               int workers, const std::string& logPath)
    : socketPath_(socketPath) {
  ::unlink(socketPath.c_str());
  const std::string workersArg = std::to_string(workers);
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Die with the benchmark, so a crash there cannot orphan the daemon.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int log = ::open(logPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) {
      ::dup2(log, 1);
      ::dup2(log, 2);
      ::close(log);
    }
    ::execl(binary.c_str(), binary.c_str(), "--socket", socketPath.c_str(),
            "--workers", workersArg.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  pid_ = pid;
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  ::unlink(socketPath_.c_str());
}

bool Daemon::waitReady(std::chrono::steady_clock::time_point deadline) {
  while (pid_ > 0 && std::chrono::steady_clock::now() < deadline) {
    if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    if (::access(socketPath_.c_str(), F_OK) == 0)
      return true;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return false;
}

double Daemon::peakRssMiB() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

bool Daemon::shutdown(std::chrono::seconds timeout) {
  if (pid_ <= 0)
    return false;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  if (std::unique_ptr<Connection> conn = Connection::open(
          socketPath_, std::chrono::steady_clock::now() + timeout)) {
    conn->send(R"({"schema":"cgpa.job.v1","id":"shutdown","op":"shutdown"})");
    conn->receive();
  }
  int status = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
  return false;
}

Connection::Connection(int fd)
    : fd_(fd), reader_(cgpa::serve::fdFrameReader(fd, kMaxResponseBytes)) {}

Connection::~Connection() { ::close(fd_); }

std::unique_ptr<Connection>
Connection::open(const std::string& socketPath,
                 std::chrono::steady_clock::time_point deadline,
                 std::chrono::milliseconds receiveTimeout) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socketPath.size() >= sizeof(addr.sun_path))
    return nullptr;
  std::memcpy(addr.sun_path, socketPath.c_str(), socketPath.size() + 1);
  while (true) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
      return nullptr;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      timeval tv{};
      tv.tv_sec = static_cast<time_t>(receiveTimeout.count() / 1000);
      tv.tv_usec = static_cast<suseconds_t>(receiveTimeout.count() % 1000 * 1000);
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      return std::unique_ptr<Connection>(new Connection(fd));
    }
    ::close(fd);
    if (std::chrono::steady_clock::now() >= deadline)
      return nullptr;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

bool Connection::send(const std::string& frame) {
  return cgpa::serve::writeFrame(fd_, frame).ok();
}

std::optional<std::string> Connection::receive() {
  cgpa::Expected<std::optional<std::string>> frame = reader_.next();
  if (!frame.ok())
    return std::nullopt;
  return *frame;
}

namespace {

std::int64_t steadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace

void Activity::touch() { lastNs_ = steadyNs(); }

bool Activity::quietFor(std::chrono::milliseconds quiet) const {
  return outstanding_ > 0 &&
         steadyNs() - lastNs_ >
             std::chrono::duration_cast<std::chrono::nanoseconds>(quiet)
                 .count();
}

Nudger::Nudger(std::string socketPath, Activity& activity,
               std::chrono::milliseconds quiet)
    : socketPath_(std::move(socketPath)), activity_(activity), quiet_(quiet),
      thread_([this] { loop(); }) {}

Nudger::~Nudger() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Nudger::loop() {
  std::unique_ptr<Connection> conn;
  std::unique_lock lock(mutex_);
  while (!cv_.wait_for(lock, std::chrono::milliseconds(5),
                       [this] { return stop_; })) {
    if (!activity_.quietFor(quiet_))
      continue;
    activity_.touch();
    lock.unlock();
    if (!conn)
      conn = Connection::open(
          socketPath_, std::chrono::steady_clock::now() + quiet_, quiet_);
    const std::string frame =
        R"({"schema":"cgpa.job.v1","id":"nudge","op":"run","kernel":"ks"})";
    if (conn && conn->send(frame)) {
      ++sent_;
      // A nudge can itself lose its wakeup; then the connection times out
      // and the next nudge goes out on a fresh one.
      const std::optional<std::string> answer = conn->receive();
      if (!answer)
        conn.reset();
      else if (answer->find("\"cycles\":10444,") == std::string::npos ||
               answer->find("\"correct\":true") == std::string::npos)
        ++wrong_;
    } else {
      conn.reset();
    }
    lock.lock();
  }
}

} // namespace perfbench
