// The benchmark's side of the cgpad wire: the daemon as a child process,
// and one Unix-socket connection carrying newline-delimited frames.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "serve/framing.hpp"

namespace perfbench {

/// cgpad started as a child process listening on `socketPath` with
/// `workers` pool threads. The destructor kills and reaps a daemon that
/// was not shut down, so no exit path leaves it running.
class Daemon {
public:
  Daemon(const std::string& binary, const std::string& socketPath,
         int workers, const std::string& logPath);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Wait until the daemon's socket exists; false if the daemon exited
  /// first or `deadline` passed.
  bool waitReady(std::chrono::steady_clock::time_point deadline);

  /// Peak resident set (VmHWM) in MiB; 0 when unavailable.
  double peakRssMiB() const;

  /// Send op=shutdown and wait up to `timeout` for a clean exit, then
  /// kill. True when the daemon exited with status 0 on its own.
  bool shutdown(std::chrono::seconds timeout);

private:
  std::string socketPath_;
  pid_t pid_ = -1;
};

/// One client connection. Frames are written by one thread at a time and
/// read by one thread at a time; the two may be different threads.
class Connection {
public:
  /// Connect, retrying until `deadline` while the daemon starts up. A
  /// receive that waits longer than `receiveTimeout` fails, and so does
  /// every later receive on the connection.
  static std::unique_ptr<Connection>
  open(const std::string& socketPath,
       std::chrono::steady_clock::time_point deadline,
       std::chrono::milliseconds receiveTimeout = std::chrono::seconds(60));
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool send(const std::string& frame);
  /// Next response frame; nullopt on end of stream, error or timeout.
  std::optional<std::string> receive();

private:
  explicit Connection(int fd);
  int fd_;
  cgpa::serve::FrameReader reader_;
};

/// Jobs in flight across every client thread of a run, and when one was
/// last sent or answered.
class Activity {
public:
  void sent() { outstanding_++, touch(); }
  void answered() { outstanding_--, touch(); }
  void touch();
  bool quietFor(std::chrono::milliseconds quiet) const;

private:
  std::atomic<std::int64_t> outstanding_{0};
  std::atomic<std::int64_t> lastNs_{0};
};

/// cgpad's socket mode parks its main thread on the job queue's condition
/// variable (Server::waitForShutdownRequest), so an enqueue's notify_one
/// can wake that thread instead of a worker. The job then waits until the
/// next enqueue or until a busy worker finishes. When jobs are in flight
/// but nothing was sent or answered for `quiet`, the nudger sends one
/// cheap pinned job (ks, 10444 cycles) on its own connection to wake a
/// worker. Nudges are counted and their answers checked; the stalled
/// job's latency keeps the wait.
class Nudger {
public:
  Nudger(std::string socketPath, Activity& activity,
         std::chrono::milliseconds quiet);
  ~Nudger();
  Nudger(const Nudger&) = delete;
  Nudger& operator=(const Nudger&) = delete;

  std::uint64_t sent() const { return sent_; }
  std::uint64_t wrongAnswers() const { return wrong_; }

private:
  void loop();

  std::string socketPath_;
  Activity& activity_;
  std::chrono::milliseconds quiet_;
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> wrong_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

} // namespace perfbench
