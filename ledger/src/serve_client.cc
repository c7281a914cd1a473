#include "serve_client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <thread>

#include "mediator/serve_protocol.h"

extern char** environ;

namespace ledger {

using limcap::Status;

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    if (!Wait(10).ok() && pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

Status ServerProcess::Start(const std::string& binary,
                            const std::vector<std::string>& args) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return Status::Internal("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[0]);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[1]);
  std::vector<std::string> argv_storage = {binary, "--port", "0"};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[1]);
  stdout_fd_ = pipe_fds[0];
  if (rc != 0) {
    pid_ = -1;
    return Status::Internal("cannot start " + binary + ": " +
                            std::strerror(rc));
  }
  // Scrape "LISTENING <port>\n".
  std::string line;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(60);
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return Status::Internal("daemon never listened");
    pollfd fd = {stdout_fd_, POLLIN, 0};
    if (::poll(&fd, 1, static_cast<int>(left.count())) <= 0) continue;
    char buffer[256];
    const ssize_t n = ::read(stdout_fd_, buffer, sizeof(buffer));
    if (n <= 0) return Status::Internal("daemon exited before listening");
    line.append(buffer, static_cast<std::size_t>(n));
  }
  if (line.rfind("LISTENING ", 0) != 0) {
    return Status::Internal("unexpected daemon output: " + line);
  }
  port_ = std::atoi(line.c_str() + 10);
  return port_ > 0 ? Status::OK() : Status::Internal("bad port: " + line);
}

double ServerProcess::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
    std::getline(status, key);
  }
  return 0;
}

Status ServerProcess::Wait(double timeout_s) {
  if (pid_ <= 0) return Status::OK();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  for (;;) {
    int status = 0;
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      pid_ = -1;
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return Status::OK();
      return Status::Internal("daemon exited with status " +
                              std::to_string(status));
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::DeadlineExceeded("daemon did not exit");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

ServeConnection::~ServeConnection() {
  if (fd_ >= 0) ::close(fd_);
}

Status ServeConnection::Connect(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Status::Internal("socket failed");
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in address;
  std::memset(&address, 0, sizeof(address));
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                sizeof(address)) != 0) {
    return Status::Internal("connect failed");
  }
  return Status::OK();
}

limcap::Result<limcap::Json> ServeConnection::Call(
    const std::string& payload, std::size_t* reply_bytes) {
  LIMCAP_RETURN_NOT_OK(limcap::mediator::WriteFrame(fd_, payload));
  LIMCAP_ASSIGN_OR_RETURN(std::string reply,
                          limcap::mediator::ReadFrame(fd_));
  if (reply_bytes != nullptr) *reply_bytes = reply.size();
  return limcap::Json::Parse(reply);
}

}  // namespace ledger
