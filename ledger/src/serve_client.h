#ifndef LEDGER_SERVE_CLIENT_H_
#define LEDGER_SERVE_CLIENT_H_

#include <sys/types.h>

#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"

namespace ledger {

/// A limcap_serve daemon run as a child process on an ephemeral loopback
/// port. The destructor stops a daemon that is still running (SIGTERM,
/// then SIGKILL) and always reaps it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `binary` with `args` (plus --port 0) and waits for its
  /// "LISTENING <port>" line.
  limcap::Status Start(const std::string& binary,
                       const std::vector<std::string>& args);

  int port() const { return port_; }

  /// The daemon's peak resident set (VmHWM) in MB, read from /proc.
  double PeakRssMb() const;

  /// Waits for the daemon to exit (after a shutdown frame); on timeout
  /// terminates it. Returns its exit status as waitpid reports it.
  limcap::Status Wait(double timeout_s);

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
};

/// A blocking loopback connection speaking the serve protocol.
class ServeConnection {
 public:
  ServeConnection() = default;
  ~ServeConnection();
  ServeConnection(const ServeConnection&) = delete;
  ServeConnection& operator=(const ServeConnection&) = delete;

  limcap::Status Connect(int port);

  /// Sends one message payload and reads one reply frame; `*reply_bytes`
  /// gets the reply payload size.
  limcap::Result<limcap::Json> Call(const std::string& payload,
                                    std::size_t* reply_bytes = nullptr);

 private:
  int fd_ = -1;
};

}  // namespace ledger

#endif  // LEDGER_SERVE_CLIENT_H_
