// Blocking loopback client for the nsc_serve line protocol: one request
// line out, one response line back.
#ifndef NSCACHING_PERFBENCH_TCP_CLIENT_H_
#define NSCACHING_PERFBENCH_TCP_CLIENT_H_

#include <string>

namespace nsc {
namespace perfbench {

class TcpClient {
 public:
  TcpClient() = default;
  ~TcpClient();
  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  /// Connects to 127.0.0.1:`port`; false on failure.
  bool Connect(int port);

  /// Sends `request` plus '\n' and returns the response line without its
  /// newline; false when the connection failed.
  bool RoundTrip(const std::string& request, std::string* response);

  void Close();

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace perfbench
}  // namespace nsc

#endif  // NSCACHING_PERFBENCH_TCP_CLIENT_H_
