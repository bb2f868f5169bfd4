#include "tcp_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace nsc {
namespace perfbench {

TcpClient::~TcpClient() { Close(); }

void TcpClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool TcpClient::Connect(int port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

bool TcpClient::RoundTrip(const std::string& request, std::string* response) {
  if (fd_ < 0) return false;
  const std::string line = request + "\n";
  size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = ::write(fd_, line.data() + sent, line.size() - sent);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  size_t newline;
  while ((newline = buffer_.find('\n')) == std::string::npos) {
    char chunk[8192];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
  response->assign(buffer_, 0, newline);
  buffer_.erase(0, newline + 1);
  return true;
}

}  // namespace perfbench
}  // namespace nsc
