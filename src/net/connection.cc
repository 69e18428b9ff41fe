/**
 * @file
 * Connection I/O. Both directions run until EAGAIN so the server
 * can use level-triggered epoll without starving anyone: reads stop
 * when the kernel buffer is dry or the pass's read budget is spent,
 * writes stop when the socket stops accepting.
 */

#include "net/connection.hh"

#include <cerrno>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/metrics.hh"

namespace srbenes
{
namespace net
{
namespace
{

// One read pass takes at most this many bytes. A client that writes
// as fast as srbd reads could otherwise keep a single pass going,
// and the watermark check that follows it, without bound; epoll is
// level-triggered, so the rest is read on the next pass.
constexpr std::size_t kReadBudget = 1u << 20;

// Each recv() asks for up to this much, landing in the decoder's
// buffer; a shorter read means the kernel buffer is drained.
constexpr std::size_t kReadChunk = 65536;

} // namespace

Connection::Connection(int fd, std::uint64_t id,
                       std::size_t max_frame, obs::Counter *writes)
    : fd_(fd), id_(id), writes_(writes), decoder_(max_frame)
{
}

Connection::~Connection()
{
    if (fd_ >= 0)
        ::close(fd_);
}

Connection::ReadResult
Connection::readReady()
{
    for (std::size_t taken = 0; taken < kReadBudget;) {
        const ssize_t got =
            ::recv(fd_, decoder_.prepare(kReadChunk), kReadChunk, 0);
        if (got > 0) {
            decoder_.commit(static_cast<std::size_t>(got));
            if (static_cast<std::size_t>(got) < kReadChunk)
                break; // kernel buffer drained
            taken += static_cast<std::size_t>(got);
            continue;
        }
        if (got == 0)
            return ReadResult::Closed;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        return ReadResult::Closed;
    }
    return ReadResult::Ok;
}

void
Connection::queue(const Message &m)
{
    encode(m, out_);
}

bool
Connection::flush()
{
    while (pendingOut() > 0) {
        const ssize_t sent =
            ::send(fd_, out_.data(), pendingOut(), MSG_NOSIGNAL);
        if (writes_ != nullptr)
            writes_->inc();
        if (sent > 0) {
            out_.consume(static_cast<std::size_t>(sent));
            continue;
        }
        if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return true;
        if (sent < 0 && errno == EINTR)
            continue;
        return false;
    }
    return true;
}

} // namespace net
} // namespace srbenes
