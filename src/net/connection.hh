/**
 * @file
 * One accepted client connection: a nonblocking fd plus buffered,
 * framed I/O.
 *
 * Reads land straight in the protocol Decoder's buffer (recv()
 * writes into the room Decoder::prepare() hands out, with no bounce
 * buffer and no copy), and the server pulls frames from it with
 * next(): a Submit comes back as a view over that buffer, valid until
 * the next readReady(). A protocol error (malformed frame, oversized
 * length, unknown type) poisons the connection — the server counts
 * it and closes the socket, because a length-prefixed stream cannot
 * resynchronize.
 *
 * Writes queue into an out-buffer flushed opportunistically: the
 * server queues every answer one loop pass produces, flushes each
 * touched connection once at the end of the pass, and falls back to
 * EPOLLOUT when the socket would block. A plan hit's answer is
 * written in place: the server reserves its SubmitResult frame in the
 * out-buffer (reserve(), never zero-filled), the engine gathers the
 * payload into it, and commit() queues it. The out-buffer size is the
 * per-connection backpressure signal — above the server's high
 * watermark the connection stops being read (its EPOLLIN is
 * dropped), which in turn stops admission from that client, the
 * socket analogue of the stream engine's shed-on-full-ring. The
 * connection remembers the event mask last registered for its fd,
 * so the server issues EPOLL_CTL_MOD only when that mask changes.
 *
 * Owned and driven exclusively by the server's event-loop thread.
 */

#ifndef SRBENES_NET_CONNECTION_HH
#define SRBENES_NET_CONNECTION_HH

#include <cstdint>
#include <string>

#include "net/protocol.hh"

namespace srbenes
{
namespace obs
{
class Counter;
} // namespace obs

namespace net
{

class Connection
{
  public:
    /** @p writes, when not null, counts every send() flush() makes. */
    Connection(int fd, std::uint64_t id, std::size_t max_frame,
               obs::Counter *writes);
    ~Connection();

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    int fd() const { return fd_; }
    std::uint64_t id() const { return id_; }

    enum class ReadResult
    {
        Ok,     //!< bytes (possibly none) read; pull frames with next()
        Closed, //!< orderly EOF or a socket error
    };

    /**
     * Drain the socket's readable bytes into the decoder's buffer, up
     * to a per-pass budget (1 MiB). Invalidates every view next()
     * returned before it.
     */
    ReadResult readReady();

    /**
     * The next complete frame read so far (Decoder::next). On Error
     * @p error carries the decoder's explanation; close the
     * connection.
     */
    DecodeStatus
    next(Frame &out, std::string *error = nullptr)
    {
        return decoder_.next(out, error);
    }

    /** Encode @p m onto the out-buffer (no I/O). */
    void queue(const Message &m);

    /** @{ Room for a frame of @p len bytes at the out-buffer's end,
     *  uninitialized, valid until the next queue() or reserve(); then
     *  queue the @p len bytes written there. */
    std::uint8_t *reserve(std::size_t len) { return out_.prepare(len); }
    void commit(std::size_t len) { out_.commit(len); }
    /** @} */

    /**
     * Flush as much of the out-buffer as the socket accepts.
     * False on a socket error (close the connection).
     */
    bool flush();

    /** Bytes queued but not yet written. */
    std::size_t pendingOut() const { return out_.size(); }

    bool wantsWrite() const { return pendingOut() > 0; }

    /** @{ Server-maintained admission state. */
    std::size_t inflight = 0;
    bool reading_paused = false;
    /** Event mask last registered with epoll for fd(). */
    std::uint32_t registered_events = 0;
    /** Queued answers this loop pass; flushed once at its end. */
    bool flush_pending = false;
    /** @} */

  private:
    int fd_;
    std::uint64_t id_;
    obs::Counter *writes_;
    Decoder decoder_;
    ByteBuffer out_;
};

} // namespace net
} // namespace srbenes

#endif // SRBENES_NET_CONNECTION_HH
