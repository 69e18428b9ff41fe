/**
 * @file
 * The wire side of the benchmark: srbd as a child process, and the
 * single-threaded closed-loop generator that drives it over one
 * loopback TCP connection.
 *
 * The generator keeps a fixed window of requests in flight. Per
 * request it copies a pre-encoded Submit frame, patches its id,
 * writes it, and byte-compares the answer with the pre-encoded
 * expected SubmitResult (skipping only the id and server_ns
 * fields), so the repository's codec is never on the client side of
 * a measured round trip. It never sleeps or blocks: it runs pinned to
 * a CPU of its own and busy-polls while srbd owes it an answer, since
 * a blocked client would add its own wakeup to every round trip.
 */

#ifndef SRBENCH_WIRE_HH
#define SRBENCH_WIRE_HH

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/client.hh"
#include "workload.hh"

namespace srbench
{

class SpanLog;

/** srbd as a child process, stopped (and reaped) on destruction. */
class Srbd
{
  public:
    /**
     * fork+exec @p bin on an ephemeral loopback port at fabric size
     * @p n and wait for its "listening" line. nullptr on failure
     * (@p error says why). The child dies with this process.
     */
    static std::unique_ptr<Srbd> spawn(const std::string &bin, unsigned n,
                                       std::string &error);

    /** A handle with no process; spawn() returns running ones. */
    Srbd() = default;
    ~Srbd();
    Srbd(const Srbd &) = delete;
    Srbd &operator=(const Srbd &) = delete;

    pid_t pid() const { return pid_; }
    std::uint16_t port() const { return port_; }

    /**
     * SIGTERM (srbd's graceful drain) and reap. Returns the exit
     * code; -1 when the daemon had to be killed or died on a signal.
     */
    int stop();

  private:
    pid_t pid_ = -1;
    int stdout_fd_ = -1;
    std::uint16_t port_ = 0;
};

/** Request accounting of one generator connection. */
struct Tally
{
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    /** Answered with a status other than Ok. */
    std::uint64_t non_ok = 0;
    /** Ok, but the routed payload differs from the expectation. */
    std::uint64_t mismatch = 0;
    /** Never answered (connection lost or timed out). */
    std::uint64_t lost = 0;
    /** Malformed frame, unknown id, or unexpected type. */
    std::uint64_t protocol_errors = 0;

    std::uint64_t
    failed() const
    {
        return non_ok + mismatch + lost + protocol_errors;
    }
};

/** Per-request record of a window-1 phase. */
struct RttLog
{
    std::vector<std::uint64_t> rtt_ns;
    std::vector<std::uint64_t> server_ns;
};

class Generator
{
  public:
    /** Connect the data connection to 127.0.0.1:@p port. */
    explicit Generator(std::uint16_t port);
    ~Generator();
    Generator(const Generator &) = delete;
    Generator &operator=(const Generator &) = delete;

    /** False once the connection failed or a protocol error hit. */
    bool healthy() const { return fd_ >= 0 && !broken_; }

    /**
     * Keep @p window requests from @p wl in flight until
     * obs::monotonicNs() reaches @p stop_ns or @p max_requests have
     * been sent (0 = no limit on either), then wait for every
     * answer. With @p log, each round trip is recorded (meant for
     * window 1). With @p spans, one request in eight also records a
     * request span and its engine child, after its round trip is
     * stamped.
     */
    void run(Workload &wl, unsigned window, std::uint64_t stop_ns,
             std::uint64_t max_requests, RttLog *log = nullptr,
             SpanLog *spans = nullptr);

    /** One Health round trip on the data connection; 0 on failure. */
    std::uint64_t healthRoundTripNs();

    const Tally &tally() const { return tally_; }

  private:
    struct Slot
    {
        std::uint64_t id = 0;
        std::shared_ptr<const Pattern> pattern;
        std::uint64_t sent_ns = 0;
        bool busy = false;
    };

    bool flush();
    /**
     * Busy-poll until some bytes arrive, sending any unsent output
     * meanwhile; false on EOF, error, or no answer for the stall
     * limit.
     */
    bool receive();
    /** Verify every complete frame in the receive buffer. */
    void consumeFrames(RttLog *log, SpanLog *spans);
    void fail();

    int fd_ = -1;
    bool broken_ = false;
    Tally tally_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_slots_;
    std::uint64_t next_seq_ = 1;
    std::uint64_t inflight_ = 0;
    std::vector<std::uint8_t> out_;
    std::size_t out_pos_ = 0;
    std::vector<std::uint8_t> in_;
    std::size_t in_begin_ = 0;
    std::size_t in_end_ = 0;
};

/**
 * Wall time from fork of a fresh srbd at fabric size @p n to its
 * first Health answer, in seconds; negative on failure (including an
 * unclean exit on SIGTERM).
 */
double measureColdStart(const std::string &bin, unsigned n);

/** srbd's Prometheus exposition via a Stats round trip; "" on error. */
std::string scrapeStats(srbenes::net::Client &control);

} // namespace srbench

#endif // SRBENCH_WIRE_HH
