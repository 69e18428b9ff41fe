/**
 * @file
 * srbd wire protocol: the compact length-prefixed binary frames the
 * routing daemon speaks on its socket.
 *
 * A frame is a 4-byte little-endian body length followed by the
 * body; the body's first byte is the message type. Integers are
 * little-endian, fixed width, unaligned. There is no negotiation
 * and no versioned handshake — the protocol is deliberately small
 * enough that a client can be written from this header alone:
 *
 *   Submit        u64 id, u64 tenant, u64 deadline_rel_ns,
 *                 u32 num_lines, u8 has_payload,
 *                 num_lines x u32 dest[, num_lines x u64 payload]
 *   SubmitResult  u64 id, u8 status, u8 tier, u64 server_ns,
 *                 u32 payload_count[, payload_count x u64 payload]
 *   Health        (empty)
 *   HealthResult  u8 state, u32 n, u32 workers, u64 uptime_ns,
 *                 u64 served, u64 inflight
 *   Stats         u8 format (0 = Prometheus text, 1 = JSON)
 *   StatsResult   u8 format, u32 len, len x u8 body
 *
 * Every Submit receives exactly one SubmitResult carrying the
 * client-chosen id — including refusals (shed, over-quota,
 * draining, bad-request), so a client can always account for every
 * request it sent. Status is the wire superset of RouteErrc: the
 * in-process taxonomy plus the service-level refusals that only
 * exist once a socket and a tenant sit in front of the fabric.
 *
 * The Decoder is a pull parser over a growing byte buffer. It
 * never throws and never reads out of bounds: a frame longer than
 * the configured maximum, an unknown type, or a body that does not
 * parse exactly (trailing bytes included) yields
 * DecodeStatus::Error, after which the connection must be closed —
 * there is no resynchronization in a length-prefixed stream.
 *
 * A Submit's largest frame grows 12 bytes a line, so under the
 * default 1 MiB cap the largest fabric that can be served is n = 16
 * (a 786,462-byte body; n = 17 would need 1,572,894).
 */

#ifndef SRBENES_NET_PROTOCOL_HH
#define SRBENES_NET_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/bitops.hh"
#include "core/route_outcome.hh"

namespace srbenes
{
namespace net
{

/** Body type tag, the first byte of every frame body. */
enum class MsgType : std::uint8_t
{
    Submit = 1,
    SubmitResult = 2,
    Health = 3,
    HealthResult = 4,
    Stats = 5,
    StatsResult = 6,
};

/**
 * Wire status of one submission: RouteErrc verbatim (same values)
 * plus the service-level refusals a bare fabric cannot produce.
 */
enum class Status : std::uint8_t
{
    Ok = 0,
    NotInF = 1,
    FaultDetected = 2,
    DeadlineExceeded = 3,
    Shed = 4,
    /** Tenant token bucket empty; retry after its refill horizon. */
    OverQuota = 16,
    /** Malformed request semantics (size mismatch, not a
     *  permutation) — the frame itself was well-formed. */
    BadRequest = 17,
    /** The daemon is draining and accepts no new work. */
    Draining = 18,
};

const char *statusName(Status s) noexcept;
Status statusFromErrc(RouteErrc e) noexcept;

/** HealthResult.state values. */
enum class ServeState : std::uint8_t
{
    Serving = 0,
    Draining = 1,
};

/** StatsResult / Stats format selector. */
enum class StatsFormat : std::uint8_t
{
    PrometheusText = 0,
    Json = 1,
};

struct SubmitMsg
{
    std::uint64_t id = 0;
    std::uint64_t tenant = 0;
    /** Relative deadline; 0 = the server's default. */
    std::uint64_t deadline_rel_ns = 0;
    /** Destination tags: input i goes to output dest[i]. */
    std::vector<Word> dest;
    bool has_payload = false;
    /** One word per line when has_payload; routed and echoed back. */
    std::vector<Word> payload;

    bool operator==(const SubmitMsg &) const = default;
};

struct SubmitResultMsg
{
    std::uint64_t id = 0;
    Status status = Status::Ok;
    ServeTier tier = ServeTier::Primary;
    /** Server-side submit→complete time for the request. */
    std::uint64_t server_ns = 0;
    /** Routed payload when the request carried one and succeeded;
     *  empty otherwise. */
    std::vector<Word> payload;

    bool operator==(const SubmitResultMsg &) const = default;
};

struct HealthMsg
{
    bool operator==(const HealthMsg &) const = default;
};

struct HealthResultMsg
{
    ServeState state = ServeState::Serving;
    std::uint32_t n = 0;
    std::uint32_t workers = 0;
    std::uint64_t uptime_ns = 0;
    std::uint64_t served = 0;
    std::uint64_t inflight = 0;

    bool operator==(const HealthResultMsg &) const = default;
};

struct StatsMsg
{
    StatsFormat format = StatsFormat::PrometheusText;

    bool operator==(const StatsMsg &) const = default;
};

struct StatsResultMsg
{
    StatsFormat format = StatsFormat::PrometheusText;
    std::string body;

    bool operator==(const StatsResultMsg &) const = default;
};

using Message = std::variant<SubmitMsg, SubmitResultMsg, HealthMsg,
                             HealthResultMsg, StatsMsg, StatsResultMsg>;

/** MsgType tag of a Message variant. */
MsgType messageType(const Message &m) noexcept;

/** Frames larger than this are a protocol error by default. */
constexpr std::size_t kDefaultMaxFrame = 1u << 20;

/** Serialize @p m as one complete frame appended to @p out. */
void encode(const Message &m, std::vector<std::uint8_t> &out);

enum class DecodeStatus
{
    Ok,       //!< one message extracted
    NeedMore, //!< buffer holds no complete frame yet
    Error,    //!< unrecoverable; close the connection
};

/**
 * Incremental frame parser: feed() raw bytes as they arrive, pull
 * complete messages with next(). After Error the decoder is poisoned
 * and every further next() returns Error.
 *
 * Array fields (Submit dest and payload, SubmitResult payload) are
 * checked against the body once — the declared count must account
 * for exactly the bytes that remain, computed in 64 bits so no count
 * can wrap — and then copied in bulk: one resize and one memcpy-based
 * conversion per array, never a bounds-checked call per element.
 */
class Decoder
{
  public:
    explicit Decoder(std::size_t max_frame = kDefaultMaxFrame)
        : max_frame_(max_frame)
    {
    }

    void feed(const std::uint8_t *data, std::size_t len);

    DecodeStatus next(Message &out, std::string *error = nullptr);

    /** Bytes buffered but not yet consumed by next(). */
    std::size_t buffered() const { return buf_.size() - pos_; }

  private:
    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0;
    std::size_t max_frame_;
    bool poisoned_ = false;
};

} // namespace net
} // namespace srbenes

#endif // SRBENES_NET_PROTOCOL_HH
